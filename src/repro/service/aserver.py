"""The service's HTTP transport: front end + hash router + worker pool.

One event loop accepts connections and speaks hand-rolled HTTP/1.1
(stdlib only, keep-alive; HTTP/1.0 clients keep the connection only on
an explicit ``Connection: keep-alive``).  Request and header lines are
capped at :data:`MAX_LINE` bytes and :data:`MAX_HEADERS` headers, as
the stdlib ``http.server`` does.  Every request is placed onto the
shared-nothing :class:`~repro.service.pool.WorkerPool` through the
consistent-hash ring of :mod:`repro.service.router`, so all traffic
for one deployment lands on one worker's warm caches.  The front end
itself does no construction work — its jobs are:

* **placement** — deployment fingerprints hash to workers; build keys
  pin to the worker that built them; ``w{k}-s{n}`` session ids pin to
  their minting worker; ``/deployments`` traffic pins to worker 0,
  making it the deployment store's single writer;
* **admission control** — per-worker bounded in-flight windows; a full
  window answers ``429`` with ``Retry-After`` instead of queueing
  unboundedly, and slow clients that cannot drain within
  ``write_timeout`` are disconnected rather than allowed to hold
  buffers;
* **response caching** — responses the dispatch layer marks
  ``cacheable`` (pure functions of the request bytes: warm builds,
  routes, the pipeline listing) are replayed verbatim from a bounded
  front cache, skipping the pool round-trip entirely;
* **aggregation** — ``GET /metrics`` fans out to every worker and
  merges the snapshots, adding ``front.*`` and pool sections.

Streaming responses (``/build_stream``, ``/session/{id}/stream``)
forward SSE frames from the worker pipe to the socket as they land,
with ``Connection: close`` delimiting the stream.

Run it with ``python -m repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http.client import responses as _HTTP_REASONS
from typing import Any, Optional

from repro.service.dispatch import MAX_BODY, error_response, normalize_path
from repro.service.pool import (
    PoolClosed,
    PoolSaturated,
    WorkerPool,
    aggregate_metrics,
)
from repro.service.router import (
    HashRing,
    KeyAffinity,
    placement_key,
    session_worker,
)

#: Default seconds a throttled client is told to wait before retrying.
RETRY_AFTER_S = 1

#: Bodies larger than this are not parsed on the front end for
#: placement — the raw bytes hash instead (same worker every time,
#: no JSON decode of multi-MB point sets on the event loop).
MAX_PLACEMENT_PARSE = 256 * 1024

#: Entries kept in the front-end response cache.
FRONT_CACHE_ENTRIES = 4096

#: Longest request or header line accepted (answered 414 / 431 above).
MAX_LINE = 64 * 1024

#: Most header lines one request may carry (answered 431 above).
MAX_HEADERS = 100


class _FrontCache:
    """Bounded LRU of verbatim response bytes, keyed by request bytes."""

    def __init__(self, max_entries: int = FRONT_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        self._map: dict[tuple, tuple[int, bytes]] = {}

    def get(self, key: tuple) -> Optional[tuple[int, bytes]]:
        entry = self._map.get(key)
        if entry is not None:
            self._map.pop(key)
            self._map[key] = entry  # refresh LRU position
        return entry

    def put(self, key: tuple, status: int, body: bytes) -> None:
        if self.max_entries <= 0:
            return
        self._map.pop(key, None)
        self._map[key] = (status, body)
        while len(self._map) > self.max_entries:
            self._map.pop(next(iter(self._map)))

    def __len__(self) -> int:
        return len(self._map)


class AsyncSpannerServer:
    """The asyncio front end over a fixed shared-nothing worker pool."""

    def __init__(
        self,
        *,
        pool_size: int = 4,
        pool_mode: str = "process",
        queue_depth: int = 32,
        write_timeout: float = 30.0,
        front_cache_entries: int = FRONT_CACHE_ENTRIES,
        service_kwargs: Optional[dict] = None,
    ) -> None:
        self.pool = WorkerPool(
            pool_size,
            mode=pool_mode,
            queue_depth=queue_depth,
            service_kwargs=service_kwargs,
        )
        self.ring = HashRing(pool_size)
        self.affinity = KeyAffinity()
        self.cache = _FrontCache(front_cache_entries)
        self.write_timeout = write_timeout
        self.started_at = time.time()
        self.counters: dict[str, int] = {}
        self._rr = 0  # round-robin cursor for unplaced requests
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight: set[asyncio.Task] = set()
        self._closing = False

    # -- bookkeeping -----------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def front_stats(self) -> dict:
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "counters": dict(sorted(self.counters.items())),
            "cache_entries": len(self.cache),
            "affinity_entries": len(self.affinity),
        }

    # -- placement -------------------------------------------------------

    def _pick_worker(
        self, method: str, path: str, raw_body: Optional[bytes]
    ) -> int:
        parts = [p for p in normalize_path(path).strip("/").split("/") if p]
        if parts and parts[0] == "deployments":
            # All /deployments traffic pins to worker 0 so manifest
            # mutations have a single writer (and reads see their own
            # writes immediately); spreading writes across workers
            # would race the store's read-modify-write between
            # processes.  Builds referencing {"deployment": name}
            # still go anywhere — multi-process *readers* are safe.
            return 0
        if parts and parts[0] == "session" and len(parts) >= 2:
            pinned = session_worker(parts[1])
            if pinned is not None and 0 <= pinned < self.pool.size:
                return pinned
            return self.ring.worker_for(f"session:{parts[1]}")
        payload: Any = None
        if raw_body and method == "POST":
            if len(raw_body) <= MAX_PLACEMENT_PARSE:
                try:
                    payload = json.loads(raw_body)
                except (ValueError, UnicodeDecodeError):
                    payload = None  # worker will produce the 400
            else:
                import hashlib

                return self.ring.worker_for(
                    "body:" + hashlib.sha256(raw_body).hexdigest()
                )
        key = placement_key(method, parts, payload)
        if key is None:
            # No data affinity: spread across live workers round-robin.
            self._rr = (self._rr + 1) % self.pool.size
            return self._rr
        if key.startswith("key:"):
            learned = self.affinity.lookup(key[4:])
            if learned is not None:
                self._count("front.affinity_hits")
                return learned
        return self.ring.worker_for(key)

    def _learn_affinity(self, path: str, status: int, body: bytes, worker: int) -> None:
        """Record build-key ownership from a successful build response."""
        if status != 200 or normalize_path(path) != "/build":
            return
        try:
            key = json.loads(body).get("key")
        except (ValueError, UnicodeDecodeError):
            return
        if isinstance(key, str):
            self.affinity.record(key, worker)

    # -- pool round-trip -------------------------------------------------

    async def _call_worker(
        self, worker: int, method: str, path: str, raw_body: Optional[bytes]
    ) -> "asyncio.Queue[tuple]":
        """Submit one request; messages arrive on the returned queue."""
        loop = asyncio.get_running_loop()
        messages: "asyncio.Queue[tuple]" = asyncio.Queue()

        def on_message(message: tuple) -> None:
            loop.call_soon_threadsafe(messages.put_nowait, message)

        self.pool.submit(worker, method, path, raw_body, on_message)
        return messages

    async def dispatch_json(
        self, method: str, path: str, raw_body: Optional[bytes]
    ) -> tuple[int, bytes]:
        """One non-streaming request through cache + pool; for reuse
        by ``/metrics`` aggregation and in-process tests."""
        worker = self._pick_worker(method, path, raw_body)
        messages = await self._call_worker(worker, method, path, raw_body)
        message = await messages.get()
        if message[1] == "json":
            _, _, status, body, cacheable = message
            self._learn_affinity(path, status, body, worker)
            return status, body
        # A streaming message on the JSON path cannot happen (dispatch
        # decides by path); drain defensively.
        await self._drain_stream(messages)
        return 500, b'{"error": "unexpected stream"}'

    @staticmethod
    async def _drain_stream(messages: "asyncio.Queue[tuple]") -> None:
        """Consume a stream's remaining messages so the worker's
        in-flight slot frees.  A ``"json"`` message is terminal too:
        it is what :meth:`WorkerPool._fail_pending` delivers when the
        worker dies mid-stream, and nothing follows it — waiting for
        an ``"end"`` that will never come would hang forever.
        """
        while True:
            message = await messages.get()
            if message[1] in ("end", "json"):
                return

    async def _collect_metrics(self) -> tuple[int, bytes]:
        """Fan ``GET /metrics`` to every worker and merge."""
        snapshots = []
        for worker in range(self.pool.size):
            try:
                messages = await self._call_worker(worker, "GET", "/metrics", None)
            except (PoolSaturated, PoolClosed):
                continue
            message = await messages.get()
            if message[1] == "json" and message[2] == 200:
                try:
                    snapshots.append(json.loads(message[3]))
                except ValueError:
                    pass
        merged = aggregate_metrics(snapshots)
        merged["front"] = self.front_stats()
        merged["pool"] = self.pool.stats()
        return 200, json.dumps(merged).encode()

    # -- HTTP ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.TimeoutError,
        ):
            pass
        finally:
            if task is not None:
                self._inflight.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._closing:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            method, path, version, headers, raw_body = request
            self._count("front.requests")
            connection = headers.get("connection", "").lower()
            if version == "HTTP/1.0":
                keep_alive = connection == "keep-alive"
            else:
                keep_alive = connection != "close"
            if not await self._respond(
                writer, method, path, raw_body, keep_alive
            ):
                return
            if not keep_alive:
                return

    async def _refuse(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        """Answer an unparseable request; the connection then closes."""
        await self._write_json(
            writer, status, error_response(status, message).encode(), False
        )

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[tuple[str, str, str, dict, Optional[bytes]]]:
        """Parse one request head and body; ``None`` ends the connection.

        Requests outside the parser's limits are answered (414, 431,
        400, 501, 413) and the connection closed, since the unread rest
        of the request would desync a keep-alive stream.
        """
        try:
            line = await reader.readline()
        except ValueError:  # longer than the reader's MAX_LINE limit
            await self._refuse(writer, 414, "request line too long")
            return None
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, path, version = line.decode("latin-1").split(maxsplit=2)
        except ValueError:
            await self._refuse(writer, 400, "malformed request line")
            return None
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            try:
                header = await reader.readline()
            except ValueError:
                await self._refuse(writer, 431, "header line too long")
                return None
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            await self._refuse(writer, 431, f"more than {MAX_HEADERS} headers")
            return None
        if "transfer-encoding" in headers:
            # The hand-rolled parser does not implement chunked
            # framing; accepting the request would leave the body
            # unread in the buffer and desync the keep-alive stream.
            await self._refuse(writer, 501, "transfer-encoding not supported")
            return None
        try:
            length = int(headers.get("content-length") or 0)
            if length < 0:
                raise ValueError(length)
        except ValueError:
            await self._refuse(writer, 400, "malformed Content-Length")
            return None
        if length > MAX_BODY:
            # Refuse without reading the body.
            await self._refuse(writer, 413, "request body too large")
            return None
        raw_body = await reader.readexactly(length) if length > 0 else None
        return method, path, version.strip(), headers, raw_body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        raw_body: Optional[bytes],
        keep_alive: bool,
    ) -> bool:
        """Serve one parsed request; ``False`` closes the connection."""
        bare = normalize_path(path)
        if method == "GET" and bare == "/metrics":
            status, body = await self._collect_metrics()
            return await self._write_json(writer, status, body, keep_alive)

        cache_key = (method, bare, raw_body)
        cached = self.cache.get(cache_key)
        if cached is not None:
            self._count("front.cache_hits")
            return await self._write_json(writer, cached[0], cached[1], keep_alive)

        worker = self._pick_worker(method, path, raw_body)
        try:
            messages = await self._call_worker(worker, method, path, raw_body)
        except PoolSaturated:
            self._count("front.throttled")
            response = error_response(
                503 if self._closing else 429, "worker saturated; retry later"
            )
            return await self._write_raw(
                writer,
                self._format_head(
                    response.status,
                    content_length=len(response.encode()),
                    keep_alive=keep_alive,
                    extra={"Retry-After": str(RETRY_AFTER_S)},
                )
                + response.encode(),
            ) and keep_alive
        except PoolClosed:
            response = error_response(503, "service shutting down")
            await self._write_json(writer, 503, response.encode(), False)
            return False

        message = await messages.get()
        kind = message[1]
        if kind == "json":
            _, _, status, body, cacheable = message
            self._learn_affinity(path, status, body, worker)
            if cacheable:
                self.cache.put(cache_key, status, body)
            return await self._write_json(writer, status, body, keep_alive)
        if kind == "stream":
            _, _, status, content_type = message
            self._count("front.streams")
            await self._write_raw(
                writer,
                self._format_head(
                    status,
                    keep_alive=False,
                    content_type=content_type,
                    extra={"Cache-Control": "no-store"},
                ),
            )
            while True:
                message = await messages.get()
                if message[1] in ("end", "json"):
                    # "json" mid-stream means the worker died and
                    # _fail_pending delivered its terminal failure;
                    # the SSE stream is truncated, so just close.
                    break
                if message[1] == "frame":
                    if not await self._write_raw(writer, message[2]):
                        self._count("front.slow_client_drops")
                        # Keep draining the pipe so the worker slot frees.
                        await self._drain_stream(messages)
                        return False
            return False  # Connection: close delimits the stream
        return False

    def _format_head(
        self,
        status: int,
        *,
        keep_alive: bool,
        content_length: Optional[int] = None,
        content_type: str = "application/json",
        extra: Optional[dict] = None,
    ) -> bytes:
        reason = _HTTP_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
        ]
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _write_json(
        self, writer: asyncio.StreamWriter, status: int, body: bytes, keep_alive: bool
    ) -> bool:
        head = self._format_head(
            status, content_length=len(body), keep_alive=keep_alive
        )
        ok = await self._write_raw(writer, head + body)
        if not ok:
            self._count("front.slow_client_drops")
        return ok and keep_alive

    async def _write_raw(self, writer: asyncio.StreamWriter, data: bytes) -> bool:
        """Write + drain under the slow-client timeout."""
        try:
            writer.write(data)
            await asyncio.wait_for(writer.drain(), timeout=self.write_timeout)
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError, OSError):
            return False
        return True

    # -- lifecycle -------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8972) -> None:
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE
        )

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Stop accepting, drain in-flight connections, stop the pool."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._inflight:
            await asyncio.wait(
                set(self._inflight), timeout=drain_timeout
            )
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.close
        )


def serve_async(
    host: str = "127.0.0.1",
    port: int = 8972,
    *,
    pool_size: int = 4,
    pool_mode: str = "process",
    queue_depth: int = 32,
    **service_kwargs: Any,
) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    server = AsyncSpannerServer(
        pool_size=pool_size,
        pool_mode=pool_mode,
        queue_depth=queue_depth,
        service_kwargs=service_kwargs,
    )

    async def main() -> None:
        import signal

        await server.start(host, port)
        print(
            f"spanner service on http://{host}:{server.port} "
            f"(pool={server.pool.size}x{server.pool.mode}, "
            f"depth={server.pool.queue_depth})"
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGINT, stop.set)
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop: KeyboardInterrupt fallback below
        await stop.wait()
        print("shutting down")
        await server.shutdown()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
        server.pool.close()
    return 0


class AsyncBackgroundServer:
    """Context manager running the server on a thread (tests, smoke).

    Keyword arguments go to :class:`AsyncSpannerServer`; in-process
    callers pass ``pool_mode="thread"``.
    """

    def __init__(self, **kwargs: Any) -> None:
        self._kwargs = kwargs
        self.server: Optional[AsyncSpannerServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._port}"

    def __enter__(self) -> "AsyncBackgroundServer":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60) or self._startup_error:
            raise RuntimeError(
                f"async server failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        async def main() -> None:
            self.server = AsyncSpannerServer(**self._kwargs)
            try:
                await self.server.start(port=0)
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._port = self.server.port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.server.shutdown()

        try:
            asyncio.run(main())
        except BaseException as exc:
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()

    def __exit__(self, *exc_info: Any) -> None:
        loop, stop, thread = self._loop, self._stop, self._thread
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
        if thread is not None:
            thread.join(timeout=60)
