"""The shared-nothing worker pool behind the async serving tier.

Each worker is one OS process owning a full private
:class:`~repro.service.server.SpannerService` — its own registry,
construction/router caches, and incremental sessions.  Workers never
share memory or locks; the only coordination surfaces are the
placement ring (:mod:`repro.service.router`), the shared *disk* cache
layer, and the single-writer deployment store, all under
``--data-dir``.

Transport is one duplex :func:`multiprocessing.Pipe` per worker.  The
front end writes ``(request_id, method, path, raw_body)`` tuples; the
worker answers each request with either one terminal ``"json"``
message (status + the exact response bytes + the cacheable hint) or a
``"stream"`` / ``"frame"``* / ``"end"`` sequence carrying SSE frames
as they are produced.  A dedicated reader thread per worker
demultiplexes messages to per-request callbacks, so the asyncio loop
never blocks on a pipe.

Degradation mirrors :mod:`repro.service.executor`: where process
spawning is unavailable (locked-down sandboxes), the pool runs each
worker loop on a thread with queue-backed connections — same
protocol, same shared-nothing discipline, no parallelism.

Admission control is enforced here: each worker has a bounded
in-flight window (``queue_depth``); :meth:`WorkerPool.submit` raises
:class:`PoolSaturated` when the owner's window is full, which the
front end maps to ``429 Retry-After``.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
import traceback
from typing import Any, Callable, Mapping, Optional

#: How long ``close()`` waits for a worker to finish its current
#: request and acknowledge the stop before being terminated.
STOP_TIMEOUT_S = 10.0


class PoolSaturated(Exception):
    """The target worker's in-flight window is full (maps to 429)."""

    def __init__(self, worker_id: int, depth: int) -> None:
        super().__init__(f"worker {worker_id} saturated at depth {depth}")
        self.worker_id = worker_id
        self.depth = depth


class PoolClosed(Exception):
    """The pool (or the target worker) is no longer accepting work."""


class _QueueConnection:
    """A ``Connection``-shaped pair of queues (thread-mode transport)."""

    def __init__(self, send_q: "queue.Queue", recv_q: "queue.Queue") -> None:
        self._send_q = send_q
        self._recv_q = recv_q
        self._closed = False

    def send(self, obj: Any) -> None:
        if self._closed:
            raise OSError("connection closed")
        self._send_q.put(obj)

    def recv(self) -> Any:
        obj = self._recv_q.get()
        if obj is _CLOSED:
            raise EOFError
        return obj

    def close(self) -> None:
        self._closed = True
        self._send_q.put(_CLOSED)


_CLOSED = object()


def _worker_loop(worker_id: int, conn: Any, service_kwargs: dict) -> None:
    """One worker's lifetime: serve requests off the pipe until told to stop.

    Runs in a child process (or a thread in degraded mode).  Imports
    are deferred so the child only pays for what it serves.
    """
    from repro.service.dispatch import EventStream, dispatch
    from repro.service.server import SpannerService

    service = SpannerService(worker_id=worker_id, **service_kwargs)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:  # stop sentinel
                break
            request_id, method, path, raw_body = message
            try:
                result = dispatch(service, method, path, raw_body)
            except Exception as exc:  # dispatch never raises; belt and braces
                traceback.print_exc()
                from repro.service.dispatch import error_response

                failure = error_response(500, f"{type(exc).__name__}: {exc}")
                conn.send((request_id, "json", 500, failure.encode(), False))
                continue
            if isinstance(result, EventStream):
                conn.send((request_id, "stream", result.status, result.content_type))
                try:
                    for frame in result.events:
                        conn.send((request_id, "frame", frame))
                finally:
                    conn.send((request_id, "end", None, None))
            else:
                conn.send(
                    (request_id, "json", result.status, result.encode(),
                     result.cacheable)
                )
    finally:
        summary = service.close()
        try:
            conn.send((None, "stopped", summary, None))
            conn.close()
        except (OSError, ValueError):
            pass


class _Worker:
    """Front-end handle: connection, reader thread, in-flight window."""

    def __init__(self, worker_id: int, queue_depth: int) -> None:
        self.worker_id = worker_id
        self.queue_depth = queue_depth
        self.conn: Any = None
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.thread: Optional[threading.Thread] = None
        self.reader: Optional[threading.Thread] = None
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()
        self.pending: dict[int, Callable[[tuple], None]] = {}
        self.alive = False
        self.stop_summary: Optional[dict] = None

    def inflight(self) -> int:
        with self.lock:
            return len(self.pending)


class WorkerPool:
    """A fixed pool of shared-nothing service workers."""

    def __init__(
        self,
        size: int,
        *,
        mode: str = "process",
        queue_depth: int = 32,
        service_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool needs at least one worker")
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.size = size
        self.requested_mode = mode
        self.mode = mode
        self.queue_depth = queue_depth
        self.service_kwargs = dict(service_kwargs or {})
        self._workers = [_Worker(i, queue_depth) for i in range(size)]
        self._request_seq = 0
        self._seq_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self.mode == "process":
            try:
                self._start_processes()
            except Exception:
                self.mode = "thread"
                self._start_threads()
        else:
            self._start_threads()
        return self

    def _start_processes(self) -> None:
        ctx = multiprocessing.get_context()
        started: list[_Worker] = []
        try:
            for worker in self._workers:
                parent, child = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=_worker_loop,
                    args=(worker.worker_id, child, self.service_kwargs),
                    daemon=True,
                )
                process.start()
                child.close()
                worker.conn = parent
                worker.process = process
                started.append(worker)
            # Probe: a dead-on-arrival child (sandboxed fork) must fail
            # startup here, not on the first request.
            for worker in started:
                if not worker.process.is_alive():
                    raise OSError(f"worker {worker.worker_id} failed to start")
                worker.alive = True
                self._start_reader(worker)
        except Exception:
            for worker in started:
                if worker.process is not None:
                    worker.process.terminate()
                worker.process = None
                worker.conn = None
                worker.alive = False
            raise

    def _start_threads(self) -> None:
        for worker in self._workers:
            to_worker: "queue.Queue" = queue.Queue()
            to_parent: "queue.Queue" = queue.Queue()
            worker.conn = _QueueConnection(to_worker, to_parent)
            worker_conn = _QueueConnection(to_parent, to_worker)
            worker.thread = threading.Thread(
                target=_worker_loop,
                args=(worker.worker_id, worker_conn, self.service_kwargs),
                daemon=True,
            )
            worker.thread.start()
            worker.alive = True
            self._start_reader(worker)

    def _start_reader(self, worker: _Worker) -> None:
        worker.reader = threading.Thread(
            target=self._read_loop, args=(worker,), daemon=True
        )
        worker.reader.start()

    def _read_loop(self, worker: _Worker) -> None:
        """Demultiplex one worker's messages to request callbacks."""
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._fail_pending(worker, "worker connection lost")
                return
            request_id, kind = message[0], message[1]
            if request_id is None:  # stop acknowledgement
                worker.stop_summary = message[2]
                self._fail_pending(worker, "worker stopped")
                return
            with worker.lock:
                callback = worker.pending.get(request_id)
                if kind in ("json", "end"):
                    worker.pending.pop(request_id, None)
            if callback is not None:
                try:
                    callback(message)
                except Exception:
                    traceback.print_exc()

    def _fail_pending(self, worker: _Worker, reason: str) -> None:
        import json as _json

        worker.alive = False
        with worker.lock:
            pending, worker.pending = dict(worker.pending), {}
        body = _json.dumps({"error": reason}).encode()
        for request_id, callback in pending.items():
            try:
                callback((request_id, "json", 500, body, False))
            except Exception:
                traceback.print_exc()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        worker_id: int,
        method: str,
        path: str,
        raw_body: Optional[bytes],
        on_message: Callable[[tuple], None],
    ) -> int:
        """Enqueue one request on ``worker_id``; returns the request id.

        ``on_message`` runs on the reader thread for every message of
        this request; a ``"json"`` or ``"end"`` message is terminal and
        frees the in-flight slot.
        """
        if self._closed:
            raise PoolClosed("pool is closed")
        worker = self._workers[worker_id]
        if not worker.alive:
            raise PoolClosed(f"worker {worker_id} is down")
        with self._seq_lock:
            self._request_seq += 1
            request_id = self._request_seq
        with worker.lock:
            if len(worker.pending) >= worker.queue_depth:
                raise PoolSaturated(worker_id, worker.queue_depth)
            worker.pending[request_id] = on_message
        try:
            with worker.send_lock:
                worker.conn.send((request_id, method, path, raw_body))
        except (OSError, ValueError) as exc:
            with worker.lock:
                worker.pending.pop(request_id, None)
            worker.alive = False
            raise PoolClosed(f"worker {worker_id} is down: {exc}") from None
        return request_id

    def inflight(self, worker_id: int) -> int:
        return self._workers[worker_id].inflight()

    def alive_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    def stats(self) -> dict:
        return {
            "size": self.size,
            "mode": self.mode,
            "queue_depth": self.queue_depth,
            "alive": self.alive_workers(),
            "inflight": [worker.inflight() for worker in self._workers],
        }

    # -- shutdown --------------------------------------------------------

    def close(self, timeout: float = STOP_TIMEOUT_S) -> list[Optional[dict]]:
        """Graceful stop: drain, stop sentinel, join; terminate stragglers.

        Returns each worker's ``SpannerService.close()`` summary (or
        ``None`` if it had to be terminated).
        """
        if self._closed:
            return [worker.stop_summary for worker in self._workers]
        self._closed = True
        deadline = time.monotonic() + timeout
        # Let in-flight requests finish before the stop sentinel, so
        # "drain" means drain — workers process their pipe in order,
        # but streamed responses interleave with the sentinel read.
        for worker in self._workers:
            while worker.alive and worker.inflight() > 0:
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.01)
        for worker in self._workers:
            if worker.alive and worker.conn is not None:
                try:
                    with worker.send_lock:
                        worker.conn.send(None)
                except (OSError, ValueError):
                    pass
        for worker in self._workers:
            remaining = max(0.1, deadline - time.monotonic())
            if worker.process is not None:
                worker.process.join(timeout=remaining)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
            elif worker.thread is not None:
                worker.thread.join(timeout=remaining)
            if worker.reader is not None:
                worker.reader.join(timeout=1.0)
            worker.alive = False
        return [worker.stop_summary for worker in self._workers]


# -- metrics aggregation ------------------------------------------------------


def _merge_series(merged: dict, snapshot: dict) -> None:
    """Fold one snapshot's ``counters`` and ``latency`` into ``merged``."""
    for name, value in snapshot.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, series in snapshot.get("latency", {}).items():
        slot = merged["latency"].get(name)
        if slot is None:
            merged["latency"][name] = dict(series)
            continue
        slot["count"] += series.get("count", 0)
        slot["sum_s"] = round(slot.get("sum_s", 0.0) + series.get("sum_s", 0.0), 6)
        for field, pick in (("min_ms", min), ("max_ms", max),
                            ("p50_ms", max), ("p95_ms", max), ("p99_ms", max)):
            if field in series:
                slot[field] = pick(slot.get(field, series[field]), series[field])
        if slot.get("count"):
            slot["avg_ms"] = round(slot["sum_s"] / slot["count"] * 1000.0, 3)


def aggregate_metrics(snapshots: list[dict]) -> dict:
    """Merge per-worker ``/metrics`` snapshots into one pool view.

    Counters sum (the ``gc`` section's too); the cache ``hit_rate`` is
    recomputed from the summed hits and misses; latency series merge by summing counts/totals and
    taking min/max of the extremes.  Percentiles cannot be merged
    exactly from summaries, so the pool view reports the worst
    (max) per-worker percentile — conservative for alerting.
    """
    merged: dict[str, Any] = {
        "uptime_s": max((s.get("uptime_s", 0.0) for s in snapshots), default=0.0),
        "counters": {},
        "latency": {},
        "gc": {"counters": {}, "latency": {}},
        "sessions": {"active": 0},
        "workers": len(snapshots),
    }
    cache_totals: dict[str, Any] = {}
    for snapshot in snapshots:
        _merge_series(merged, snapshot)
        _merge_series(merged["gc"], snapshot.get("gc", {}))
        merged["sessions"]["active"] += snapshot.get("sessions", {}).get("active", 0)
        for name, value in snapshot.get("cache", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                cache_totals[name] = cache_totals.get(name, 0) + value
    if cache_totals:
        # A ratio does not sum: recompute it from the merged counts.
        hits = cache_totals.get("hits", 0)
        lookups = hits + cache_totals.get("misses", 0)
        cache_totals["hit_rate"] = hits / lookups if lookups else 0.0
        merged["cache"] = cache_totals
    return merged
