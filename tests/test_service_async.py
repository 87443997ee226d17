"""The asyncio serving tier, end to end.

Covers the PR's acceptance tripwires:

* **parity** — non-streaming responses over HTTP byte-identical to
  :func:`~repro.service.dispatch.dispatch` on a fresh in-process
  service: the front end never alters worker bytes;
* **persistence** — named deployments survive a restart through the
  async tier;
* **admission control** — a saturated worker answers 429 with
  ``Retry-After``, and the client's retry loop rides through it;
* **streaming** — SSE build progress and session deltas;
* **graceful shutdown** — executor pools with abandoned work are
  tracked and drained, ``close()`` is idempotent and persists state;
* **concurrency** — a multi-threaded hammer mixing builds, batch
  routes, and session steps on overlapping deployments sees no
  cross-tenant bleed and consistent counters;
* **metrics** — the merged multi-worker ``GET /metrics`` reports a
  true cache hit rate;
* **parser limits** — over-long lines, too many headers and HTTP/1.0
  keep-alive rules are answered the way the stdlib server did.
"""

import asyncio
import http.client
import json
import socket
import threading
import time

import pytest

from repro.service.aserver import AsyncBackgroundServer, AsyncSpannerServer
from repro.service.client import ClientError, ServiceClient
from repro.service.dispatch import dispatch
from repro.service.executor import PoolTracker, run_batch
from repro.service.server import SpannerService

SCENARIO = {"nodes": 30, "side": 150.0, "radius": 55.0, "seed": 1}
TENANTS = [
    {"nodes": 24, "side": 120.0, "radius": 45.0, "seed": 21},
    {"nodes": 28, "side": 130.0, "radius": 48.0, "seed": 22},
    {"nodes": 32, "side": 140.0, "radius": 50.0, "seed": 23},
]


def raw_request(url: str, method: str, path: str, payload=None):
    """One request over http.client, returning (status, headers, bytes)."""
    host = url.split("//", 1)[1]
    conn = http.client.HTTPConnection(host, timeout=120)
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    headers = dict(response.getheaders())
    conn.close()
    return response.status, headers, data


@pytest.fixture(scope="module")
def async_server(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("adata")
    with AsyncBackgroundServer(
        pool_size=2,
        pool_mode="thread",
        queue_depth=16,
        service_kwargs={"executor_mode": "serial", "data_dir": str(data_dir)},
    ) as server:
        yield server


def scrub_timings(value):
    """Drop wall-clock keys — the only fields two independent builds
    can legitimately disagree on."""
    if isinstance(value, dict):
        return {
            key: scrub_timings(item)
            for key, item in value.items()
            if key not in ("phase_seconds", "seconds")
        }
    if isinstance(value, list):
        return [scrub_timings(item) for item in value]
    return value


class TestParity:
    """Same request -> same bytes, over HTTP vs in-process (the tripwire).

    ``exact=False`` marks the one endpoint (``/build``) whose body
    embeds wall-clock phase timings; there the comparison is canonical
    JSON with timing keys scrubbed, still field-for-field strict.
    """

    CASES = [
        ("GET", "/pipelines", None, True),
        ("POST", "/build", {"pipeline": "backbone", "scenario": SCENARIO}, False),
        ("POST", "/build", {"pipeline": "backbone", "scenario": SCENARIO}, False),
        ("POST", "/route", {"pipeline": "backbone", "scenario": SCENARIO,
                            "source": 0, "target": 20}, True),
        ("POST", "/route_batch", {"pipeline": "backbone", "scenario": SCENARIO,
                                  "count": 40, "seed": 3, "mode": "gpsr"}, True),
        ("POST", "/build", {"pipeline": "nope", "scenario": SCENARIO}, True),
        ("POST", "/build", None, True),
        ("GET", "/no/such/path", None, True),
        ("DELETE", "/session/ghost", None, True),
    ]

    def test_byte_identical_responses(self, async_server):
        service = SpannerService(executor_mode="serial")
        mismatches = []
        for method, path, payload, exact in self.CASES:
            raw = json.dumps(payload).encode() if payload is not None else None
            expected = dispatch(service, method, path, raw)
            d_status, d_body = expected.status, expected.encode()
            a_status, _, a_body = raw_request(
                async_server.url, method, path, payload
            )
            if not exact:
                d_body = json.dumps(
                    scrub_timings(json.loads(d_body)), sort_keys=True
                ).encode()
                a_body = json.dumps(
                    scrub_timings(json.loads(a_body)), sort_keys=True
                ).encode()
            if (d_status, d_body) != (a_status, a_body):
                mismatches.append((method, path, d_status, a_status, d_body, a_body))
        service.close()
        assert not mismatches, mismatches

    def test_cache_marker_flips_identically(self, async_server):
        """The second identical /build reports 'hit' — the front cache
        replays the same bytes the worker produced."""
        _, _, body = raw_request(
            async_server.url, "POST", "/build",
            {"pipeline": "udg", "scenario": SCENARIO},
        )
        _, _, again = raw_request(
            async_server.url, "POST", "/build",
            {"pipeline": "udg", "scenario": SCENARIO},
        )
        assert json.loads(body)["cache"] == "miss"
        assert json.loads(again)["cache"] == "hit"
        assert json.loads(again)["edges"] == json.loads(body)["edges"]


class TestPersistence:
    def test_deployments_survive_restart(self, tmp_path):
        data_dir = str(tmp_path / "persist")
        kwargs = dict(
            pool_size=2, pool_mode="thread", queue_depth=8,
            service_kwargs={"executor_mode": "serial", "data_dir": data_dir},
        )
        with AsyncBackgroundServer(**kwargs) as server:
            client = ServiceClient(server.url)
            entry = client.deployment_put("city", TENANTS[0])
            fingerprint = entry["fingerprint"]
            built = client.build("udg", {"deployment": "city"})
        with AsyncBackgroundServer(**kwargs) as server:
            client = ServiceClient(server.url)
            assert client.deployment_get("city")["fingerprint"] == fingerprint
            names = [e["name"] for e in client.deployments()["deployments"]]
            assert names == ["city"]
            rebuilt = client.build("udg", {"deployment": "city"})
            assert rebuilt["key"] == built["key"]
            assert rebuilt["edges"] == built["edges"]

    def test_unknown_deployment_404(self, async_server):
        client = ServiceClient(async_server.url, retries=0)
        with pytest.raises(ClientError) as err:
            client.build("udg", {"deployment": "ghost"})
        assert err.value.status == 404


class TestStreaming:
    def test_build_stream_event_order(self, async_server):
        client = ServiceClient(async_server.url, timeout=120)
        events = list(client.build(
            "sharded:ldel", SCENARIO, params={"shards": 4}, stream=True
        ))
        names = [name for name, _ in events]
        assert names[0] == "start"
        assert names[-1] == "end"
        assert "result" in names
        result = dict(events)["result"]
        serial = client.build("ldel", SCENARIO)
        assert result["edges"] == serial["edges"]  # stitched == serial

    def test_build_stream_cache_hit_short_circuit(self, async_server):
        client = ServiceClient(async_server.url, timeout=120)
        first = list(client.build("gg", SCENARIO, stream=True))
        second = list(client.build("gg", SCENARIO, stream=True))
        assert dict(first)["result"]["cache"] == "miss"
        assert dict(second)["result"]["cache"] == "hit"
        assert dict(second)["result"]["edges"] == dict(first)["result"]["edges"]

    def test_session_stream_deltas(self, async_server):
        client = ServiceClient(async_server.url, timeout=120)
        session = client.session_create(SCENARIO)["session"]
        batches = [
            [{"kind": "move", "node": 0, "x": 10.0, "y": 10.0}],
            [{"kind": "join", "x": 70.0, "y": 70.0}],
            [{"kind": "leave", "node": 3}],
        ]
        events = list(client.session_stream(session, batches))
        names = [name for name, _ in events]
        assert names == ["start", "delta", "delta", "delta", "end"]
        assert events[-1][1]["applied"] == 3
        # The session state advanced: the summary shows all steps.
        assert client.session_get(session)["steps"] == 3
        client.session_delete(session)

    def test_stream_validation_fails_before_streaming(self, async_server):
        client = ServiceClient(async_server.url, retries=0)
        with pytest.raises(ClientError) as err:
            list(client.session_stream("ghost", [[{"kind": "leave", "node": 0}]]))
        assert err.value.status == 404


class TestAdmissionControl:
    def test_saturation_yields_429_with_retry_after(self, tmp_path):
        with AsyncBackgroundServer(
            pool_size=1, pool_mode="thread", queue_depth=1,
            service_kwargs={"executor_mode": "serial"},
        ) as server:
            statuses, headers_seen = [], []
            lock = threading.Lock()

            def fire(seed):
                scenario = {"nodes": 60, "side": 100.0, "radius": 30.0,
                            "seed": seed}
                status, headers, _ = raw_request(
                    server.url, "POST", "/build",
                    {"pipeline": "ldel", "scenario": scenario},
                )
                with lock:
                    statuses.append(status)
                    headers_seen.append(headers)

            threads = [
                threading.Thread(target=fire, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert 200 in statuses  # the window admitted work
            throttled = [
                header for status, header in zip(statuses, headers_seen)
                if status == 429
            ]
            assert throttled, f"no 429 under saturation: {statuses}"
            assert all("Retry-After" in header for header in throttled)

    def test_client_retries_through_throttling(self, tmp_path):
        with AsyncBackgroundServer(
            pool_size=1, pool_mode="thread", queue_depth=1,
            service_kwargs={"executor_mode": "serial"},
        ) as server:
            client = ServiceClient(
                server.url, timeout=120, retries=8, backoff_s=0.05
            )
            results = []
            lock = threading.Lock()

            def fire(seed):
                scenario = {"nodes": 50, "side": 100.0, "radius": 32.0,
                            "seed": seed}
                result = client.build("gg", scenario)
                with lock:
                    results.append(result)

            threads = [
                threading.Thread(target=fire, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 6  # every request eventually landed
            assert all(r["edges"] > 0 for r in results)


class TestGracefulShutdown:
    def test_tracker_catches_abandoned_pools(self):
        tracker = PoolTracker()
        outcome = run_batch(
            [0.4], time.sleep, mode="thread", timeout=0.05, tracker=tracker
        )
        assert outcome.outcomes[0].timed_out
        assert tracker.active() == 1
        assert tracker.drain(timeout=10.0) is True
        assert tracker.active() == 0

    def test_clean_batches_are_not_tracked(self):
        tracker = PoolTracker()
        run_batch([1, 2, 3], lambda x: x * 2, mode="thread", tracker=tracker)
        assert tracker.active() == 0

    def test_service_close_persists_and_is_idempotent(self, tmp_path):
        service = SpannerService(
            executor_mode="serial", data_dir=str(tmp_path / "cdata")
        )
        service.deployments_create({"name": "keep", "scenario": TENANTS[0]})
        service.session_create({"scenario": SCENARIO})
        summary = service.close()
        assert summary["closed"] is True
        assert summary["sessions_closed"] == 1
        assert service.close()["already"] is True
        # The manifest survived the close and a fresh service reads it.
        fresh = SpannerService(
            executor_mode="serial", data_dir=str(tmp_path / "cdata")
        )
        assert fresh.deployments_get("keep")["name"] == "keep"

    def test_background_server_closes_service(self):
        with AsyncBackgroundServer(
            pool_size=2, pool_mode="thread",
            service_kwargs={"executor_mode": "serial"},
        ) as server:
            ServiceClient(server.url).healthz()
        summaries = [worker.stop_summary for worker in server.server.pool._workers]
        assert len(summaries) == 2
        assert all(summary["closed"] is True for summary in summaries)


class TestConcurrentHammer:
    """Satellite: N threads, overlapping tenants, no cache bleed."""

    THREADS = 6
    ROUNDS = 3

    def test_mixed_workload_consistency(self, async_server):
        client = ServiceClient(async_server.url, timeout=120, retries=6)
        before = client.metrics()
        edges_seen = {i: set() for i in range(len(TENANTS))}
        session_steps = []
        errors = []
        lock = threading.Lock()

        def hammer(thread_id):
            try:
                session = client.session_create(
                    TENANTS[thread_id % len(TENANTS)]
                )["session"]
                for round_no in range(self.ROUNDS):
                    tenant = (thread_id + round_no) % len(TENANTS)
                    built = client.build("backbone", TENANTS[tenant])
                    with lock:
                        edges_seen[tenant].add(
                            (built["key"], built["edges"], built["nodes"])
                        )
                    routed = client.route_batch(
                        key=built["key"], count=20, seed=round_no, mode="greedy"
                    )
                    assert routed["pairs"] == 20
                    step = client.session_step(
                        session,
                        [{"kind": "move", "node": 0,
                          "x": 5.0 + round_no, "y": 5.0 + thread_id}],
                    )
                    with lock:
                        session_steps.append((session, step["step"]))
                client.session_delete(session)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                with lock:
                    errors.append(f"thread {thread_id}: {exc!r}")

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        # No cross-tenant bleed: every thread saw exactly one
        # (key, edges, nodes) triple per tenant, and tenants differ.
        for tenant, seen in edges_seen.items():
            assert len(seen) == 1, f"tenant {tenant} answers diverged: {seen}"
        keys = {next(iter(seen))[0] for seen in edges_seen.values()}
        assert len(keys) == len(TENANTS)
        # Sessions were isolated: each advanced monotonically to ROUNDS.
        per_session = {}
        for session, step in session_steps:
            per_session.setdefault(session, []).append(step)
        assert len(per_session) == self.THREADS
        for steps in per_session.values():
            assert sorted(steps) == list(range(1, self.ROUNDS + 1))
        # Counters stayed consistent: hits + misses == worker requests,
        # and the front saw at least every request we sent.
        after = client.metrics()
        counters = after["counters"]
        assert counters["build.cache_hits"] + counters["build.cache_misses"] >= (
            counters["build.requests"]
        )
        front_requests = after["front"]["counters"]["front.requests"]
        before_front = before["front"]["counters"].get("front.requests", 0)
        assert front_requests - before_front >= self.THREADS * self.ROUNDS
        assert after["sessions"]["active"] == before["sessions"]["active"]


class TestClientRetrySemantics:
    def test_connection_error_retry_then_success(self):
        """The client retries connection refusals until the server is up."""
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listening yet

        client = ServiceClient(
            f"http://127.0.0.1:{port}", retries=10, backoff_s=0.1,
            max_backoff_s=0.2, timeout=10,
        )
        holder = {}

        def start_later():
            time.sleep(0.5)

            async def main():
                server = AsyncSpannerServer(
                    pool_size=1, pool_mode="thread",
                    service_kwargs={"executor_mode": "serial"},
                )
                await server.start(port=port)
                holder["loop"] = asyncio.get_running_loop()
                holder["stop"] = stop = asyncio.Event()
                await stop.wait()
                await server.shutdown()

            asyncio.run(main())

        thread = threading.Thread(target=start_later, daemon=True)
        thread.start()
        try:
            assert client.healthz()["status"] == "ok"
            assert client.retry_count > 0
        finally:
            if "stop" in holder:
                holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_no_retry_on_client_errors(self, async_server):
        client = ServiceClient(async_server.url, retries=5)
        before = client.retry_count
        with pytest.raises(ClientError) as err:
            client.build("nope", SCENARIO)
        assert err.value.status == 400
        assert client.retry_count == before  # 400s are not retried

    def test_non_idempotent_posts_fail_fast_on_connection_error(self):
        """A lost response after the server applied a POST could hide a
        duplicate; state-mutating calls must not auto-retry connection
        errors, while pure-computation calls still do."""
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listening: every connect is refused

        client = ServiceClient(
            f"http://127.0.0.1:{port}", retries=4, backoff_s=0.01,
            max_backoff_s=0.05, timeout=5,
        )
        with pytest.raises(ClientError) as err:
            client.session_create(SCENARIO)
        assert err.value.status == 0
        assert client.retry_count == 0
        with pytest.raises(ClientError):
            client.deployment_put("dup", SCENARIO)
        assert client.retry_count == 0
        with pytest.raises(ClientError):
            client.session_delete("w0-s1")
        assert client.retry_count == 0
        # The same failure on an idempotent request is retried.
        with pytest.raises(ClientError):
            client.build("udg", SCENARIO)
        assert client.retry_count == 4


class TestFrontCacheInvalidation:
    """Responses derived from a named deployment must never be
    replayed by the front byte-cache: the name is mutable state."""

    def test_dispatch_marks_deployment_scenarios_uncacheable(self, tmp_path):
        service = SpannerService(
            executor_mode="serial", data_dir=str(tmp_path / "ddata")
        )
        try:
            service.deployments_create({"name": "pin", "scenario": TENANTS[0]})
            build_body = json.dumps(
                {"pipeline": "udg", "scenario": {"deployment": "pin"}}
            ).encode()
            first = dispatch(service, "POST", "/build", build_body)
            warm = dispatch(service, "POST", "/build", build_body)
            assert json.loads(warm.encode())["cache"] == "hit"
            assert first.cacheable is False
            assert warm.cacheable is False  # warm hit, still uncacheable
            route = dispatch(service, "POST", "/route", json.dumps({
                "pipeline": "backbone", "scenario": {"deployment": "pin"},
                "source": 0, "target": 5,
            }).encode())
            assert route.status == 200 and route.cacheable is False
            batch = dispatch(service, "POST", "/route_batch", json.dumps({
                "pipeline": "backbone", "scenario": {"deployment": "pin"},
                "count": 3, "seed": 1,
            }).encode())
            assert batch.status == 200 and batch.cacheable is False
            # Explicit scenarios are pure functions of the request
            # bytes and keep their cache hint.
            explicit = dispatch(service, "POST", "/route", json.dumps({
                "pipeline": "backbone", "scenario": TENANTS[0],
                "source": 0, "target": 5,
            }).encode())
            assert explicit.status == 200 and explicit.cacheable is True
        finally:
            service.close()

    def test_overwritten_deployment_not_served_stale(self, tmp_path):
        with AsyncBackgroundServer(
            pool_size=2, pool_mode="thread", queue_depth=8,
            service_kwargs={
                "executor_mode": "serial",
                "data_dir": str(tmp_path / "fcdata"),
            },
        ) as server:
            client = ServiceClient(server.url)
            client.deployment_put("mut", TENANTS[0])
            first = client.build("udg", {"deployment": "mut"})
            warm = client.build("udg", {"deployment": "mut"})
            assert warm["cache"] == "hit"
            assert warm["key"] == first["key"]
            # Re-point the name at a different point set; the same
            # request bytes must now produce the new answer.
            client.deployment_put("mut", TENANTS[1])
            after = client.build("udg", {"deployment": "mut"})
            assert after["key"] != first["key"]
            assert after["nodes"] == TENANTS[1]["nodes"]


class TestDeploymentPlacement:
    def test_deployments_pin_to_worker_zero(self):
        """All /deployments traffic lands on worker 0 — the store's
        single writer — regardless of payload or pool size."""
        server = AsyncSpannerServer(pool_size=4, pool_mode="thread")
        body = json.dumps({"name": "n", "scenario": SCENARIO}).encode()
        assert server._pick_worker("POST", "/deployments", body) == 0
        assert server._pick_worker("GET", "/deployments", None) == 0
        assert server._pick_worker("GET", "/deployments/some-name", None) == 0
        assert server._pick_worker("DELETE", "/deployments/some-name", None) == 0


class TestStreamWorkerFailure:
    """A worker dying mid-stream delivers a terminal "json" failure
    message; the streaming loops must treat it as end-of-stream
    instead of waiting forever for an "end" that never comes."""

    def test_respond_terminates_on_failure_message(self):
        server = AsyncSpannerServer(pool_size=1, pool_mode="thread")

        class FakeWriter:
            def __init__(self):
                self.data = bytearray()

            def write(self, chunk):
                self.data.extend(chunk)

            async def drain(self):
                return None

        async def scenario():
            messages = asyncio.Queue()
            messages.put_nowait((7, "stream", 200, "text/event-stream"))
            messages.put_nowait((7, "frame", b"event: start\ndata: {}\n\n"))
            messages.put_nowait(
                (7, "json", 500, b'{"error": "worker connection lost"}', False)
            )

            async def fake_call(worker, method, path, raw_body):
                return messages

            server._call_worker = fake_call
            writer = FakeWriter()
            result = await asyncio.wait_for(
                server._respond(writer, "POST", "/build_stream", b"{}", True),
                timeout=10.0,
            )
            return result, bytes(writer.data)

        result, written = asyncio.run(scenario())
        assert result is False  # the truncated stream closes the connection
        assert b"event: start" in written

    def test_drain_stream_stops_on_failure_message(self):
        async def scenario():
            messages = asyncio.Queue()
            messages.put_nowait((3, "frame", b"data: x\n\n"))
            messages.put_nowait((3, "json", 500, b'{"error": "lost"}', False))
            await asyncio.wait_for(
                AsyncSpannerServer._drain_stream(messages), timeout=10.0
            )

        asyncio.run(scenario())


class TestParserHardening:
    @staticmethod
    def raw_bytes(url, data, timeout=60):
        """Send raw bytes and collect the response until close."""
        host, port = url.split("//", 1)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=timeout) as sock:
            sock.sendall(data)
            response = b""
            while True:
                got = sock.recv(65536)
                if not got:
                    break
                response += got
        return response

    def test_chunked_transfer_encoding_rejected(self, async_server):
        """Chunked bodies are not parsed; accepting one would desync
        the keep-alive stream, so the request is refused outright."""
        response = self.raw_bytes(
            async_server.url,
            b"POST /build HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 501")
        assert b"Connection: close" in response

    def test_malformed_content_length_rejected(self, async_server):
        response = self.raw_bytes(
            async_server.url,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in response

    def test_overlong_request_line_414(self, async_server):
        response = self.raw_bytes(
            async_server.url,
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 414")
        assert b"Connection: close" in response

    def test_overlong_header_line_431(self, async_server):
        response = self.raw_bytes(
            async_server.url,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            b"X-Big: " + b"b" * 70_000 + b"\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 431")
        assert b"Connection: close" in response

    def test_too_many_headers_431(self, async_server):
        def request(count):
            headers = b"".join(b"X-H%d: v\r\n" % i for i in range(count))
            return self.raw_bytes(
                async_server.url,
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                + headers + b"\r\n",
            )

        assert request(99).startswith(b"HTTP/1.1 200")  # 100 with Connection
        response = request(100)
        assert response.startswith(b"HTTP/1.1 431")
        assert b"Connection: close" in response

    def test_http10_keep_alive_only_on_request(self, async_server):
        # No Connection header: HTTP/1.0 closes after one response.
        response = self.raw_bytes(
            async_server.url, b"GET /healthz HTTP/1.0\r\n\r\n", timeout=10
        )
        assert response.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in response
        # An explicit keep-alive holds the connection for a second request.
        response = self.raw_bytes(
            async_server.url,
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /healthz HTTP/1.0\r\n\r\n",
            timeout=10,
        )
        assert response.count(b"HTTP/1.1 200") == 2
        assert b"Connection: keep-alive" in response


class TestMetricsAggregation:
    def test_pooled_hit_rate_is_recomputed(self):
        """Two workers, six misses then six hits: the merged hit rate
        is 0.5, not the sum of the per-worker rates."""
        scenarios = [{**SCENARIO, "seed": seed} for seed in range(6)]
        with AsyncBackgroundServer(
            pool_size=2, pool_mode="thread",
            service_kwargs={"executor_mode": "serial"},
        ) as server:
            owners = {
                server.server._pick_worker(
                    "POST", "/build",
                    json.dumps({"pipeline": "udg", "scenario": s}).encode(),
                )
                for s in scenarios
            }
            assert owners == {0, 1}  # both workers hold cache traffic
            client = ServiceClient(server.url, timeout=120)
            for _ in range(2):
                for scenario in scenarios:
                    client.build("udg", scenario)
            cache = client.metrics()["cache"]
        assert (cache["hits"], cache["misses"]) == (6, 6)
        assert cache["hit_rate"] == 0.5
