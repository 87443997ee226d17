"""The serve-mixed workload: the async service under a seeded request mix.

The service runs as ``python -m repro serve --async`` with one pool
worker per core; this process is the only load generator, one asyncio
loop holding one keep-alive connection per core.  It imports nothing
from the library under test: it sends generated points, pairs and
events, and reads ``GET /metrics``.

The phase is open loop first (seeded Poisson arrivals at a fixed
rate, each request timed from when it was due, so a stall shows up in
the requests queued behind it), then closed loop on the same
connections to find the throughput the mix sustains.  Timings here
are wall time: a reference timed in this process while the service is
idle (:class:`~common.Pace`) tracked the service's speed too loosely,
and doubled the spread of the figures between runs (README.md).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

from common import Digest, WorkloadResult
from inputs import (
    RADIUS,
    Waypoints,
    connected_uniform_points,
    hotspot_points,
    random_pairs,
    stream,
)

ROOT = Path(__file__).resolve().parents[2]

#: Open-loop arrivals per second.  The mix's closed-loop capacity with
#: two pool workers on a 2-core box is 14-37 req/s depending on how busy
#: the host's other tenants keep it (see README.md).  At 8 req/s the
#: queue cannot grow even at the low end, and few requests wait behind a
#: build: when about half of a class waits, its median flips between the
#: waiting and the served-at-once cases from run to run.
OPEN_LOOP_RATE = 8.0
#: Share of the phase run open loop; the rest measures closed-loop capacity.
OPEN_SHARE = 0.6
#: Request classes and their shares of the traffic.
MIX = (("hit", 0.40), ("miss", 0.25), ("route", 0.25), ("step", 0.10))
#: Traffic is dealt in blocks of this many requests with exact mix counts.
MIX_BLOCK = 20
#: The digest covers the responses of this many leading open-loop blocks,
#: which are the same for any phase length.  Session steps are left out:
#: two steps on one session can reach its worker in either order.
DIGEST_BLOCKS = 2
HOT_SCENARIOS = 4
SESSIONS = 2
#: Closed-loop requests prepared per second of the closed phase.
CLOSED_HEADROOM_RPS = 60
#: Closed-loop responses slower than this do not count toward capacity.
OK_LATENCY_S = 2.0
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
#: Fields of a /build response that are pure functions of the request.
BUILD_FIELDS = ("key", "nodes", "edges", "dominators", "connectors", "backbone_nodes")


def _body(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _children(pid: int) -> list[int]:
    """Live child processes of ``pid`` (the pool workers of the server)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Server:
    """One ``repro serve --async`` process on an ephemeral port."""

    def __init__(self, workers: int) -> None:
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONUNBUFFERED="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--async",
             "--port", "0", "--pool-workers", str(workers)],
            cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        """The port from the banner ``... on http://127.0.0.1:PORT (...)``."""
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def workers(self) -> list[int]:
        return _children(self.process.pid)

    def peak_rss_mb(self) -> float:
        """Sum of the front end's and the workers' peak resident sets."""
        pids = [self.process.pid, *self.workers()]
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT (graceful drain), then make sure every worker is gone."""
        workers = self.workers() if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()
        deadline = time.monotonic() + 10
        for pid in workers:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                while _alive(pid):
                    time.sleep(0.05)


class Connection:
    """One keep-alive HTTP/1.1 connection; responses carry Content-Length."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> tuple[int, bytes]:
        """One request; on any failure the socket is dropped and reopened."""
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body or b""), REQUEST_TIMEOUT_S
            )
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError):
            await self.close()
            raise

    async def _exchange(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        assert self.reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        writer, self.writer, self.reader = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _call(conn: Connection, method: str, path: str,
                body: Optional[bytes] = None) -> Any:
    """A set-up or bookkeeping request that must succeed."""
    status, reply = await conn.request(method, path, body)
    if status != 200:
        raise RuntimeError(f"{method} {path} answered {status}: {reply[:200]!r}")
    return json.loads(reply), reply


@dataclass
class Request:
    cls: str
    method: str
    path: str
    body: bytes
    #: hit: the primed response bytes; route: the pair count; else None.
    expect: Any = None
    due: float = 0.0


@dataclass
class Outcome:
    request: Request
    started: float
    sent: float
    done: float
    status: int
    reply: bytes


class Traffic:
    """The seeded request stream over the primed state of one server."""

    def __init__(self, seed: int, hot_points: list, primed: list[bytes],
                 sessions: list[str], *, miss_n: int, route_pairs: int) -> None:
        self.seed = seed
        self.hot_points = hot_points
        self.primed = primed
        self.keys = [json.loads(body)["key"] for body in primed]
        self.sessions = sessions
        self.miss_n = miss_n
        self.route_pairs = route_pairs
        self.picks = stream(seed, "serve-picks")
        self.classes = stream(seed, "serve-classes")
        self.motion = [
            Waypoints(hot_points[k], stream(seed, "serve-motion", k))
            for k in range(len(sessions))
        ]
        # Each session moves distinct nodes (until all have moved once),
        # so what a step does depends little on the order concurrent
        # steps reach the worker.
        self.movers = []
        for k in range(len(sessions)):
            order = list(range(len(hot_points[k])))
            stream(seed, "serve-movers", k).shuffle(order)
            self.movers.append(order)
        self.moved = [0] * len(sessions)
        self.deck: list[str] = []
        self.count = 0

    def block(self) -> list[str]:
        """``MIX_BLOCK`` classes with exact mix counts, shuffled.

        Dealing from these blocks makes every stretch of traffic carry
        the same share of expensive requests whatever the seed.
        """
        deck = [c for c, share in MIX for _ in range(round(share * MIX_BLOCK))]
        self.classes.shuffle(deck)
        return deck

    def next(self, cls: Optional[str] = None) -> Request:
        """The next request: of class ``cls``, or dealt from the mix."""
        if cls is None:
            if not self.deck:
                self.deck = self.block()
            cls = self.deck.pop()
        j = self.count
        self.count += 1
        if cls == "hit":
            h = self.picks.randrange(len(self.primed))
            return Request("hit", "POST", "/build", build_body(self.hot_points[h]),
                           self.primed[h])
        if cls == "miss":
            points = hotspot_points(self.miss_n, stream(self.seed, "serve-miss", j))
            return Request("miss", "POST", "/build", build_body(points))
        if cls == "route":
            h = self.picks.randrange(len(self.keys))
            pairs = random_pairs(len(self.hot_points[h]), self.route_pairs,
                                 stream(self.seed, "serve-route", j))
            return Request("route", "POST", "/route_batch", _body(
                {"key": self.keys[h], "mode": "gpsr", "pairs": pairs}
            ), self.route_pairs)
        k = self.picks.randrange(len(self.sessions))
        mover = self.movers[k][self.moved[k] % len(self.movers[k])]
        self.moved[k] += 1
        x, y = self.motion[k].move(mover)
        event = {"kind": "move", "node": mover, "x": x, "y": y}
        return Request("step", "POST", f"/session/{self.sessions[k]}/step",
                       _body({"events": [event]}))

    def schedule(self, seconds: float, rate: float) -> list[Request]:
        """The open-loop plan: about ``rate * seconds`` requests.

        One block of classes arrives every ``MIX_BLOCK / rate`` seconds
        at sorted uniform times within its span -- a Poisson process
        conditioned on its count -- so seeds vary the order and the
        bursts, not how much work arrives.  A longer phase only appends
        blocks, and the plan always holds the ``DIGEST_BLOCKS``.
        """
        arrivals = stream(self.seed, "serve-arrivals")
        span = MIX_BLOCK / rate
        plan = []
        for b in range(max(DIGEST_BLOCKS, round(seconds / span))):
            deck = self.block()
            for due, cls in zip(sorted(arrivals.uniform(0.0, span) for _ in deck), deck):
                request = self.next(cls)
                request.due = b * span + due
                plan.append(request)
        return plan


def build_body(points: list) -> bytes:
    """A ``/build`` of ``points`` on the routable ``backbone`` pipeline."""
    return _body({"pipeline": "backbone", "scenario": {"points": points, "radius": RADIUS}})


async def _prime(port: int, hot_points: list, seed: int,
                 route_pairs: int) -> tuple[list[bytes], list[str]]:
    """Health, hot builds (miss then cached hit), router warm-up, sessions."""
    conn = Connection(port)
    try:
        await _call(conn, "GET", "/healthz")
        primed = []
        for points in hot_points:
            await _call(conn, "POST", "/build", build_body(points))
            reply, raw = await _call(conn, "POST", "/build", build_body(points))
            primed.append(raw)
            pairs = random_pairs(len(points), route_pairs, stream(seed, "serve-warmup"))
            await _call(conn, "POST", "/route_batch", _body(
                {"key": reply["key"], "mode": "gpsr", "pairs": pairs}
            ))
        sessions = []
        for points in hot_points[:SESSIONS]:
            reply, _ = await _call(conn, "POST", "/session", _body(
                {"scenario": {"points": points, "radius": RADIUS}}
            ))
            sessions.append(reply["session"])
        return primed, sessions
    finally:
        await conn.close()


async def _send(conn: Connection, request: Request, started: float) -> Outcome:
    sent = time.perf_counter()
    try:
        status, reply = await conn.request(request.method, request.path, request.body)
    except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError) as exc:
        status, reply = 0, repr(exc).encode()
    return Outcome(request, started, sent, time.perf_counter(), status, reply)


async def _open_loop(conns: list[Connection], plan: list[Request]) -> list[Outcome]:
    """Send each request when due on the first free connection."""
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    origin = time.perf_counter()

    async def feed() -> None:
        for request in plan:
            delay = origin + request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(request)
        for _ in conns:
            queue.put_nowait(None)

    async def drain(conn: Connection) -> None:
        while (request := await queue.get()) is not None:
            outcomes.append(await _send(conn, request, origin + request.due))

    await asyncio.gather(feed(), *(drain(conn) for conn in conns))
    return outcomes


async def _closed_loop(conns: list[Connection], requests: Iterator[Request],
                       seconds: float) -> tuple[list[Outcome], float]:
    """Each connection sends its next request as soon as the last returns."""
    outcomes: list[Outcome] = []
    origin = time.perf_counter()
    deadline = origin + seconds

    async def client(conn: Connection) -> None:
        while time.perf_counter() < deadline:
            outcomes.append(await _send(conn, next(requests), time.perf_counter()))

    await asyncio.gather(*(client(conn) for conn in conns))
    return outcomes, time.perf_counter() - origin


def _problem(outcome: Outcome) -> Optional[str]:
    request = outcome.request
    if outcome.status != 200:
        return f"{request.cls} {request.path}: HTTP {outcome.status}"
    if request.cls == "hit" and outcome.reply != request.expect:
        return "hit body differs from the primed response"
    if request.cls == "route":
        delivered = json.loads(outcome.reply)["delivered"]
        if delivered != request.expect:
            return f"route_batch delivered {delivered} of {request.expect}"
    return None


def _digest_entry(outcome: Outcome) -> Any:
    reply = json.loads(outcome.reply)
    if outcome.request.cls in ("hit", "miss"):
        return [outcome.request.cls, {k: reply.get(k) for k in BUILD_FIELDS}]
    return ["route", [reply["pairs"], reply["delivered"], reply["hops_avg"]]]


def mix_p50_ms(latencies: dict[str, list[float]]) -> float:
    """Geometric mean of the class medians (seconds in, ms out).

    A class's relative change moves it by the same amount whether the
    class takes 1 ms or 140 ms: doubling any one class's median raises
    it by 2 ** (1 / classes).  A class with no successful request is
    left out; its failures already fail the run.
    """
    medians = [statistics.median(values) for values in latencies.values() if values]
    return statistics.geometric_mean(medians) * 1000.0 if medians else 0.0


def _series(snapshot: dict, name: str) -> tuple[int, float]:
    series = snapshot.get("latency", {}).get(name, {})
    return series.get("count", 0), series.get("sum_s", 0.0)


def _worker_ms(before: dict, after: dict, name: str) -> float:
    """Mean worker busy time per request of one latency series, in ms."""
    count_0, sum_0 = _series(before, name)
    count_1, sum_1 = _series(after, name)
    calls = count_1 - count_0
    return (sum_1 - sum_0) / calls * 1000.0 if calls else 0.0


def _front_counter(snapshot: dict, name: str) -> int:
    return snapshot.get("front", {}).get("counters", {}).get(name, 0)


async def _phase(server: Server, workers: int, traffic: Traffic, plan: list[Request],
                 closed_s: float, trace: bool) -> dict:
    conns = [Connection(server.port) for _ in range(workers)]
    bookkeeping = Connection(server.port)
    before: dict = {}
    after: dict = {}
    metrics_s = 0.0
    try:
        if trace:
            started = time.perf_counter()
            before, _ = await _call(bookkeeping, "GET", "/metrics")
            metrics_s += time.perf_counter() - started
        phase_started = time.perf_counter()
        open_outcomes = await _open_loop(conns, plan)
        open_s = time.perf_counter() - phase_started
        # Worker caches grow with every miss served; the open-loop
        # request set is fixed, so peak memory is read here.
        rss_mb = server.peak_rss_mb()
        # Built before the clock starts, so request generation does not
        # compete with the service for the cores; more than the highest
        # capacity seen, before falling back to generating on demand.
        ready = [traffic.next() for _ in range(int(CLOSED_HEADROOM_RPS * closed_s))]
        requests = itertools.chain(ready, iter(traffic.next, None))
        closed_outcomes, closed_s = await _closed_loop(conns, requests, closed_s)
        if trace:
            started = time.perf_counter()
            after, _ = await _call(bookkeeping, "GET", "/metrics")
            metrics_s += time.perf_counter() - started
    finally:
        for conn in [*conns, bookkeeping]:
            await conn.close()
    return {
        "open": open_outcomes, "closed": closed_outcomes, "closed_s": closed_s,
        "phase_s": open_s + closed_s,
        "before": before, "after": after, "metrics_s": metrics_s,
        "rss_mb": rss_mb,
    }


def serve_mixed(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setup_reps: int = 3,
    hot_n: int = 500,
    miss_n: int = 500,
    route_pairs: int = 2000,
) -> WorkloadResult:
    """Boot, prime and load the service; check every response.

    Set-up (repeated ``setup_reps`` times, each on a fresh server, the
    last one kept) is boot to ``/healthz``, two builds per hot scenario
    (a miss, then the cached hit whose bytes the front cache replays),
    one route batch per hot key and the session openings.
    """
    workers = len(os.sched_getaffinity(0))  # nproc
    result = WorkloadResult("serve-mixed")
    hot_points = [
        connected_uniform_points(hot_n, seed, f"serve-hot-{h}")
        for h in range(HOT_SCENARIOS)
    ]
    setups = []
    server: Optional[Server] = None
    try:
        for _ in range(setup_reps):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(workers)
            primed, sessions = asyncio.run(
                _prime(server.port, hot_points, seed, route_pairs)
            )
            setups.append(time.perf_counter() - started)
        assert server is not None
        traffic = Traffic(seed, hot_points, primed, sessions,
                          miss_n=miss_n, route_pairs=route_pairs)
        plan = traffic.schedule(seconds * OPEN_SHARE, OPEN_LOOP_RATE)
        phase = asyncio.run(_phase(
            server, workers, traffic, plan, seconds * (1.0 - OPEN_SHARE), trace
        ))
    finally:
        if server is not None:
            server.stop()

    digest = Digest()
    latencies: dict[str, list[float]] = {cls: [] for cls, _ in MIX}
    # Schedule order, not completion order, so the digest repeats.
    ordered = sorted(phase["open"], key=lambda o: o.request.due)
    for k, outcome in enumerate(ordered):
        problem = _problem(outcome)
        result.check(problem is None, problem or "")
        if problem is None:
            latencies[outcome.request.cls].append(outcome.done - outcome.started)
            if k < DIGEST_BLOCKS * MIX_BLOCK and outcome.request.cls != "step":
                digest.add(_digest_entry(outcome))
    capacity = 0
    for outcome in phase["closed"]:
        problem = _problem(outcome)
        result.check(problem is None, problem or "")
        capacity += problem is None and outcome.done - outcome.started < OK_LATENCY_S
    result.digest = digest.hexdigest()

    max_rps = capacity / phase["closed_s"]
    result.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (mix_p50_ms(latencies), "ms"),
        "ops_per_s": (max_rps, "1/s"),
        "peak_rss_mb": (phase["rss_mb"], "MB"),
    }
    for cls, values in latencies.items():
        result.timing(f"serve_{cls}", values, "ms")
    result.details["serve_max_rps"] = (max_rps, "req/s")
    if trace:
        before, after = phase["before"], phase["after"]
        late = [o.sent - o.started for o in phase["open"]]
        sent = len(phase["open"]) + len(phase["closed"])
        # Mean worker time in each class's request handler; hits never
        # leave the front end.
        worker_ms = {
            "hit": 0.0,
            "miss": _worker_ms(before, after, "build.request"),
            "route": _worker_ms(before, after, "routing.request"),
            "step": _worker_ms(before, after, "incremental.step"),
        }
        result.layers.update({
            "service.front.cache_hit_ratio": (
                (_front_counter(after, "front.cache_hits")
                 - _front_counter(before, "front.cache_hits")) / sent, "ratio"
            ),
            "service.front.throttled": (
                float(_front_counter(after, "front.throttled")
                      - _front_counter(before, "front.throttled")), "count"
            ),
            "service.server.build_construct_ms": (
                _worker_ms(before, after, "build.construct"), "ms"
            ),
            "service.server.route_batch_ms": (worker_ms["route"], "ms"),
            "service.server.session_step_ms": (worker_ms["step"], "ms"),
            "service.loadgen.late_p50_ms": (statistics.median(late) * 1000.0, "ms"),
            "service.loadgen.late_max_ms": (max(late) * 1000.0, "ms"),
            "trace.overhead_share": (phase["metrics_s"] / phase["phase_s"], "share"),
        })
        # Send-to-response time over both phases (the window the metric
        # deltas cover) minus the worker's share: parsing, queueing for a
        # worker, the pipe and serialization.
        for cls in worker_ms:
            spans = [o.done - o.sent for o in phase["open"] + phase["closed"]
                     if o.request.cls == cls and o.status == 200]
            if spans:
                result.layers[f"service.transport_ms.{cls}"] = (
                    statistics.mean(spans) * 1000.0 - worker_ms[cls], "ms"
                )
    return result
