"""Service smoke check: ``python -m repro.service.smoke``.

Boots the HTTP service in-process (:class:`AsyncBackgroundServer`, two
thread-mode workers, so ``GET /metrics`` takes the merged multi-worker
path), drives it through :class:`~repro.service.client.ServiceClient`
— the same code path real consumers use, unlike a curl retry loop —
and asserts the serving contract end to end:

* ``GET /healthz`` reports ``ok`` and ``GET /pipelines`` lists the
  ``udg``, ``ldel`` and ``backbone`` pipelines;
* ``POST /build`` constructs a backbone and answers the repeat request
  from cache with the same body apart from the ``cache`` marker;
* an unknown pipeline (``sharded:ldel``) answers 400 and names the
  known pipelines;
* a quasi-UDG corpus entry on a serial ``POST /build`` answers 400
  instead of silently building the sharp disk graph;
* ``POST /route`` routes on the cached backbone;
* an incremental session takes a join + leave batch that stays
  bit-identical to a rebuild (``verify=true``), answers 400 to a
  batch naming an unknown id, and still verifies on the next step;
* ``GET /metrics`` shows the build counters and the
  ``backbone.phase.cds`` span latency.

Exit status 0 on success, 1 with a one-line diagnosis on the first
failed check — CI runs this as a blocking job.

``--url http://host:port`` runs the same checks against an already
running server instead of booting one (``python -m repro serve`` +
``python -m repro.service.smoke --url ...``); ``--wait`` bounds how
long to wait for it to come up.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from repro.service.aserver import AsyncBackgroundServer
from repro.service.client import ClientError, ServiceClient

#: Deterministic scenario small enough for CI.
SCENARIO = {"nodes": 120, "side": 110.0, "radius": 25.0, "seed": 2002}


def _check(name: str, ok: bool, detail: str = "") -> None:
    if not ok:
        raise AssertionError(f"{name}: {detail}" if detail else name)
    print(f"ok  {name}" + (f" ({detail})" if detail else ""))


def _refusal(call) -> "ClientError | None":
    """The :class:`ClientError` ``call`` raises, or ``None`` if it succeeds."""
    try:
        call()
    except ClientError as exc:
        return exc
    return None


def wait_ready(url: str, timeout: float = 30.0) -> None:
    """Poll ``/healthz`` until the server answers or the wait expires."""
    probe = ServiceClient(url, timeout=5.0, retries=0)
    deadline = time.monotonic() + timeout
    while True:
        try:
            if probe.healthz().get("status") == "ok":
                return
        except (ClientError, OSError):
            pass
        if time.monotonic() >= deadline:
            raise AssertionError(f"server at {url} not ready after {timeout}s")
        time.sleep(0.25)


def run_smoke(url: "str | None" = None, wait: float = 30.0) -> int:
    """Run every check; against ``url`` if given, else an in-process
    server.  Returns 0 on success."""
    with contextlib.ExitStack() as stack:
        if url is None:
            url = stack.enter_context(
                AsyncBackgroundServer(pool_size=2, pool_mode="thread")
            ).url
        else:
            wait_ready(url, timeout=wait)
        client = ServiceClient(url, timeout=120.0)

        health = client.healthz()
        _check("healthz", health.get("status") == "ok", str(health))

        names = {p["name"] for p in client.pipelines()["pipelines"]}
        for required in ("udg", "ldel", "backbone"):
            _check(f"pipeline listed: {required}", required in names)

        built = client.build("backbone", SCENARIO)
        _check("build backbone", built["cache"] == "miss", f"edges={built['edges']}")
        again = client.build("backbone", SCENARIO)
        _check("build cache hit", again["cache"] == "hit")
        _check(
            "build deterministic",
            {k: v for k, v in again.items() if k != "cache"}
            == {k: v for k, v in built.items() if k != "cache"},
        )

        refused = _refusal(lambda: client.build("sharded:ldel", SCENARIO))
        _check("unknown pipeline sharded:ldel refused",
               refused is not None and refused.status == 400
               and "known: " in refused.message and "backbone" in refused.message,
               str(refused))

        refused = _refusal(lambda: client.build("ldel", {"corpus": "quasi-field"}))
        _check("quasi deployment refused",
               refused is not None and refused.status == 400
               and "quasi-UDG" in refused.message, str(refused))

        routed = client.route(0, built["nodes"] - 1, key=built["key"])
        _check("route on cached backbone", routed.get("delivered") is True,
               f"hops={routed.get('hops')}")

        opened = client.session_create(SCENARIO)
        sid, nodes = opened["session"], opened["nodes"]
        churn = client.session_step(
            sid,
            [{"kind": "join", "x": 55.0, "y": 55.0}, {"kind": "leave", "node": 7}],
            verify=True,
        )
        _check("session churn step verified",
               churn.get("verified") is True and churn["node_count"] == nodes,
               f"role_changes={churn.get('role_changes')}")
        move = {"kind": "move", "node": 3, "x": 50.0, "y": 50.0}
        refused = _refusal(
            lambda: client.session_step(sid, [move, {**move, "node": nodes + 100}])
        )
        _check("session batch with unknown id refused",
               refused is not None and refused.status == 400, str(refused))
        after = client.session_step(sid, [move], verify=True)
        _check("session intact after the refused batch",
               after.get("verified") is True and after["step"] == 2,
               f"step={after.get('step')}")
        client.session_delete(sid)

        events = [name for name, _ in client.build("ldel", SCENARIO, stream=True)]
        _check("build_stream events",
               events[0] == "start" and events[-1] == "end" and "result" in events,
               "->".join(events[:3]))

        metrics = client.metrics()
        counters = metrics.get("counters", {})
        _check("metrics: build counters", counters.get("build.requests", 0) >= 4)
        latency = metrics.get("latency", {})
        _check("metrics: backbone.phase.cds latency",
               latency.get("backbone.phase.cds", {}).get("count", 0) >= 1)
        cache = metrics.get("cache", {})
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        _check("metrics: cache hit_rate",
               lookups > 0 and cache.get("hit_rate") == cache.get("hits", 0) / lookups,
               f"hit_rate={cache.get('hit_rate')} over {lookups} lookups")
    print("service smoke: all checks passed")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", default=None,
        help="run against this server instead of booting one in-process",
    )
    parser.add_argument(
        "--wait", type=float, default=30.0,
        help="seconds to wait for --url to become healthy",
    )
    args = parser.parse_args(argv)
    try:
        return run_smoke(url=args.url, wait=args.wait)
    except AssertionError as exc:
        print(f"service smoke FAILED — {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
