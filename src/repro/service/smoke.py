"""Service smoke check: ``python -m repro.service.smoke``.

Boots the HTTP service in-process (:class:`AsyncBackgroundServer`, two
thread-mode workers, so ``GET /metrics`` takes the merged multi-worker
path), drives it through :class:`~repro.service.client.ServiceClient`
— the same code path real consumers use, unlike a curl retry loop —
and asserts the serving contract end to end:

* ``GET /healthz`` reports ``ok`` and ``GET /pipelines`` lists both
  the serial and the ``sharded:*`` families;
* ``POST /build`` constructs a backbone and answers the repeat request
  from cache;
* a ``sharded:*`` build returns the same edge count as its serial
  counterpart (the halo-exact stitch, exercised over HTTP);
* ``POST /route`` routes on the cached backbone;
* ``GET /metrics`` shows the build counters and ``sharding.*`` stats.

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

#: Deterministic scenario small enough for CI but big enough to tile.
SCENARIO = {"nodes": 120, "side": 110.0, "radius": 25.0, "seed": 2002}


def _check(name: str, ok: bool, detail: str = "") -> None:
    if not ok:
        raise AssertionError(f"{name}: {detail}" if detail else name)
    print(f"ok  {name}" + (f" ({detail})" if detail else ""))


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
        for required in ("udg", "ldel", "backbone", "sharded:ldel", "sharded:backbone"):
            _check(f"pipeline listed: {required}", required in names)

        built = client.build("backbone", SCENARIO)
        _check("build backbone", built["cache"] == "miss", f"edges={built['edges']}")
        again = client.build("backbone", SCENARIO)
        _check("build cache hit", again["cache"] == "hit")
        _check("build deterministic", again["edges"] == built["edges"])

        serial = client.build("ldel", SCENARIO)
        sharded = client.build("sharded:ldel", SCENARIO, params={"shards": 4})
        _check(
            "sharded stitch matches serial",
            sharded["edges"] == serial["edges"],
            f"edges={sharded['edges']} tiles={sharded['sharding']['tiles']}",
        )

        routed = client.route(0, built["nodes"] - 1, key=built["key"])
        _check("route on cached backbone", routed.get("delivered") is True,
               f"hops={routed.get('hops')}")

        events = [name for name, _ in client.build("ldel", SCENARIO, stream=True)]
        _check("build_stream events",
               events[0] == "start" and events[-1] == "end" and "result" in events,
               "->".join(events[:3]))

        metrics = client.metrics()
        counters = metrics.get("counters", {})
        _check("metrics: build counters", counters.get("build.requests", 0) >= 4)
        sharding_counters = [k for k in counters if k.startswith("sharding.")]
        _check("metrics: sharding.* counters", bool(sharding_counters),
               ", ".join(sorted(sharding_counters)[:4]))
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
