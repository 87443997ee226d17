"""The spanner construction service: the transport-free application object.

:class:`SpannerService` owns the result cache, the metrics registry,
and the batch executor configuration, and exposes one method per
endpoint.  It knows nothing of HTTP: :mod:`repro.service.dispatch`
maps ``(method, path, body)`` onto these methods, and the asyncio
front end of :mod:`repro.service.aserver` carries the requests to
worker-owned instances.  Tests drive the service object directly and
only the integration tests pay for sockets.

Endpoints:

* ``POST /build``  — build one topology (through the cache);
* ``POST /batch``  — fan many build requests across the executor;
* ``POST /route``  — greedy/GPSR routing on a cached backbone build;
* ``POST /route_batch`` — many (source, target) queries at once through
  the vectorized route engine, chunked, with optional failure replay;
* ``POST /build_stream`` — the same build as an SSE stream: a
  ``start`` event, then the full result (or an ``error``) and ``end``;
* ``POST /session`` — open a live incremental maintenance session;
* ``POST /session/{id}/step`` — apply one event batch, stream the
  topology delta (edges added/removed) back;
* ``POST /session/{id}/stream`` — many event batches in, one SSE
  ``delta`` event out per batch as it is computed;
* ``GET /session/{id}`` — session summary and cumulative counters;
* ``DELETE /session/{id}`` — close a session;
* ``POST/GET/DELETE /deployments[/{name}]`` — the persistent named
  deployment store (requires ``--data-dir``);
* ``GET /pipelines`` — the registry listing with parameter schemas;
* ``GET /invariants`` — the declarative invariant catalog, the corpus
  recipes it runs against, and the last in-process validation summary;
* ``POST /validate`` — run the invariant matrix (corpus / pipeline /
  invariant filters) and return the pass/fail document;
* ``GET /metrics`` — counters, latency percentiles, cache accounting,
  and the ``incremental.*`` maintenance totals;
* ``GET /healthz`` — liveness.

Run it with ``python -m repro serve``.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Any, Mapping, Optional

from repro import obs
from repro.core.route_engine import (
    DEFAULT_CHUNK,
    REASON_STRINGS,
    BackboneRouter,
    replay_failures,
)
from repro.incremental.engine import IncrementalMaintainer, StepReport
from repro.incremental.events import InvalidBatch, parse_events
from repro.incremental.session import SUMMED_FIELDS, IncrementalSession
from repro.routing.backbone_routing import backbone_route
from repro.service.cache import ResultCache, scenario_key
from repro.service.executor import MODES, global_tracker, run_batch
from repro.service.metrics import MetricsRegistry
from repro.service.registry import (
    BuildProduct,
    RegistryError,
    available_pipelines,
    build_scenario,
    get_pipeline,
    resolve_scenario,
)
from repro.service.store import DeploymentStore, StoreError
from repro.workloads.generators import QuasiDeployment

#: Route traversal modes accepted by ``POST /route``.
ROUTE_MODES = ("gpsr", "greedy")

#: Backbone traversal modes accepted by ``POST /route_batch``
#: (``shortest`` answers cores with true Dijkstra shortest paths).
BATCH_ROUTE_MODES = BackboneRouter.MODES

#: Most per-pair paths one ``POST /route_batch`` response will inline
#: (aggregates are unlimited; explicit paths are a debugging aid).
MAX_BATCH_PATHS = 1024

#: Most pairs one ``POST /route_batch`` request may route (the 1M-pair
#: regime fits; anything past this belongs in the offline bench).
MAX_BATCH_PAIRS = 5_000_000

#: Cached per-build-key batch routers kept on the service (each holds
#: CSR snapshots, angle tables, and the per-mode core-route memo).
_ROUTER_CACHE_ENTRIES = 32


class ServiceError(Exception):
    """A request-level failure with an HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class SpannerService:
    """The serving layer: cache + registry + executor + metrics."""

    def __init__(
        self,
        *,
        cache_size: int = 256,
        cache_dir: Optional[str] = None,
        executor_mode: str = "process",
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = 120.0,
        data_dir: Optional[str] = None,
        worker_id: Optional[int] = None,
    ) -> None:
        if executor_mode not in MODES:
            raise ValueError(f"unknown executor mode {executor_mode!r}")
        #: Persistent state root (``--data-dir``).  When set, the
        #: deployment store lives under it and — unless the caller
        #: chose an explicit ``cache_dir`` — so does the build cache's
        #: disk layer, which is what lets every shared-nothing worker
        #: of the async tier warm key-based lookups any peer built.
        self.data_dir = data_dir
        self.store: Optional[DeploymentStore] = None
        if data_dir is not None:
            self.store = DeploymentStore(data_dir)
            if cache_dir is None:
                cache_dir = os.path.join(data_dir, "cache")
        self.cache = ResultCache(max_entries=cache_size, disk_dir=cache_dir)
        self.metrics = MetricsRegistry()
        #: Garbage collections during recorded work (``/metrics`` ``gc``).
        self.gc_metrics = MetricsRegistry()
        self.executor_mode = executor_mode
        self.max_workers = max_workers
        self.task_timeout = task_timeout
        #: Pool-worker identity (``None`` for a standalone service).
        #: Namespaces session ids (``w3-s1``) so ids minted by
        #: different shared-nothing workers can never collide, and the
        #: async front end can pin session traffic to the owner.
        self.worker_id = worker_id
        #: Live incremental maintenance sessions by id.
        self._sessions: dict[str, IncrementalSession] = {}
        self._sessions_lock = threading.Lock()
        #: Batch routers by build key (CSR snapshots + core-route memo).
        self._routers: dict[str, BackboneRouter] = {}
        self._routers_lock = threading.Lock()
        self._session_seq = 0
        self._closed = False
        #: Summary of the most recent ``POST /validate`` run, shown by
        #: ``GET /invariants`` (None until a validation has run).
        self._last_validation: Optional[dict] = None

    # -- building --------------------------------------------------------

    def _resolve(self, scenario: Any):
        """Resolve a scenario spec, including ``{"deployment": name}``.

        The store form references a named persisted deployment so
        clients stop re-shipping point sets; every other form defers
        to :func:`~repro.service.registry.resolve_scenario`.
        """
        if isinstance(scenario, Mapping) and "deployment" in scenario:
            name = scenario["deployment"]
            if not isinstance(name, str):
                raise ServiceError(400, "'deployment' must be a string name")
            if self.store is None:
                raise ServiceError(
                    400, "no deployment store configured; start with --data-dir"
                )
            try:
                return self.store.get(name)
            except StoreError as exc:
                raise ServiceError(404, str(exc.args[0])) from None
        try:
            return resolve_scenario(scenario)
        except RegistryError as exc:
            raise ServiceError(400, str(exc)) from None

    def _prepare(self, payload: Mapping[str, Any]) -> tuple[str, dict, dict, str]:
        """Validate one build request -> (pipeline, scenario, params, key).

        Scenario resolution happens here (cheap relative to
        construction) so the cache key addresses the *resolved point
        set*: a corpus reference and the same points sent explicitly
        share one cache entry.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        name = payload.get("pipeline")
        if not isinstance(name, str):
            raise ServiceError(400, "missing required field 'pipeline'")
        scenario = payload.get("scenario")
        if scenario is None:
            raise ServiceError(400, "missing required field 'scenario'")
        try:
            spec = get_pipeline(name)
            params = spec.canonicalize(payload.get("params"))
        except RegistryError as exc:
            raise ServiceError(400, str(exc)) from None
        deployment = self._resolve(scenario)
        if isinstance(deployment, QuasiDeployment):
            # Workers and the cache key see bare points and radius, which
            # would silently rebuild the sharp disk graph.
            raise ServiceError(
                400,
                f"pipeline {name!r} is served from points and radius; "
                "quasi-UDG deployments are not supported",
            )
        key = scenario_key(deployment.points, deployment.radius, name, params)
        resolved = {
            "points": [[p.x, p.y] for p in deployment.points],
            "radius": deployment.radius,
            "side": deployment.side,
        }
        return name, resolved, params, key

    def build(self, payload: Mapping[str, Any]) -> dict:
        """``POST /build`` — one construction through the cache."""
        self.metrics.inc("build.requests")
        with self.metrics.timer("build.request"):
            name, scenario, params, key = self._prepare(payload)
            product, hit = self._build_cached(name, scenario, params, key)
        self.metrics.inc("build.cache_hits" if hit else "build.cache_misses")
        response = {"key": key, "params": params, "cache": "hit" if hit else "miss"}
        response.update(product.summary())
        return response

    def _build_cached(
        self, name: str, scenario: dict, params: dict, key: str
    ) -> tuple[BuildProduct, bool]:
        return self.cache.get_or_build(
            key, lambda: self._construct(name, scenario, params)
        )

    def _construct(self, name: str, scenario: dict, params: dict) -> BuildProduct:
        """Build one product under a fresh :func:`repro.obs.recording`
        and fold the record into the metrics."""
        with obs.recording() as record, self.metrics.timer("build.construct"):
            product = build_scenario(name, scenario, params)
        self._fold(record)
        return product

    def _fold(self, record: obs.Record) -> None:
        """One histogram observation per span, one counter bump per count;
        garbage collections go to their own registry (``gc`` section)."""
        for name, seconds in record["spans"]:
            self.metrics.observe(name, seconds)
        self.metrics.merge_counters(record["counts"])
        for name, seconds in record.gc:
            self.gc_metrics.observe(name, seconds)
        if record.gc:
            self.gc_metrics.inc("python.gc.collections", len(record.gc))

    # -- batching --------------------------------------------------------

    def batch(self, payload: Mapping[str, Any]) -> dict:
        """``POST /batch`` — fan build requests across the worker pool.

        Cache hits are answered inline; only misses travel to the
        pool.  Results keep request order.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        requests = payload.get("requests")
        if not isinstance(requests, list) or not requests:
            raise ServiceError(400, "'requests' must be a non-empty list")
        options = payload.get("executor") or {}
        mode = options.get("mode", self.executor_mode)
        if mode not in MODES:
            raise ServiceError(400, f"unknown executor mode {mode!r}")
        max_workers = options.get("max_workers", self.max_workers)
        timeout = options.get("timeout", self.task_timeout)

        self.metrics.inc("batch.requests")
        self.metrics.inc("batch.tasks", len(requests))
        with self.metrics.timer("batch.request"):
            prepared = []
            for i, request in enumerate(requests):
                try:
                    prepared.append(self._prepare(request))
                except ServiceError as exc:
                    prepared.append(exc)

            results: list[Optional[dict]] = [None] * len(requests)
            pending: list[tuple[int, str, dict, dict, str]] = []
            for i, item in enumerate(prepared):
                if isinstance(item, ServiceError):
                    results[i] = {"ok": False, "error": item.message}
                    continue
                name, scenario, params, key = item
                cached = self.cache.get(key)
                if cached is not None:
                    self.metrics.inc("build.cache_hits")
                    results[i] = {
                        "ok": True, "key": key, "cache": "hit",
                        **cached.summary(),
                    }
                else:
                    self.metrics.inc("build.cache_misses")
                    pending.append((i, name, scenario, params, key))

            outcome = None
            if pending:
                outcome = run_batch(
                    [(name, scenario, params) for _, name, scenario, params, _ in pending],
                    _batch_worker,
                    mode=mode,
                    max_workers=max_workers,
                    timeout=timeout,
                    metrics=self.metrics,
                    metric_name="build.construct",
                )
                for (i, name, scenario, params, key), task in zip(
                    pending, outcome.outcomes
                ):
                    if task.ok:
                        product, record = task.value
                        self.cache.put(key, product)
                        self._fold(record)
                        results[i] = {
                            "ok": True, "key": key, "cache": "miss",
                            "elapsed_ms": round(task.duration_s * 1000.0, 3),
                            **product.summary(),
                        }
                    else:
                        self.metrics.inc("batch.task_errors")
                        results[i] = {
                            "ok": False, "error": task.error,
                            "timed_out": task.timed_out,
                        }
        return {
            "tasks": len(requests),
            "succeeded": sum(1 for r in results if r and r.get("ok")),
            "cache_hits": sum(1 for r in results if r and r.get("cache") == "hit"),
            "executor": {
                "mode": outcome.mode if outcome else "inline",
                "workers": outcome.workers if outcome else 0,
            },
            "results": results,
        }

    # -- routing ---------------------------------------------------------

    def route(self, payload: Mapping[str, Any]) -> dict:
        """``POST /route`` — paper-procedure routing on a cached backbone.

        Accepts either ``{"key": <build key>}`` referencing a previous
        routable build, or an inline build request (``pipeline`` +
        ``scenario``), which is served through the cache first.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        self.metrics.inc("route.requests")
        with self.metrics.timer("route.request"):
            key, product = self._resolve_routable(payload)
            try:
                source = int(payload["source"])
                target = int(payload["target"])
            except (KeyError, TypeError, ValueError):
                raise ServiceError(
                    400, "'source' and 'target' must be integer node ids"
                ) from None
            mode = payload.get("mode", "gpsr")
            if mode not in ROUTE_MODES:
                raise ServiceError(400, f"unknown route mode {mode!r}")
            n = product.backbone.udg.node_count
            if not (0 <= source < n and 0 <= target < n):
                raise ServiceError(400, f"source/target must be in [0, {n})")
            result = backbone_route(product.backbone, source, target, mode=mode)
        self.metrics.inc("route.delivered" if result.delivered else "route.failed")
        return {
            "key": key,
            "source": source,
            "target": target,
            "mode": mode,
            **result.as_dict(product.backbone.udg),
        }

    def _resolve_routable(self, payload: Mapping[str, Any]) -> tuple[str, BuildProduct]:
        """Shared ``/route`` + ``/route_batch`` lookup: a routable build.

        Accepts ``{"key": <build key>}`` referencing a cached build, or
        an inline ``pipeline`` + ``scenario`` request served through
        the cache first.
        """
        key = payload.get("key")
        if key is not None:
            product = self.cache.get(key)
            if product is None:
                raise ServiceError(
                    404, f"no cached build under key {key!r}; POST /build first"
                )
        else:
            name, scenario, params, key = self._prepare(payload)
            product, _ = self._build_cached(name, scenario, params, key)
        if product.backbone is None:
            raise ServiceError(
                400,
                f"pipeline {product.pipeline!r} is not routable; use a "
                "backbone pipeline (e.g. 'backbone', 'ldel_icds')",
            )
        return key, product

    def _router_for(self, key: str, product: BuildProduct) -> BackboneRouter:
        """The cached batch router for one build key.

        Routers carry the CSR snapshots, the per-directed-edge angle
        tables, and the per-mode core-route memo, so reusing one across
        requests is what makes repeat batches near-free.
        """
        with self._routers_lock:
            router = self._routers.get(key)
        if router is not None:
            self.metrics.inc("routing.router_cache_hits")
            return router
        self.metrics.inc("routing.router_cache_misses")
        router = BackboneRouter(product.backbone)
        with self._routers_lock:
            if len(self._routers) >= _ROUTER_CACHE_ENTRIES:
                self._routers.clear()
            self._routers[key] = router
        return router

    def route_batch(self, payload: Mapping[str, Any]) -> dict:
        """``POST /route_batch`` — batch routing via the vectorized engine.

        Routes every ``(source, target)`` pair — given explicitly as
        ``pairs`` or sampled with ``count`` (+ ``seed``) — through the
        cached :class:`~repro.core.route_engine.BackboneRouter` for the
        build, advancing all queries in lockstep over CSR snapshots.
        ``mode`` picks the backbone traversal (``gpsr`` / ``greedy`` /
        ``shortest``); ``include_paths`` inlines up to
        :data:`MAX_BATCH_PATHS` explicit paths; ``chunk`` bounds how
        many pairs each engine round holds in memory.  An optional
        ``failure`` object (``node_loss`` / ``link_loss`` / ``seed``)
        switches to failure replay: the batch runs against the degraded
        topology and the response reports delivery rates and the
        stretch of surviving routes instead.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        self.metrics.inc("routing.requests")
        with self.metrics.timer("routing.request"):
            key, product = self._resolve_routable(payload)
            mode = payload.get("mode", "gpsr")
            if mode not in BATCH_ROUTE_MODES:
                raise ServiceError(
                    400,
                    f"unknown route mode {mode!r}; known: {list(BATCH_ROUTE_MODES)}",
                )
            n = product.backbone.udg.node_count
            pairs = self._batch_pairs(payload, n)
            max_hops = payload.get("max_hops")
            if max_hops is not None and (
                isinstance(max_hops, bool)
                or not isinstance(max_hops, int)
                or max_hops < 1
            ):
                raise ServiceError(400, "'max_hops' must be a positive integer")
            failure = payload.get("failure")
            if failure is not None:
                return self._route_batch_failure(
                    key, product, pairs, mode, max_hops, failure
                )
            include_paths = payload.get("include_paths", 0)
            if (
                isinstance(include_paths, bool)
                or not isinstance(include_paths, int)
                or include_paths < 0
            ):
                raise ServiceError(
                    400, "'include_paths' must be a non-negative integer"
                )
            include_paths = min(include_paths, MAX_BATCH_PATHS, len(pairs))
            chunk = payload.get("chunk", DEFAULT_CHUNK)
            if isinstance(chunk, bool) or not isinstance(chunk, int) or chunk < 1:
                raise ServiceError(400, "'chunk' must be a positive integer")
            router = self._router_for(key, product)
            # Paths are only kept for the (small, capped) leading slice;
            # the rest of the batch streams through in hops/lengths-only
            # chunks — the shape that survives million-pair requests.
            bounds: list[tuple[int, int, bool]] = []
            if include_paths:
                bounds.append((0, include_paths, True))
            lo = include_paths
            while lo < len(pairs):
                hi = min(len(pairs), lo + chunk)
                bounds.append((lo, hi, False))
                lo = hi
            delivered = 0
            unreachable = 0
            hops_sum = 0.0
            length_sum = 0.0
            reason_counts = {name: 0 for name in REASON_STRINGS}
            paths: list[dict] = []
            for lo, hi, keep in bounds:
                with self.metrics.timer("routing.batch"):
                    batch = router.route_pairs(
                        pairs[lo:hi],
                        mode=mode,
                        max_hops=max_hops,
                        keep_paths=keep,
                    )
                delivered += batch.delivered_count
                unreachable += batch.unreachable_pairs
                hops_sum += batch.hops_avg() * batch.delivered_count
                length_sum += batch.length_avg() * batch.delivered_count
                for name, count in batch.reason_counts().items():
                    reason_counts[name] += count
                if keep:
                    for i in range(batch.pairs):
                        paths.append(
                            {
                                "source": int(batch.sources[i]),
                                "target": int(batch.targets[i]),
                                "reason": batch.reason(i),
                                "hops": int(batch.hops[i]),
                                "path": list(batch.path(i)),
                            }
                        )
        total = len(pairs)
        reachable = total - unreachable
        self.metrics.inc("routing.pairs", total)
        self.metrics.inc("routing.delivered", delivered)
        self.metrics.inc("routing.unreachable", unreachable)
        self.metrics.inc("routing.chunks", len(bounds))
        response = {
            "key": key,
            "mode": mode,
            "pairs": total,
            "delivered": delivered,
            "delivery_rate": delivered / total if total else 0.0,
            "unreachable_pairs": unreachable,
            "reachable_delivery_rate": (
                delivered / reachable if reachable else 0.0
            ),
            "hops_avg": hops_sum / delivered if delivered else 0.0,
            "length_avg": length_sum / delivered if delivered else 0.0,
            "reasons": reason_counts,
            "chunks": len(bounds),
        }
        if include_paths:
            response["paths"] = paths
        return response

    def _batch_pairs(
        self, payload: Mapping[str, Any], n: int
    ) -> list[tuple[int, int]]:
        """The pair list for one batch request: explicit or sampled."""
        pairs = payload.get("pairs")
        if pairs is not None:
            if not isinstance(pairs, list) or not pairs:
                raise ServiceError(
                    400, "'pairs' must be a non-empty list of [source, target]"
                )
            if len(pairs) > MAX_BATCH_PAIRS:
                raise ServiceError(
                    400, f"at most {MAX_BATCH_PAIRS} pairs per request"
                )
            norm: list[tuple[int, int]] = []
            for item in pairs:
                if (
                    not isinstance(item, (list, tuple))
                    or len(item) != 2
                    or any(
                        isinstance(v, bool) or not isinstance(v, int)
                        for v in item
                    )
                ):
                    raise ServiceError(
                        400, "each pair must be a [source, target] integer pair"
                    )
                s, t = int(item[0]), int(item[1])
                if not (0 <= s < n and 0 <= t < n):
                    raise ServiceError(
                        400, f"pair endpoints must be in [0, {n})"
                    )
                norm.append((s, t))
            return norm
        count = payload.get("count")
        if count is None:
            raise ServiceError(
                400, "provide 'pairs' or a sampled pair 'count'"
            )
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ServiceError(400, "'count' must be a positive integer")
        if count > MAX_BATCH_PAIRS:
            raise ServiceError(400, f"at most {MAX_BATCH_PAIRS} pairs per request")
        if n < 2:
            raise ServiceError(400, "need at least two nodes to sample pairs")
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ServiceError(400, "'seed' must be an integer")
        rng = random.Random(seed)
        sampled: list[tuple[int, int]] = []
        while len(sampled) < count:
            s, t = rng.randrange(n), rng.randrange(n)
            if s != t:
                sampled.append((s, t))
        return sampled

    def _route_batch_failure(
        self,
        key: str,
        product: BuildProduct,
        pairs: list[tuple[int, int]],
        mode: str,
        max_hops: Optional[int],
        failure: Any,
    ) -> dict:
        """The ``failure`` branch of ``/route_batch``: degraded replay."""
        if not isinstance(failure, Mapping):
            raise ServiceError(400, "'failure' must be a JSON object")
        node_loss = failure.get("node_loss", 0.0)
        link_loss = failure.get("link_loss", 0.0)
        for name, value in (("node_loss", node_loss), ("link_loss", link_loss)):
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not (0.0 <= float(value) <= 1.0)
            ):
                raise ServiceError(400, f"'{name}' must be a number in [0, 1]")
        seed = failure.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ServiceError(400, "failure 'seed' must be an integer")
        self.metrics.inc("routing.replays")
        with self.metrics.timer("routing.replay"):
            report = replay_failures(
                product.backbone,
                pairs,
                node_loss=float(node_loss),
                link_loss=float(link_loss),
                seed=seed,
                mode=mode,
                max_hops=max_hops,
            )
        self.metrics.inc("routing.pairs", len(pairs))
        self.metrics.inc("routing.delivered", report["survived"])
        return {"key": key, **report}

    # -- incremental sessions --------------------------------------------

    def session_create(self, payload: Mapping[str, Any]) -> dict:
        """``POST /session`` — open a live incremental maintenance session.

        The scenario resolves exactly like a build request's; the
        session then owns an
        :class:`~repro.incremental.engine.IncrementalMaintainer` whose
        maintained structures stay bit-identical to a from-scratch
        rebuild as event batches stream in through
        ``POST /session/{id}/step``.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        scenario = payload.get("scenario")
        if scenario is None:
            raise ServiceError(400, "missing required field 'scenario'")
        tile_cells = payload.get("tile_cells", 2)
        if isinstance(tile_cells, bool) or not isinstance(tile_cells, int) or tile_cells < 1:
            raise ServiceError(400, "'tile_cells' must be a positive integer")
        deployment = self._resolve(scenario)
        if isinstance(deployment, QuasiDeployment):
            raise ServiceError(
                400,
                "sessions maintain the sharp-disk UDG; "
                "quasi-UDG deployments are not supported",
            )
        self.metrics.inc("incremental.sessions")
        with self.metrics.timer("incremental.open"):
            maintainer = IncrementalMaintainer(
                list(deployment.points), deployment.radius, tile_cells=tile_cells
            )
        session = IncrementalSession(maintainer)
        with self._sessions_lock:
            self._session_seq += 1
            prefix = f"w{self.worker_id}-" if self.worker_id is not None else ""
            session_id = f"{prefix}s{self._session_seq}"
            self._sessions[session_id] = session
        snap = maintainer.snapshot()
        return {
            "session": session_id,
            "nodes": maintainer.udg.node_count,
            "radius": deployment.radius,
            "udg_edges": len(snap.udg_edges),
            "dominators": len(snap.dominators),
            "connectors": len(snap.connectors),
            "ldel_icds_edges": len(snap.ldel_icds_edges),
        }

    def _session(self, session_id: str) -> IncrementalSession:
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServiceError(
                404, f"no session {session_id!r}; POST /session first"
            )
        return session

    def session_step(self, session_id: str, payload: Mapping[str, Any]) -> dict:
        """``POST /session/{id}/step`` — one event batch in, one delta out.

        The response is the step's :class:`StepReport`: invalidation
        accounting (dirty tiles/nodes, certified vs fallback repairs)
        plus the streamed topology delta — the LDel(ICDS') edges this
        batch added and removed.  ``verify=true`` additionally runs the
        rebuild-equivalence tripwire and reports the outcome.  A batch
        naming an unknown id (counted through its own joins and leaves)
        answers 400 and leaves the session unchanged.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        session = self._session(session_id)
        specs = payload.get("events")
        if not isinstance(specs, list):
            raise ServiceError(400, "'events' must be a list of event objects")
        try:
            events = parse_events(specs)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from None
        verify = bool(payload.get("verify", False))
        try:
            with obs.recording() as record, self.metrics.timer("incremental.step"):
                report = session.step(events, verify=verify)
        except InvalidBatch as exc:
            raise ServiceError(400, str(exc)) from None
        self._fold(record)
        self._record_incremental_metrics(report)
        response = {
            "session": session_id,
            "step": session.steps,
            **report.as_dict(),
        }
        if verify:
            self.metrics.inc("incremental.verifications")
            failures = session.verification_failures
            verified = not failures or failures[-1]["step"] != session.steps
            if not verified:
                self.metrics.inc("incremental.verification_failures")
            response["verified"] = verified
        return response

    def session_get(self, session_id: str) -> dict:
        """``GET /session/{id}`` — summary plus cumulative counters."""
        session = self._session(session_id)
        snap = session.maintainer.snapshot()
        return {
            "session": session_id,
            "nodes": session.maintainer.udg.node_count,
            "steps": session.steps,
            "udg_edges": len(snap.udg_edges),
            "backbone_nodes": len(snap.backbone_nodes),
            "ldel_icds_edges": len(snap.ldel_icds_edges),
            "counters": session.counters(),
        }

    def session_delete(self, session_id: str) -> dict:
        """``DELETE /session/{id}`` — close and drop a session."""
        with self._sessions_lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise ServiceError(404, f"no session {session_id!r}")
        self.metrics.inc("incremental.sessions_closed")
        return {
            "session": session_id,
            "closed": True,
            "steps": session.steps,
        }

    def _record_incremental_metrics(self, report: StepReport) -> None:
        """Fold one maintenance step into the ``incremental.*`` metrics.

        The report counts a session sums (events, links, repairs,
        replays, dirt) become running counters and the step's
        dirty-node fraction feeds a (unitless) histogram — so
        ``GET /metrics`` shows how local the maintenance actually
        stayed.  The per-phase wall times arrive as
        ``incremental.phase.*`` spans.
        """
        self.metrics.inc("incremental.steps")
        for name in SUMMED_FIELDS:
            self.metrics.inc(f"incremental.{name}", getattr(report, name))
        self.metrics.inc("incremental.edges_added", len(report.edges_added))
        self.metrics.inc("incremental.edges_removed", len(report.edges_removed))
        self.metrics.observe("incremental.dirty_fraction", report.dirty_fraction)

    # -- named deployments -----------------------------------------------

    def _require_store(self) -> DeploymentStore:
        if self.store is None:
            raise ServiceError(
                400, "no deployment store configured; start with --data-dir"
            )
        return self.store

    def deployments_create(self, payload: Mapping[str, Any]) -> dict:
        """``POST /deployments`` — persist a named deployment.

        ``{"name": ..., "scenario": <any scenario form>}`` resolves the
        scenario exactly like a build request would, then stores the
        resolved deployment durably; ``overwrite=false`` makes the
        request fail with 409 instead of republishing an existing name.
        """
        store = self._require_store()
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServiceError(400, "missing required field 'name'")
        scenario = payload.get("scenario")
        if scenario is None:
            raise ServiceError(400, "missing required field 'scenario'")
        overwrite = payload.get("overwrite", True)
        if not isinstance(overwrite, bool):
            raise ServiceError(400, "'overwrite' must be a boolean")
        deployment = self._resolve(scenario)
        self.metrics.inc("store.puts")
        try:
            return store.put(name, deployment, overwrite=overwrite)
        except ValueError as exc:
            raise ServiceError(400, str(exc)) from None
        except StoreError as exc:
            raise ServiceError(409, str(exc.args[0])) from None

    def deployments_list(self) -> dict:
        """``GET /deployments`` — every stored name, sorted."""
        return {"deployments": self._require_store().listing()}

    def deployments_get(self, name: str) -> dict:
        """``GET /deployments/{name}`` — one manifest entry."""
        try:
            return self._require_store().entry(name)
        except StoreError as exc:
            raise ServiceError(404, str(exc.args[0])) from None

    def deployments_delete(self, name: str) -> dict:
        """``DELETE /deployments/{name}`` — unpublish a name."""
        try:
            entry = self._require_store().delete(name)
        except StoreError as exc:
            raise ServiceError(404, str(exc.args[0])) from None
        self.metrics.inc("store.deletes")
        return {**entry, "deleted": True}

    # -- lifecycle -------------------------------------------------------

    def close(self, *, drain_timeout: float = 10.0) -> dict:
        """Graceful shutdown: drain executors, persist, drop live state.

        Joins every tracked worker pool still holding abandoned work
        (bounded by ``drain_timeout``), re-persists the deployment
        store manifest, and closes live sessions/routers.  Idempotent;
        the server transports call it once the listener has stopped
        accepting and in-flight requests have finished.
        """
        if self._closed:
            return {"closed": True, "already": True}
        self._closed = True
        drained = global_tracker().drain(timeout=drain_timeout)
        if not drained:
            self.metrics.inc("server.drain_timeouts")
        if self.store is not None:
            self.store.flush()
        with self._sessions_lock:
            sessions = len(self._sessions)
            self._sessions.clear()
        with self._routers_lock:
            self._routers.clear()
        return {"closed": True, "drained": drained, "sessions_closed": sessions}

    # -- validation ------------------------------------------------------

    def invariants_summary(self) -> dict:
        """``GET /invariants`` — catalog, corpus, last run summary."""
        from repro.validation.engine import PIPELINES
        from repro.validation.invariants import invariant_listing
        from repro.workloads.corpus import corpus_listing

        return {
            "invariants": invariant_listing(),
            "pipelines": list(PIPELINES),
            "corpus": corpus_listing(),
            "last_validation": self._last_validation,
        }

    def validate(self, payload: Mapping[str, Any]) -> dict:
        """``POST /validate`` — run the invariant matrix in-process.

        Accepts ``corpus`` / ``pipelines`` / ``invariants`` filter
        lists (all optional).  Runs serially inside the request — the
        farm's fan-out belongs to the CLI; this endpoint exists for
        on-demand spot checks against a live service.
        """
        if payload is None:
            payload = {}
        if not isinstance(payload, Mapping):
            raise ServiceError(400, "request body must be a JSON object")
        filters = {}
        for field in ("corpus", "pipelines", "invariants"):
            value = payload.get(field, [])
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ServiceError(400, f"'{field}' must be a list of strings")
            filters[field] = value
        from repro.validation.engine import run_validation

        self.metrics.inc("validation.requests")
        try:
            with self.metrics.timer("validation.run"):
                matrix = run_validation(
                    corpus=filters["corpus"],
                    pipelines=filters["pipelines"],
                    invariants=filters["invariants"],
                    executor="serial",
                )
        except KeyError as exc:
            raise ServiceError(400, str(exc.args[0])) from None
        summary = matrix.summary
        for status, count in summary.items():
            self.metrics.inc(f"validation.cells_{status}", count)
        if not matrix.ok:
            self.metrics.inc("validation.failed_runs")
        self._last_validation = {
            "ok": matrix.ok,
            "summary": summary,
            "meta": matrix.meta,
        }
        return matrix.to_json_dict()

    # -- introspection ---------------------------------------------------

    def pipelines(self) -> dict:
        return {"pipelines": available_pipelines()}

    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        collections = self.gc_metrics.snapshot()
        snapshot["gc"] = {
            "counters": collections["counters"], "latency": collections["latency"],
        }
        snapshot["sessions"] = {"active": len(self._sessions)}
        snapshot["cache"] = {
            "entries": len(self.cache),
            "max_entries": self.cache.max_entries,
            "disk_dir": str(self.cache.disk_dir) if self.cache.disk_dir else None,
            **self.cache.stats.as_dict(),
        }
        if self.store is not None:
            snapshot["store"] = {
                "deployments": len(self.store),
                "data_dir": str(self.store.data_dir),
            }
        if self.worker_id is not None:
            snapshot["worker_id"] = self.worker_id
        return snapshot

    def healthz(self) -> dict:
        return {"status": "ok", "uptime_s": self.metrics.snapshot()["uptime_s"]}


def _batch_worker(task: tuple[str, dict, dict]) -> tuple[BuildProduct, obs.Record]:
    """Pool entry point: rebuild by value (name, scenario, params).

    May run in another thread or process, so it records under its own
    :func:`repro.obs.recording` and returns the record with the product.
    """
    name, scenario, params = task
    with obs.recording() as record:
        product = build_scenario(name, scenario, params)
    return product, record
