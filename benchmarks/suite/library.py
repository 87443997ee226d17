"""The library workloads: one caller issuing calls back to back.

Each function runs one workload in this process and returns a
:class:`~common.WorkloadResult`.  Sizes are keyword arguments so the
tests can call every workload at toy scale; the defaults are the
benchmark's.  Output checks run outside the timed calls.  Timings are
recorded as ``(started, seconds)`` and put at the reference pace
(:class:`~common.Pace`) once the run's last pace sample is taken.
"""

from __future__ import annotations

import gc
import statistics
import time
import types

from common import (
    Digest,
    Pace,
    Tracer,
    WorkloadResult,
    op_indices,
    peak_rss_mb,
    span_cost_s,
)
from inputs import (
    RADIUS,
    Waypoints,
    connected_uniform_points,
    random_pairs,
    stream,
    uniform_points,
)

#: Per-layer self times of one traced build (backbone + flat PLDel).
#: ``protocols.backbone.unattributed_s`` is the root span's self time:
#: the glue (point conversion, id remap, ledgers) no layer accounts for.
BUILD_LAYERS = (
    "graphs.udg.build_s",
    "protocols.cds_fast.clustering_s",
    "protocols.cds_fast.connectors_s",
    "protocols.cds.icds_induce_s",
    "protocols.cds.family_self_s",
    "graphs.quasi.induce_s",
    "protocols.ldel_fast.ldel_s",
    "topology.ldel.ldel1_s",
    "topology.ldel.planarize_s",
    "protocols.backbone.unattributed_s",
)

#: Invariants every backbone build must pass (validation catalog names).
BUILD_INVARIANTS = ("planarity", "connectivity", "domination")

#: Mobility: every tenth step is a churn step; a churn move batch moves
#: this share of the nodes.
CHURN_EVERY = 10
CHURN_FRACTION = 0.02


def load_library() -> tuple[types.SimpleNamespace, float]:
    """The library calls the workloads make, and the seconds importing took."""
    started = time.perf_counter()
    from repro.core.route_engine import BackboneRouter, RouteEngine
    from repro.core.spanner import build_backbone
    from repro.geometry.primitives import Point
    from repro.graphs.graph import Graph
    from repro.graphs.quasi import induced_radio_subgraph
    from repro.graphs.udg import UnitDiskGraph
    from repro.incremental.engine import IncrementalMaintainer
    from repro.incremental.events import Event
    from repro.protocols.cds import induced_udg_subgraph
    from repro.protocols.cds_fast import fast_clustering, fast_connectors
    from repro.protocols.ldel_fast import fast_ldel_protocol
    from repro.routing.backbone_routing import backbone_route
    from repro.routing.greedy import greedy_route
    from repro.sim.messages import STATUS
    from repro.sim.stats import MessageStats
    from repro.topology.construction_cache import ConstructionCache
    from repro.topology.ldel import (
        local_delaunay_graph,
        planar_local_delaunay_graph,
        planarize_ldel1,
    )
    from repro.validation.invariants import INDEX

    lib = types.SimpleNamespace(**{
        name: value for name, value in locals().items() if name != "started"
    })
    return lib, time.perf_counter() - started


def _paced(pace: Pace, spans: list[tuple[float, float]]) -> list[float]:
    return [pace.paced(started, seconds) for started, seconds in spans]


def _finish(result: WorkloadResult, pace: Pace, import_s: float,
            setups: list[tuple[float, float]], ops: list[float],
            rss_mb: float) -> None:
    """The end-to-end metrics from paced operation times.

    The imports ran before the first pace sample, which therefore paces
    them; set-up is the imports plus the median repetition.
    """
    setup_s = pace.paced(0.0, import_s) + statistics.median(_paced(pace, setups))
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(ops) * 1000.0, "ms"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    result.reference_ms = pace.reference_ms()


# -- backbone-build -----------------------------------------------------------


def _build(lib, points):
    """The measured operation: the backbone, then the flat PLDel."""
    t0 = time.perf_counter()
    backbone = lib.build_backbone(points, RADIUS, mode="fast")
    t1 = time.perf_counter()
    pldel = lib.planar_local_delaunay_graph(lib.UnitDiskGraph(points, RADIUS)).graph
    t2 = time.perf_counter()
    return backbone, pldel, (t0, t1 - t0), (t1, t2 - t1)


def _outputs(backbone, pldel) -> dict:
    """Canonical outputs of one build: roles, edge sets, ledger totals."""
    return {
        "dominators": sorted(backbone.dominators),
        "connectors": sorted(backbone.connectors),
        "cds": sorted(backbone.cds.edges()),
        "cds_prime": sorted(backbone.cds_prime.edges()),
        "icds": sorted(backbone.icds.edges()),
        "icds_prime": sorted(backbone.icds_prime.edges()),
        "ldel_icds": sorted(backbone.ldel_icds.edges()),
        "ldel_icds_prime": sorted(backbone.ldel_icds_prime.edges()),
        "messages": [
            backbone.stats_cds.total,
            backbone.stats_icds.total,
            backbone.stats_ldel.total,
        ],
        "pldel": sorted(pldel.edges()),
    }


def _recompose(lib, points, tracer: Tracer) -> dict:
    """``_build`` again, from the layers' public calls, one span per layer.

    Mirrors ``build_backbone(points, r, mode="fast")`` (through
    ``run_backbone_pipeline`` and ``build_cds_family``) and
    ``planar_local_delaunay_graph`` statement by statement, so the
    outputs must equal ``_outputs`` of the real calls.
    """
    span = tracer.span
    with span("protocols.backbone.unattributed_s"):
        pts = [lib.Point(float(p[0]), float(p[1])) for p in points]
        with span("graphs.udg.build_s"):
            udg = lib.UnitDiskGraph(pts, RADIUS)
        with span("protocols.cds_fast.clustering_s"):
            clustering = lib.fast_clustering(udg)
        with span("protocols.cds.family_self_s"):
            with span("protocols.cds_fast.connectors_s"):
                elected = lib.fast_connectors(udg, clustering)
            stats_icds = lib.MessageStats()
            stats_icds.merge(clustering.stats)
            stats_icds.merge(elected.stats)
            for node in udg.nodes():
                stats_icds.record(node, lib.STATUS)
            attach = [
                (w, d) for w, doms in clustering.dominators_of.items() for d in doms
            ]
            cds = lib.Graph(udg.positions, elected.cds_edges, name="CDS")
            cds_prime = lib.Graph(udg.positions, elected.cds_edges, name="CDS'")
            for u, v in attach:
                cds_prime.add_edge(u, v)
            members = clustering.dominators | elected.connectors
            with span("protocols.cds.icds_induce_s"):
                icds = lib.induced_udg_subgraph(udg, members, "ICDS")
            icds_prime = lib.Graph(udg.positions, icds.edges(), name="ICDS'")
            for u, v in attach:
                icds_prime.add_edge(u, v)
        stats_cds = lib.MessageStats()
        stats_cds.merge(clustering.stats)
        stats_cds.merge(elected.stats)
        backbone = sorted(members)
        with span("graphs.quasi.induce_s"):
            sub_udg = lib.induced_radio_subgraph(udg, backbone, name="ICDS-sub")
        with span("protocols.ldel_fast.ldel_s"):
            outcome = lib.fast_ldel_protocol(sub_udg)
        ldel_icds = lib.Graph(udg.positions, name="LDel(ICDS)")
        for u, v in outcome.graph.edges():
            ldel_icds.add_edge(backbone[u], backbone[v])
        ldel_icds_prime = lib.Graph(udg.positions, ldel_icds.edges(), name="LDel(ICDS')")
        for w, doms in clustering.dominators_of.items():
            for d in doms:
                ldel_icds_prime.add_edge(w, d)
        stats_ldel = stats_icds.copy()
        for (sub_id, kind), count in outcome.stats.per_node_kind.items():
            stats_ldel.record(backbone[sub_id], kind, count)

        with span("graphs.udg.build_s"):
            flat = lib.UnitDiskGraph(points, RADIUS)
        cache = lib.ConstructionCache.for_udg(flat, None)
        with span("topology.ldel.ldel1_s"):
            ldel1 = lib.local_delaunay_graph(flat, k=1, cache=cache)
        with span("topology.ldel.planarize_s"):
            pldel = lib.planarize_ldel1(flat, ldel1, cache=cache).graph
    return {
        "dominators": sorted(clustering.dominators),
        "connectors": sorted(elected.connectors),
        "cds": sorted(cds.edges()),
        "cds_prime": sorted(cds_prime.edges()),
        "icds": sorted(icds.edges()),
        "icds_prime": sorted(icds_prime.edges()),
        "ldel_icds": sorted(ldel_icds.edges()),
        "ldel_icds_prime": sorted(ldel_icds_prime.edges()),
        "messages": [stats_cds.total, stats_icds.total, stats_ldel.total],
        "pldel": sorted(pldel.edges()),
    }


def _invariant_failures(lib, backbone) -> list[str]:
    ctx = types.SimpleNamespace(
        pipeline="backbone",
        udg=backbone.udg,
        graph=backbone.ldel_icds,
        backbone=backbone.pipeline,
    )
    return [
        name for name in BUILD_INVARIANTS if not lib.INDEX[name].metric(ctx).passed
    ]


def backbone_build(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n: int = 5000,
    warmup_n: int = 1000,
    setup_reps: int = 3,
    digest_ops: int = 3,
) -> WorkloadResult:
    """Fresh uniform deployments built back to back (construction layers).

    Set-up is the imports plus ``setup_reps`` warm-up builds at
    ``warmup_n`` nodes, which load every lazily imported module.  A
    traced run builds each deployment twice: through the real calls
    (for the checks and the overhead baseline) and through
    :func:`_recompose` under spans.
    """
    result = WorkloadResult("backbone-build")
    lib, import_s = load_library()
    pace = Pace()
    setups = []
    for rep in range(setup_reps):
        pace.sample()
        started = time.perf_counter()
        _build(lib, uniform_points(warmup_n, stream(seed, "warmup", rep)))
        setups.append((started, time.perf_counter() - started))

    def one_build(points):
        # A function of its own, so no build's graphs outlive it and
        # inflate the garbage collector's scans during the next one.
        backbone, pldel, t_backbone, t_pldel = _build(lib, points)
        outputs = _outputs(backbone, pldel)
        problems = _invariant_failures(lib, backbone)
        if trace:
            del backbone, pldel
            started = time.perf_counter()
            mine = _recompose(lib, points, tracer)
            traced_s.append(time.perf_counter() - started)
            if mine != outputs:
                problems.append("recomposed pipeline differs from build_backbone")
        return outputs, problems, t_backbone, t_pldel

    tracer = Tracer()
    digest = Digest()
    backbone_spans: list[tuple[float, float]] = []
    pldel_spans: list[tuple[float, float]] = []
    traced_s: list[float] = []
    rss_mb = 0.0
    for i in op_indices(seconds, digest_ops):
        points = uniform_points(n, stream(seed, "deployment", i))
        gc.collect()  # the last build's cyclic garbage, outside the timing
        pace.tick()
        try:
            outputs, problems, t_backbone, t_pldel = one_build(points)
        except Exception as exc:  # one failed build must not end the run
            result.check(False, f"deployment {i}: {type(exc).__name__}: {exc}")
            continue
        result.check(not problems, f"deployment {i}: {', '.join(problems)}")
        backbone_spans.append(t_backbone)
        pldel_spans.append(t_pldel)
        if i < digest_ops:
            digest.add(outputs)
            rss_mb = peak_rss_mb()
        del outputs
    pace.sample()

    backbone_s = _paced(pace, backbone_spans)
    pldel_s = _paced(pace, pldel_spans)
    result.digest = digest.hexdigest()
    _finish(result, pace, import_s, setups,
            [a + b for a, b in zip(backbone_s, pldel_s)], rss_mb)
    result.timing("backbone", backbone_s, "s")
    result.timing("pldel", pldel_s, "s")
    if trace:
        total = sum(tracer.self_s.values())
        for name in BUILD_LAYERS:
            spent = tracer.self_s.get(name, 0.0)
            result.layers[name] = (spent / len(traced_s), "s")
            result.layers[name + ".share"] = (spent / total, "share")
        wall_s = sum(s for _, s in backbone_spans + pldel_spans)
        result.layers["trace.overhead_share"] = (sum(traced_s) / wall_s - 1.0, "share")
    return result


# -- route-batch --------------------------------------------------------------


def route_batch(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n: int = 5000,
    pairs: int = 10_000,
    setup_reps: int = 3,
    digest_ops: int = 6,
    identity_pairs: int = 200,
) -> WorkloadResult:
    """Fresh pair batches through backbone GPSR and flat-UDG greedy.

    Each set-up repetition builds one connected deployment's backbone,
    ``BackboneRouter`` and ``RouteEngine``, and routes one warm-up batch
    through each.  The timed batches take the deployments in turn, so a
    run's figures do not hang on one deployment's geometry, and the
    routers' core memos warm across them as they would for a long-lived
    caller.  The traced run adds no spans: its layer figures are the
    untraced timings, so its overhead is what one empty span per router
    call would cost.
    """
    import numpy as np

    result = WorkloadResult("route-batch")
    lib, import_s = load_library()
    pace = Pace()
    setups, inits, deployments = [], [], []
    for rep in range(setup_reps):
        pace.sample()
        started = time.perf_counter()
        points = connected_uniform_points(n, seed, f"deployment-{rep}")
        backbone = lib.build_backbone(points, RADIUS, mode="fast")
        built = time.perf_counter()
        router = lib.BackboneRouter(backbone)
        engine = lib.RouteEngine(backbone.udg)
        warm = np.asarray(random_pairs(n, pairs, stream(seed, "warmup", rep)), dtype=np.int64)
        router.route_pairs(warm, mode="gpsr", keep_paths=False)
        engine.route_pairs(warm, method="greedy", keep_paths=False)
        done = time.perf_counter()
        setups.append((started, done - started))
        inits.append(done - built)
        deployments.append((backbone, router, engine))

    digest = Digest()
    gpsr_spans: list[tuple[float, float]] = []
    greedy_spans: list[tuple[float, float]] = []
    greedy_delivered = greedy_routed = 0
    rss_mb = 0.0
    for i in op_indices(seconds, digest_ops):
        _, router, engine = deployments[i % len(deployments)]
        batch = np.asarray(
            random_pairs(n, pairs, stream(seed, "pairs", i)), dtype=np.int64
        )
        pace.tick()
        try:
            t0 = time.perf_counter()
            bb = router.route_pairs(batch, mode="gpsr", keep_paths=False)
            t1 = time.perf_counter()
            flat = engine.route_pairs(batch, method="greedy", keep_paths=False)
            t2 = time.perf_counter()
        except Exception as exc:  # one failed batch must not end the run
            result.check(False, f"batch {i}: {type(exc).__name__}: {exc}")
            continue
        result.check(
            bb.delivered_count == pairs,
            f"batch {i}: GPSR delivered {bb.delivered_count} of {pairs}",
        )
        gpsr_spans.append((t0, t1 - t0))
        greedy_spans.append((t1, t2 - t1))
        if i < digest_ops:
            digest.add([
                bb.hops.tolist(), bb.reasons.tolist(),
                flat.hops.tolist(), flat.reasons.tolist(),
            ])
            greedy_delivered += flat.delivered_count
            greedy_routed += pairs
            rss_mb = peak_rss_mb()
    pace.sample()

    # The identity subset is dealt across the deployments in turn.
    subset = random_pairs(n, pairs, stream(seed, "pairs", 0))[:identity_pairs]
    mismatches = 0
    for d, (backbone, router, engine) in enumerate(deployments):
        mine = subset[d::len(deployments)]
        batch_bb = router.route_pairs(mine, mode="gpsr")
        batch_flat = engine.route_pairs(mine, method="greedy")
        for k, (s, t) in enumerate(mine):
            for got, ref in (
                (batch_bb, lib.backbone_route(backbone, s, t, mode="gpsr")),
                (batch_flat, lib.greedy_route(backbone.udg, s, t)),
            ):
                if (got.path(k), got.reason(k), int(got.hops[k])) != (
                    ref.path, ref.reason, ref.hops
                ):
                    mismatches += 1
    result.check(
        mismatches == 0,
        f"{mismatches} of {2 * len(subset)} routes differ from the scalar routers",
    )

    gpsr_s = _paced(pace, gpsr_spans)
    greedy_s = _paced(pace, greedy_spans)
    batch_s = [a + b for a, b in zip(gpsr_s, greedy_s)]
    result.digest = digest.hexdigest()
    _finish(result, pace, import_s, setups, batch_s, rss_mb)
    result.details["route_pairs_per_s"] = (
        2 * pairs * len(batch_s) / sum(batch_s), "pairs/s"
    )
    result.timing("gpsr", gpsr_s, "ms")
    result.timing("greedy", greedy_s, "ms")
    if trace:
        per_10k = 1000.0 * 10_000 / pairs
        wall_gpsr = [s for _, s in gpsr_spans]
        wall_greedy = [s for _, s in greedy_spans]
        result.layers.update({
            "core.route_engine.bb_gpsr_ms": (statistics.mean(wall_gpsr) * per_10k, "ms"),
            "core.route_engine.udg_greedy_ms": (
                statistics.mean(wall_greedy) * per_10k, "ms"
            ),
            "core.route_engine.router_init_s": (statistics.median(inits), "s"),
            "core.route_engine.greedy_delivery_rate": (
                greedy_delivered / greedy_routed, "ratio"
            ),
            "trace.overhead_share": (
                2 * span_cost_s() / statistics.mean(
                    a + b for a, b in zip(wall_gpsr, wall_greedy)
                ),
                "share",
            ),
        })
    return result


# -- mobility -----------------------------------------------------------------


def mobility(
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n: int = 2000,
    setup_reps: int = 3,
    counted_steps: int = 100,
    verify_every: int = 100,
) -> WorkloadResult:
    """Waypoint moves and churn through one ``IncrementalMaintainer``.

    Nine steps in ten move one node; every tenth is a churn step,
    alternating a move batch of ``CHURN_FRACTION`` of the nodes and a
    join + leave (which rebuilds the connector election).  The maintained
    structures are checked against a from-scratch rebuild every
    ``verify_every`` steps and at the end.  Count metrics and the digest
    cover the first ``counted_steps`` steps, so they repeat exactly for a
    seed; the per-layer figures are the public ``StepReport`` counts, so
    the traced run adds no spans and its overhead is what one empty span
    per step would cost.
    """
    result = WorkloadResult("mobility")
    lib, import_s = load_library()
    pace = Pace()
    setups = []
    for _ in range(setup_reps):
        pace.sample()
        started = time.perf_counter()
        points = uniform_points(n, stream(seed, "deployment"))
        maintainer = lib.IncrementalMaintainer(points, RADIUS)
        motion = Waypoints(points, stream(seed, "motion"))
        picks = stream(seed, "picks")
        mover = picks.randrange(n)
        x, y = motion.move(mover)
        maintainer.apply([lib.Event("move", node=mover, x=x, y=y)])
        setups.append((started, time.perf_counter() - started))

    def events(i: int) -> list:
        count = len(motion.positions)
        if i % CHURN_EVERY != CHURN_EVERY - 1:
            mover = picks.randrange(count)
            x, y = motion.move(mover)
            return [lib.Event("move", node=mover, x=x, y=y)]
        if (i // CHURN_EVERY) % 2 == 0:
            batch = []
            for mover in picks.sample(range(count), max(1, int(CHURN_FRACTION * count))):
                x, y = motion.move(mover)
                batch.append(lib.Event("move", node=mover, x=x, y=y))
            return batch
        x, y = motion.join()
        leaver = picks.randrange(count + 1)
        motion.leave(leaver)
        return [lib.Event("join", x=x, y=y), lib.Event("leave", node=leaver)]

    digest = Digest()
    single_spans: list[tuple[float, float]] = []
    churn_spans: list[tuple[float, float]] = []
    counts = {"dirty_nodes": 0, "dirty_tiles": 0, "role_changes": 0,
              "repairs_fallback": 0, "delta_edges": 0}
    rss_mb = 0.0
    for i in op_indices(seconds, counted_steps):
        batch = events(i)
        pace.tick()
        try:
            started = time.perf_counter()
            report = maintainer.apply(batch)
            elapsed = time.perf_counter() - started
        except Exception as exc:  # the maintainer is unusable after a failure
            result.check(False, f"step {i}: {type(exc).__name__}: {exc}")
            break
        result.check(True, "")
        if len(batch) == 1:
            single_spans.append((started, elapsed))
        else:
            churn_spans.append((started, elapsed))
        if i < counted_steps:
            delta = len(report.edges_added) + len(report.edges_removed)
            counts["dirty_nodes"] += report.dirty_nodes
            counts["dirty_tiles"] += report.dirty_tiles
            counts["role_changes"] += report.role_changes
            counts["repairs_fallback"] += report.repairs_fallback
            counts["delta_edges"] += delta
            digest.add([report.edges_added, report.edges_removed,
                        report.role_changes, report.dirty_nodes])
            rss_mb = peak_rss_mb()
        if (i + 1) % verify_every == 0:
            outcome = maintainer.verify()
            result.check(outcome["identical"], f"step {i}: {outcome['mismatches']}")
    pace.sample()
    outcome = maintainer.verify()
    result.check(outcome["identical"], f"final state: {outcome['mismatches']}")

    single_s = _paced(pace, single_spans)
    churn_s = _paced(pace, churn_spans)
    steps_s = single_s + churn_s
    result.digest = digest.hexdigest()
    _finish(result, pace, import_s, setups, steps_s, rss_mb)
    # The latency users feel is a single move's; churn steps count in
    # ops_per_s and in their own detail.
    result.metrics["op_p50_ms"] = (statistics.median(single_s) * 1000.0, "ms")
    result.timing("step", single_s, "ms")
    result.timing("churn_step", churn_s, "ms")
    if trace:
        counted = min(counted_steps, len(steps_s))
        result.layers.update({
            "incremental.dirty_nodes_mean": (counts["dirty_nodes"] / counted, "nodes"),
            "incremental.dirty_tiles_mean": (counts["dirty_tiles"] / counted, "tiles"),
            "incremental.role_changes_total": (float(counts["role_changes"]), "count"),
            "incremental.repairs_fallback_total": (
                float(counts["repairs_fallback"]), "count"
            ),
            "incremental.delta_edges_per_dirty_node": (
                counts["delta_edges"] / max(1, counts["dirty_nodes"]), "edges/node"
            ),
            "trace.overhead_share": (
                span_cost_s() / statistics.mean(s for _, s in single_spans + churn_spans),
                "share",
            ),
        })
    return result
