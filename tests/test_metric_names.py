"""``GET /metrics`` keeps its names across the span layer.

Every stage reports through :mod:`repro.obs` and the service folds the
record with one loop; this pins the names a mixed workload produces, so
a renamed or dropped span or counter shows up here.  The module imports
nothing but the service, so it runs unchanged against the per-module
timing dicts the span layer replaced.
"""

import gc

from repro.service.server import SpannerService

SCENARIO = {"nodes": 90, "side": 110.0, "radius": 25.0, "seed": 5}

#: ``GET /metrics`` names after :func:`_drive_mix`, as the per-module
#: timing dicts reported them before the span layer replaced them.
COUNTER_NAMES = {
    "backbone.builds", "backbone.messages_total", "backbone.mode.fast",
    "batch.requests", "batch.tasks",
    "build.cache_hits", "build.cache_misses", "build.requests",
    "cds.connector_arenas", "cds.connector_proposals",
    "construction.circumcircle_misses", "construction.khop_hits",
    "construction.khop_misses", "construction.local_delaunay_calls",
    "construction.triangle_pairs_candidate", "construction.triangle_pairs_tested",
    "incremental.appeared_links", "incremental.contest_triangles",
    "incremental.dirty_nodes",
    "incremental.dirty_tiles", "incremental.edges_added",
    "incremental.edges_removed", "incremental.events",
    "incremental.repairs_certified", "incremental.repairs_fallback",
    "incremental.role_changes", "incremental.sessions", "incremental.steps",
    "incremental.vanished_links",
    "oracle.apsp_misses", "oracle.measurements", "oracle.snapshot_hits",
    "oracle.snapshot_misses", "oracle.stretch_calls",
}
HISTOGRAM_NAMES = {
    "backbone.phase.cds", "backbone.phase.ldel",
    "batch.request", "build.construct", "build.request",
    "incremental.dirty_fraction", "incremental.open", "incremental.step",
    "incremental.phase.assemble", "incremental.phase.election",
    "incremental.phase.pldel", "incremental.phase.pldel_contest",
    "incremental.phase.pldel_phase_a", "incremental.phase.pldel_stitch",
    "incremental.phase.roles", "incremental.phase.udg",
    "oracle.stage.apsp", "oracle.stage.kernel", "oracle.stage.snapshot",
}
#: The ``gc`` section's names (collections during recorded work).
GC_COUNTER_NAMES = {"python.gc.collections"}
GC_HISTOGRAM_NAMES = {"python.gc.gen0", "python.gc.gen1", "python.gc.gen2"}


def _build(service, pipeline, params=None):
    return service.build(
        {"pipeline": pipeline, "scenario": SCENARIO, "params": params or {}}
    )


def _drive_mix(service):
    """Builds of every instrumented family, one session step, one batch."""
    _build(service, "backbone")
    _build(service, "backbone")
    _build(service, "ldel")
    _build(service, "ldel1", {"k": 2})
    _build(service, "gg", {"measure": True})
    session = service.session_create({"scenario": SCENARIO})["session"]
    service.session_step(
        session, {"events": [{"kind": "move", "node": 4, "x": 30.0, "y": 30.0}]}
    )
    service.batch({
        "requests": [{"pipeline": "ldel", "scenario": dict(SCENARIO, seed=9)}],
        "executor": {"mode": "process"},
    })


def test_metric_names_unchanged():
    # The array kernels leave few tracked objects behind, so whether
    # the mix reaches the default young-generation threshold depends on
    # what ran before it.  Start from empty generations and a low
    # threshold (restored afterwards) so its recorded work collects.
    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(50, *threshold[1:])
    try:
        service = SpannerService(executor_mode="serial")
        _drive_mix(service)
        snapshot = service.metrics_snapshot()
        service.close()
    finally:
        gc.set_threshold(*threshold)
    assert set(snapshot["counters"]) == COUNTER_NAMES
    assert set(snapshot["latency"]) == HISTOGRAM_NAMES
    # Garbage collections have a section of their own; which older
    # generations ran depends on the allocator's history, but the
    # young one always does.
    assert set(snapshot["gc"]["counters"]) == GC_COUNTER_NAMES
    assert "python.gc.gen0" in snapshot["gc"]["latency"]
    assert set(snapshot["gc"]["latency"]) <= GC_HISTOGRAM_NAMES
