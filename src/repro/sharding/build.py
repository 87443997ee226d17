"""Sharded spanner construction: parallel per-tile builds, exact stitch.

The paper's structures are *localized*: every Gabriel test, LDel^k
acceptance, and planarization contest depends only on a constant-radius
neighborhood of the decision's anchor.  That is exactly what makes the
plane shardable — partition the deployment into an r-aligned tile grid
(:class:`~repro.sharding.tiles.TileGrid`), hand each tile its core
points plus a halo of borrowed context, build in parallel worker
processes via :func:`repro.service.executor.run_batch`, and stitch.

Ownership and exactness:

* every point belongs to exactly one tile core (half-open boxes);
* an edge is owned by the tile owning its smaller-id endpoint, a
  triangle by the tile owning its smallest-id vertex (the *anchor* —
  all other vertices are within ``r`` of it, since every side of an
  accepted triangle fits in one transmission radius);
* with the per-stage halo widths of
  :func:`repro.sharding.tiles.stage_halo`, the owning tile sees every
  node that can influence the decision, so interior *and* boundary
  decisions are exact — the union of owned outputs over all tiles is
  bit-identical to the serial pipeline's output.  The stitch asserts
  the ownership partition (no triangle claimed twice, none dropped).

The clusterhead election is *almost* halo-local: the smallest-id MIS
fixed point of a node is determined by the descending-id chain of
white-neighbor dependencies reaching it, which in practice dies out
within a few hops but is not distance-bounded in the worst case
(adversarial id layouts chain decisions across the whole plane).
:func:`sharded_backbone` therefore runs a *certified* per-tile
election: each tile resolves every core node whose dependency chain
stays inside a ``3r`` halo and flags the rest ``unknown``; the
coordinator reconciles the unknowns exactly with one ascending-id
pass over the global UDG.  Both populations are counted
(``election_certified`` / ``election_unresolved``), the connector
fixed point is then computed directly
(:mod:`repro.protocols.cds_fast`), and the expensive planarized-LDel
stage on the backbone subgraph is tiled as before.

Planarization runs in two parallel phases: phase A computes the
accepted LDel^1 triangle set per tile (halo ``2r``), phase B replays
Algorithm 3's circumcircle contests per tile over the *stitched*
accepted set (halo ``3r``) — the contest for an owned triangle needs
every accepted triangle that can intersect it, and those sit within
``3r`` of the anchor.  Contests whose two triangles are owned by
different tiles are counted as ``straddle_contests``: they are the
cross-tile reconciliation work the halo pays for.  Neither phase
decides anything itself: phase A calls
:func:`~repro.topology.ldel.proposed_triangles` and
:func:`~repro.topology.ldel.corner_verdicts`, phase B
:func:`~repro.topology.ldel.contest_triangles` — the serial
construction's own functions.  A final global
:func:`~repro.topology.ldel.resolve_degenerate_crossings` sweep (cheap,
and deterministic in the edge set) breaks exactly-cocircular ties the
same way the serial pipeline does.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro import obs
from repro.geometry.primitives import Point
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.cds import build_cds_family
from repro.protocols.clustering import ClusteringOutcome
from repro.sharding.tiles import TileGrid, stage_halo
from repro.sim.stats import MessageStats
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import (
    LDelResult,
    Triangle,
    contest_triangles,
    corner_verdicts,
    proposed_triangles,
    resolve_degenerate_crossings,
    triangle_tuples,
)


class ShardingError(RuntimeError):
    """A tile worker failed; the sharded build cannot be trusted."""


@dataclass
class ShardingStats:
    """Accounting for one sharded build (JSON-ready via :meth:`as_dict`).

    Phase and per-tile wall times are spans (``sharding.phase.*``,
    ``sharding.tile_seconds``; see :mod:`repro.obs`), not fields.
    """

    shards: int
    tiles: int
    grid: tuple[int, int]
    mode: str
    workers: int
    counters: dict[str, int] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump ``counters[name]``, also counted as ``sharding.<name>``."""
        self.counters[name] = self.counters.get(name, 0) + amount
        obs.count(f"sharding.{name}", amount)

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "tiles": self.tiles,
            "grid": list(self.grid),
            "mode": self.mode,
            "workers": self.workers,
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class ShardedBackboneResult:
    """Sharded analogue of :class:`repro.core.spanner.BackboneResult`.

    Carries the structures (not the message ledgers — the sharded path
    replaces the message-passing LDel protocol with the tiled
    centralized construction, which is the point).
    """

    udg: UnitDiskGraph
    dominators: frozenset[int]
    connectors: frozenset[int]
    dominatees: frozenset[int]
    cds: Graph
    icds: Graph
    ldel_icds: Graph
    ldel_icds_prime: Graph

    @property
    def backbone_nodes(self) -> frozenset[int]:
        return self.dominators | self.connectors


# -- tile workers (module-level: they must pickle into worker processes) ------


def _box_distance(box: tuple[float, float, float, float], p: Point) -> float:
    x0, y0, x1, y1 = box
    dx = max(x0 - p[0], 0.0, p[0] - x1)
    dy = max(y0 - p[1], 0.0, p[1] - y1)
    return math.hypot(dx, dy)


def _phase_a(payload: tuple) -> dict:
    """Per-tile construction: UDG / Gabriel / LDel^k acceptance.

    ``payload`` is pure values: the tile key and core box, the sorted
    global ids and coordinates of the core+halo point set, the
    authoritative core ids (half-open assignment — box distance alone
    cannot see which side of a tile line a point falls on), the radius,
    the LDel order ``k``, and which stages to produce.  Global-id order
    is preserved in the local ids (the member list is sorted), so
    anchor-of-triangle and min-endpoint-of-edge agree between local and
    global views.
    """
    tile_key, box, gids, coords, core_gids, radius, k, stages = payload
    pos = [Point(x, y) for x, y in coords]
    gid_index = {gid: local for local, gid in enumerate(gids)}
    core = {gid_index[g] for g in core_gids}
    out: dict[str, Any] = {
        "tile": tile_key,
        "nodes": {"core": len(core), "halo": len(gids) - len(core)},
    }

    udg = UnitDiskGraph(pos, radius, name=f"tile{tile_key}")

    if "udg" in stages:
        out["udg_edges"] = [
            (gids[u], gids[v]) for u, v in udg.edges() if min(u, v) in core
        ]

    if "gabriel" in stages:
        gg = gabriel_graph(udg)
        out["gabriel_edges"] = [
            (gids[u], gids[v]) for u, v in gg.edges() if min(u, v) in core
        ]

    if "ldel" in stages:
        # Only nodes within r of the core can be a vertex of an owned
        # (core-anchored) triangle, hence the only useful proposers.
        proposers = [
            u for u in range(len(gids)) if _box_distance(box, pos[u]) <= radius
        ]
        candidates = triangle_tuples(proposed_triangles(udg, proposers)[0])
        owned = [t for t in candidates if t[0] in core]
        out["accepted"] = [
            (gids[a], gids[b], gids[c])
            for (a, b, c), ok in zip(owned, corner_verdicts(udg, owned, k))
            if all(ok)
        ]
        out["candidates"] = len(candidates)
    return out


def _timed_phase_a(payload: tuple) -> dict:
    """:func:`_phase_a` as a sharded tile: one ``sharding.tile_seconds`` span."""
    with obs.span("sharding.tile_seconds"):
        return _phase_a(payload)


def _election_worker(payload: tuple) -> dict:
    """Certified per-tile smallest-id MIS over core + 3r halo.

    One ascending-id pass over the local point set (local ids preserve
    global-id order).  A node is certified ``out`` when a smaller
    certified-``in`` neighbor dominates it — sound even near the halo
    edge, since a certified ``in`` is exact by induction.  It is
    certified ``in`` only when its whole 1-hop neighborhood is inside
    the halo (*complete*) and every smaller neighbor is certified
    ``out``.  Anything else — an incomplete node not yet dominated, or
    a chain through an ``unknown`` — stays ``unknown`` for the
    coordinator's exact reconciliation pass.
    """
    tile_key, box, gids, coords, core_gids, radius, _k, _stages = payload
    pos = [Point(x, y) for x, y in coords]
    udg = UnitDiskGraph(pos, radius, name=f"tile{tile_key}")
    halo_r = stage_halo("election") * radius
    complete = [_box_distance(box, p) <= halo_r - radius for p in pos]
    unknown_mark, out_mark, in_mark = -1, 0, 1
    state = [unknown_mark] * len(gids)
    for u in range(len(gids)):
        smaller = [w for w in udg.neighbors(u) if w < u]
        if any(state[w] == in_mark for w in smaller):
            state[u] = out_mark
        elif complete[u] and all(state[w] == out_mark for w in smaller):
            state[u] = in_mark
    core = set(core_gids)
    names = {in_mark: "in", out_mark: "out", unknown_mark: "unknown"}
    verdicts: dict[str, list[int]] = {"in": [], "out": [], "unknown": []}
    for u, gid in enumerate(gids):
        if gid in core:
            verdicts[names[state[u]]].append(gid)
    return {"tile": tile_key, **verdicts}


def _contest_worker(payload: tuple) -> dict:
    """Phase B: Algorithm 3 circumcircle contests for one tile.

    Receives every accepted triangle within ``3r`` of the tile core
    (vertex global ids + coordinates + whether this tile owns it) and
    replays the serial contest
    (:func:`~repro.topology.ldel.contest_triangles`); reports which
    *owned* triangles survive.  The rule is per-pair independent — a
    triangle is removed exactly when some intersecting accepted
    triangle has one of its vertices strictly inside the triangle's
    circumcircle — so per-tile replay with a complete 3r context is
    exact.
    """
    tile_key, tri_gids, tri_coords, owned_flags, radius = payload
    # Local position table over the distinct vertices involved.
    gid_index: dict[int, int] = {}
    pos: list[Point] = []
    triangles: list[Triangle] = []
    for gtri, ctri in zip(tri_gids, tri_coords):
        local = []
        for gid, (x, y) in zip(gtri, ctri):
            idx = gid_index.get(gid)
            if idx is None:
                idx = gid_index[gid] = len(pos)
                pos.append(Point(x, y))
            local.append(idx)
        triangles.append(tuple(local))  # type: ignore[arg-type]

    removed, pairs = contest_triangles(pos, triangles, radius)
    survivors = [
        tri_gids[idx]
        for idx in range(len(triangles))
        if owned_flags[idx] and not removed[idx]
    ]
    return {
        "tile": tile_key,
        "survivors": survivors,
        "contests": len(pairs),
        "straddle_contests": sum(owned_flags[i] != owned_flags[j] for i, j in pairs),
    }


# -- coordinator --------------------------------------------------------------

#: Per-context hook observing tile results as the coordinator collects
#: them: ``callback(phase, info)`` with ``info`` the same summary dict
#: the streaming tier frames as a ``tile`` SSE event.  A contextvar so
#: concurrent builds in one process never see each other's tiles.
_TILE_OBSERVER: contextvars.ContextVar[
    Optional[Callable[[str, dict], None]]
] = contextvars.ContextVar("tile_observer", default=None)


@contextlib.contextmanager
def tile_observer(callback: Callable[[str, dict], None]):
    """Report every finished tile of builds run inside the block."""
    token = _TILE_OBSERVER.set(callback)
    try:
        yield
    finally:
        _TILE_OBSERVER.reset(token)


def _recorded(worker, payload: tuple) -> dict:
    """Run one tile worker under its own :func:`repro.obs.recording`.

    The tile may run in a pool thread or process where the caller's
    record is not installed; the record rides back in ``"obs"`` and
    :func:`_run_tiles` merges it.
    """
    with obs.recording() as record:
        out = worker(payload)
    out["obs"] = record
    return out


def _run_tiles(
    payloads: Sequence[tuple],
    worker,
    *,
    executor_mode: str,
    max_workers: Optional[int],
    stats: ShardingStats,
    phase: str,
) -> list[dict]:
    """Fan tile payloads over the batch executor; serial when tiny.

    The phase runs under the ``sharding.phase.<phase>`` span, and each
    tile's record is merged into the caller's.
    """
    from repro.service.executor import default_workers, run_batch

    observer = _TILE_OBSERVER.get()
    on_outcome = None
    if observer is not None:
        from repro.service.streaming import _tile_event_info

        total = len(payloads)

        def on_outcome(outcome):  # noqa: F811 - deliberate rebind
            if outcome.ok:
                observer(
                    phase,
                    _tile_event_info(
                        outcome.index, total, outcome.value, outcome.duration_s
                    ),
                )

    workers = max_workers or default_workers()
    mode = executor_mode if (workers > 1 and len(payloads) > 1) else "serial"
    with obs.span(f"sharding.phase.{phase}"):
        batch = run_batch(
            list(payloads), functools.partial(_recorded, worker),
            mode=mode, max_workers=workers, on_outcome=on_outcome,
        )
    stats.mode = batch.mode
    stats.workers = batch.workers
    if batch.failed:
        errors = [o.error for o in batch.outcomes if not o.ok]
        raise ShardingError(
            f"{batch.failed} tile worker(s) failed in phase {phase!r}: {errors[0]}"
        )
    values = batch.values()
    for value in values:
        obs.merge(value["obs"])
    return values


def _phase_a_payloads(
    grid: TileGrid,
    points: Sequence[Point],
    radius: float,
    k: int,
    stages: tuple[str, ...],
    halo_cells: int,
) -> list[tuple]:
    owned = grid.assign(points)
    halo_r = halo_cells * radius
    payloads = []
    for tile in grid.tiles:
        if not owned[tile.key]:
            continue  # coreless tile: owns nothing, would output nothing
        members = grid.halo_members(tile, points, halo_r)
        payloads.append(
            (
                tile.key,
                (tile.x0, tile.y0, tile.x1, tile.y1),
                members,
                [(points[i][0], points[i][1]) for i in members],
                owned[tile.key],
                radius,
                k,
                stages,
            )
        )
    return payloads


def _collect_phase_a(
    results: list[dict], stats: ShardingStats
) -> tuple[set[tuple[int, int]], set[tuple[int, int]], list[Triangle]]:
    """Union the owned outputs; assert the ownership partition."""
    udg_edges: set[tuple[int, int]] = set()
    gabriel: set[tuple[int, int]] = set()
    accepted: list[Triangle] = []
    seen: set[Triangle] = set()
    for res in results:
        udg_edges.update(map(tuple, res.get("udg_edges", ())))
        gabriel.update(map(tuple, res.get("gabriel_edges", ())))
        for tri in res.get("accepted", ()):
            tri = tuple(tri)
            # Locality lemma, asserted: the anchor lives in exactly one
            # core, so no two tiles may claim the same triangle.
            assert tri not in seen, f"triangle {tri} claimed by two tiles"
            seen.add(tri)
            accepted.append(tri)  # type: ignore[arg-type]
        stats.count("candidates", res.get("candidates", 0))
        tile_counts = res["obs"]["counts"]
        for name in ("local_delaunay_calls", "khop_misses", "circumcircle_misses"):
            stats.count(name, tile_counts.get(f"construction.{name}", 0))
    accepted.sort()
    stats.count("udg_edges", len(udg_edges))
    stats.count("gabriel_edges", len(gabriel))
    stats.count("accepted_triangles", len(accepted))
    return udg_edges, gabriel, accepted


def _sharded_phase_a(
    points: Sequence[Point],
    radius: float,
    *,
    shards: int,
    k: int,
    stages: tuple[str, ...],
    halo_cells: int,
    max_workers: Optional[int],
    executor_mode: str,
) -> tuple[TileGrid, ShardingStats, set, set, list[Triangle]]:
    grid = TileGrid(points, radius, shards)
    stats = ShardingStats(
        shards=shards, tiles=len(grid), grid=(grid.nx, grid.ny),
        mode="serial", workers=1,
    )
    obs.count("sharding.builds")
    obs.count("sharding.tiles", stats.tiles)
    with obs.span("sharding.phase.assign"):
        payloads = _phase_a_payloads(grid, points, radius, k, stages, halo_cells)
    results = _run_tiles(
        payloads, _timed_phase_a,
        executor_mode=executor_mode, max_workers=max_workers,
        stats=stats, phase="build",
    )
    udg_edges, gabriel, accepted = _collect_phase_a(results, stats)
    return grid, stats, udg_edges, gabriel, accepted


def _sharded_election(
    udg: UnitDiskGraph,
    *,
    shards: int,
    max_workers: Optional[int],
    executor_mode: str,
) -> tuple[frozenset[int], int, int]:
    """Tiled smallest-id MIS: certified per tile, reconciled exactly.

    Returns the dominator set (bit-identical to the global election)
    and the certified / unresolved node counts.
    """
    pts = udg.positions
    grid = TileGrid(pts, udg.radius, shards)
    stats = ShardingStats(
        shards=shards, tiles=len(grid), grid=(grid.nx, grid.ny),
        mode="serial", workers=1,
    )
    payloads = _phase_a_payloads(
        grid, pts, udg.radius, 1, (), stage_halo("election")
    )
    results = _run_tiles(
        payloads, _election_worker,
        executor_mode=executor_mode, max_workers=max_workers,
        stats=stats, phase="election",
    )
    status: dict[int, bool] = {}
    unresolved: list[int] = []
    for res in results:
        for gid in res["in"]:
            status[gid] = True
        for gid in res["out"]:
            status[gid] = False
        unresolved.extend(res["unknown"])
    certified = len(status)
    # Exact fallback for chains that escaped the halo: one ascending-id
    # pass over the global UDG.  Every smaller node is already decided
    # (certified, or reconciled earlier in this loop), so this replays
    # the greedy MIS rule verbatim.
    for u in sorted(unresolved):
        status[u] = not any(status[w] for w in udg.neighbors(u) if w < u)
    dominators = frozenset(gid for gid, is_in in status.items() if is_in)
    return dominators, certified, len(unresolved)


# -- public constructions -----------------------------------------------------


def sharded_udg(
    points: Sequence[Point],
    radius: float,
    *,
    shards: int = 4,
    max_workers: Optional[int] = None,
    executor_mode: str = "process",
) -> tuple[Graph, ShardingStats]:
    """Unit disk graph, tiled: bit-identical edge set to the serial build."""
    _, stats, udg_edges, _, _ = _sharded_phase_a(
        points, radius, shards=shards, k=1, stages=("udg",),
        halo_cells=stage_halo("udg"), max_workers=max_workers,
        executor_mode=executor_mode,
    )
    return Graph(points, udg_edges, name="UDG"), stats


def sharded_gabriel(
    points: Sequence[Point],
    radius: float,
    *,
    shards: int = 4,
    max_workers: Optional[int] = None,
    executor_mode: str = "process",
) -> tuple[Graph, ShardingStats]:
    """Gabriel graph on UDG edges, tiled (halo ``1r`` — witnesses are 1-hop)."""
    _, stats, _, gabriel, _ = _sharded_phase_a(
        points, radius, shards=shards, k=1, stages=("gabriel",),
        halo_cells=stage_halo("gabriel"), max_workers=max_workers,
        executor_mode=executor_mode,
    )
    return Graph(points, gabriel, name="GG"), stats


def sharded_ldel(
    points: Sequence[Point],
    radius: float,
    *,
    k: int = 1,
    shards: int = 4,
    max_workers: Optional[int] = None,
    executor_mode: str = "process",
) -> tuple[LDelResult, ShardingStats]:
    """LDel^k, tiled: Gabriel edges plus owned accepted triangles."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _, stats, _, gabriel, accepted = _sharded_phase_a(
        points, radius, shards=shards, k=k, stages=("gabriel", "ldel"),
        halo_cells=stage_halo("ldel", k), max_workers=max_workers,
        executor_mode=executor_mode,
    )
    graph = Graph(points, gabriel, name=f"LDel{k}")
    for u, v, w in accepted:
        graph.add_edge(u, v)
        graph.add_edge(v, w)
        graph.add_edge(u, w)
    result = LDelResult(
        graph=graph, triangles=tuple(accepted),
        gabriel_edges=frozenset(gabriel), k=k,
    )
    return result, stats


def sharded_pldel(
    points: Sequence[Point],
    radius: float,
    *,
    shards: int = 4,
    max_workers: Optional[int] = None,
    executor_mode: str = "process",
) -> tuple[LDelResult, ShardingStats]:
    """PLDel, tiled: accepted set (phase A) then contests (phase B).

    Bit-identical to
    :func:`repro.topology.ldel.planar_local_delaunay_graph` — the
    equivalence suite holds it to that on degenerate inputs too.
    """
    grid, stats, _, gabriel, accepted = _sharded_phase_a(
        points, radius, shards=shards, k=1, stages=("gabriel", "ldel"),
        halo_cells=stage_halo("ldel", 1), max_workers=max_workers,
        executor_mode=executor_mode,
    )

    # Phase B: replay the contests per tile over the stitched accepted
    # set.  A tile receives every accepted triangle whose anchor is
    # within 3r of its core and owns those whose anchor it owns.
    contest_halo = stage_halo("pldel") * radius
    payloads = []
    with obs.span("sharding.phase.contest_assign"):
        for tile in grid.tiles:
            tri_gids: list[Triangle] = []
            tri_coords = []
            owned_flags = []
            for tri in accepted:
                anchor = points[tri[0]]
                if tile.box_distance(anchor) > contest_halo:
                    continue
                tri_gids.append(tri)
                tri_coords.append(tuple((points[i][0], points[i][1]) for i in tri))
                owned_flags.append(grid.tile_of(anchor) == tile.key)
            if tri_gids:
                payloads.append((tile.key, tri_gids, tri_coords, owned_flags, radius))

    survivors: list[Triangle] = []
    if payloads:
        results = _run_tiles(
            payloads, _contest_worker,
            executor_mode=executor_mode, max_workers=max_workers,
            stats=stats, phase="contest",
        )
        seen: set[Triangle] = set()
        for res in results:
            stats.count("contests", res["contests"])
            stats.count("straddle_contests", res["straddle_contests"])
            for tri in res["survivors"]:
                tri = tuple(tri)
                assert tri not in seen, f"survivor {tri} claimed by two tiles"
                seen.add(tri)
                survivors.append(tri)  # type: ignore[arg-type]
    survivors.sort()
    stats.count("surviving_triangles", len(survivors))

    with obs.span("sharding.phase.stitch"):
        graph = Graph(points, gabriel, name="PLDel")
        for u, v, w in survivors:
            graph.add_edge(u, v)
            graph.add_edge(v, w)
            graph.add_edge(u, w)
        before = graph.edge_count
        resolve_degenerate_crossings(graph)
    stats.count("resolve_removed_edges", before - graph.edge_count)
    result = LDelResult(
        graph=graph, triangles=tuple(survivors),
        gabriel_edges=frozenset(gabriel), k=1,
    )
    return result, stats


def sharded_backbone(
    points: Sequence[Point],
    radius: float,
    *,
    shards: int = 4,
    election: str = "smallest-id",
    max_workers: Optional[int] = None,
    executor_mode: str = "process",
) -> tuple[ShardedBackboneResult, ShardingStats]:
    """The paper's backbone, sharded end to end.

    The clusterhead election is tiled with per-tile certification and
    an exact coordinator reconciliation of the halo-escaping chains
    (``election_certified`` / ``election_unresolved`` count the two
    populations); connectors and the CDS family come from the direct
    fixed-point computation (:mod:`repro.protocols.cds_fast`); the
    planarized LDel stage over the backbone subgraph is tiled as
    before.  The result maps back to original node ids, bit-identical
    to :func:`repro.core.spanner.build_backbone`.
    """
    pts = [Point(float(p[0]), float(p[1])) for p in points]
    udg = UnitDiskGraph(pts, radius)
    with obs.span("sharding.phase.clustering"):
        if udg.node_count:
            dominators, certified, unresolved = _sharded_election(
                udg, shards=shards, max_workers=max_workers,
                executor_mode=executor_mode,
            )
        else:
            dominators, certified, unresolved = frozenset(), 0, 0
        # The certified election pins the same fixed point the protocol
        # reaches; fabricate its outcome (no messages were simulated) and
        # let the direct-computation path derive connectors and the family.
        dominators_of = {
            w: frozenset(udg.neighbors(w) & dominators)
            for w in udg.nodes()
            if w not in dominators
        }
        clustering = ClusteringOutcome(
            dominators=dominators, dominators_of=dominators_of,
            rounds=0, stats=MessageStats(),
        )
        family = build_cds_family(
            udg, election=election, clustering=clustering, mode="fast"
        )

    backbone = sorted(family.backbone_nodes)
    sub_positions = [udg.positions[orig] for orig in backbone]
    sub_result, stats = sharded_pldel(
        sub_positions, radius, shards=shards,
        max_workers=max_workers, executor_mode=executor_mode,
    )
    stats.count("election_certified", certified)
    stats.count("election_unresolved", unresolved)

    ldel_icds = Graph(udg.positions, name="LDel(ICDS)")
    for u, v in sub_result.graph.edges():
        ldel_icds.add_edge(backbone[u], backbone[v])
    ldel_icds_prime = Graph(udg.positions, ldel_icds.edges(), name="LDel(ICDS')")
    for dominatee, doms in family.clustering.dominators_of.items():
        for d in doms:
            ldel_icds_prime.add_edge(dominatee, d)

    result = ShardedBackboneResult(
        udg=udg,
        dominators=family.dominators,
        connectors=family.connectors,
        dominatees=family.dominatees,
        cds=family.cds,
        icds=family.icds,
        ldel_icds=ldel_icds,
        ldel_icds_prime=ldel_icds_prime,
    )
    return result, stats
