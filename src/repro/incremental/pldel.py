"""Cavity-local PLDel maintenance over a dynamic tile grid.

The retained state is the sharded planarizer's per-tile outputs —
:func:`repro.sharding.build._phase_a`-equivalent Gabriel edges and
accepted LDel^1 triangles, and the Algorithm 3 contest survivors —
keyed by :class:`~repro.sharding.tiles.DynamicTileGrid` tiles.  A
maintenance step receives the *dirty points* of an event batch (old
and new positions of every moved, re-roled, or renamed backbone
member) plus the *dirty ids* (members whose position or identity
changed), and recomputes exactly the invalidation footprint:

* **phase A** (Gabriel + LDel acceptance) is a function of the members
  within ``stage_halo('ldel', 1) = 2r`` of the tile box, so a tile is
  phase-A dirty iff some dirty point lies within ``2r`` of it;
* **contests** consume accepted triangles whose anchors lie within
  ``stage_halo('pldel') = 3r`` of the tile box, so the contest-dirty
  set is the set of tiles whose accepted output actually changed —
  different triangle ids, or a dirty id among their vertices — dilated
  by ``3r`` of box-to-box distance;
* **stitching** keeps a multiset of edge contributions (Gabriel edges
  plus surviving-triangle edges, per tile), a bucket index over the
  live edges, and the set of properly-crossing edge pairs, all updated
  from the per-tile output diffs; the degenerate-crossing resolution
  then replays :func:`repro.topology.ldel.resolve_degenerate_crossings`
  over just that crossing set (deterministic in the edge set, so the
  replay is bit-identical to the global sweep).

Clean tiles keep their cached outputs verbatim.  That retention is
exact: a tile's owned outputs mention only nodes within its halo, so
any output that could name a changed node lies in a tile the dirty
points mark.  The per-step output is therefore bit-identical to a
from-scratch build — the maintainer's tripwire asserts exactly that.

Ids are *original* node ids throughout.  The serial pipeline builds
PLDel over the backbone subset re-indexed ``0..|B|-1``; since the
re-indexing preserves id order, every id comparison the construction
makes (triangle anchors, min-endpoint edge ownership, crossing
tie-breaks) gives the same answer in either id space, so maintaining
in original ids avoids re-indexing churn without breaking bit-identity.

The geometry cached per accepted triangle (circumcircle, edge
descriptors, bounding box, bucket cells) is computed once at tile
recompute time and reused by every contest that consumes the triangle
as context — the dominant cost of the sharded contest phase.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.geometry.circle import circumcircle
from repro.geometry.predicates import segments_cross
from repro.geometry.primitives import Point, dist
from repro.sharding.build import _phase_a
from repro.sharding.tiles import DynamicTileGrid, stage_halo
from repro.topology.ldel import Triangle, _triangle_edges, _triangles_intersect

if TYPE_CHECKING:
    from repro.incremental.udg import DynamicUdg

TileKey = tuple[int, int]
Edge = tuple[int, int]


@dataclass
class PldelStepStats:
    """Accounting for one planarizer maintenance step."""

    dirty_tiles: int = 0
    changed_tiles: int = 0
    contest_tiles: int = 0
    dirty_members: int = 0
    contests: int = 0
    straddle_contests: int = 0
    surviving_triangles: int = 0
    edges_added: int = 0
    edges_removed: int = 0


@dataclass(frozen=True)
class _TriRecord:
    """An accepted triangle plus its cached contest geometry."""

    tri: Triangle
    bbox: tuple[float, float, float, float]
    cells: tuple[tuple[int, int], ...]
    circle: object
    edges: tuple


class IncrementalPLDel:
    """Per-tile PLDel outputs maintained under dirty-point invalidation."""

    def __init__(self, udg: "DynamicUdg", *, tile_cells: int = 2) -> None:
        self.udg = udg
        self.grid = DynamicTileGrid(udg.radius, tile_cells=tile_cells)
        #: tile -> owned Gabriel edges (normalized id pairs).
        self._gabriel: dict[TileKey, list[Edge]] = {}
        #: tile -> owned accepted triangles with cached geometry.
        self._accepted: dict[TileKey, list[_TriRecord]] = {}
        #: tile -> owned triangles surviving the contests.
        self._survivors: dict[TileKey, list[Triangle]] = {}
        #: tile -> its current edge contributions (with multiplicity).
        self._contrib: dict[TileKey, list[Edge]] = {}
        #: live union: edge -> number of tile contributions.
        self._counts: dict[Edge, int] = {}
        #: bucket index of live edges (cell side = radius).
        self._edge_cells: dict[Edge, tuple[tuple[int, int], ...]] = {}
        self._cell_edges: dict[tuple[int, int], set[Edge]] = {}
        #: properly-crossing live pairs, normalized and orderable.
        self._crossings: set[tuple[Edge, Edge]] = set()
        self._edges: frozenset[Edge] = frozenset()
        self._survivor_total = 0

    # -- the maintenance step --------------------------------------------

    def step(
        self,
        membership: Sequence[bool],
        dirty_points: Iterable[Point],
        dirty_ids: Iterable[int] = (),
    ) -> tuple[frozenset[Edge], PldelStepStats]:
        """Recompute the dirty region; return the full PLDel edge set."""
        stats = PldelStepStats()
        dirty_points = list(dirty_points)
        dirty_ids = set(dirty_ids)
        if not dirty_points and not dirty_ids:
            # No member position, role, or id changed: every cached
            # output is a function of unchanged inputs.
            stats.surviving_triangles = self._survivor_total
            return self._edges, stats
        radius = self.udg.radius
        acceptance_halo = stage_halo("ldel", 1) * radius
        contest_halo = stage_halo("pldel") * radius

        with obs.span("incremental.phase.pldel_phase_a"):
            dirty_a: set[TileKey] = set()
            for p in dirty_points:
                dirty_a.update(self.grid.keys_within(p, acceptance_halo))
            dirty_members: set[int] = set()
            changed = self._recompute_phase_a(
                dirty_a, acceptance_halo, membership, dirty_ids, dirty_members
            )
        stats.dirty_tiles = len(dirty_a)
        stats.changed_tiles = len(changed)
        stats.dirty_members = len(dirty_members)

        with obs.span("incremental.phase.pldel_contest"):
            dirty_b: set[TileKey] = set()
            for key in changed:
                dirty_b.update(self.grid.keys_near_key(key, contest_halo))
            for key in sorted(dirty_b):
                self._recompute_contest(key, contest_halo, stats)
        stats.contest_tiles = len(dirty_b)

        with obs.span("incremental.phase.pldel_stitch"):
            self._restitch(dirty_a | dirty_b, dirty_ids, stats)
        stats.surviving_triangles = self._survivor_total
        return self._edges, stats

    # -- phase A ----------------------------------------------------------

    def _recompute_phase_a(
        self,
        dirty_a: set[TileKey],
        halo_r: float,
        membership: Sequence[bool],
        dirty_ids: set[int],
        dirty_members: set[int],
    ) -> set[TileKey]:
        """Rebuild the dirty tiles' Gabriel/accepted outputs.

        Tiles whose ``2r`` halos overlap are grouped into clusters and
        each cluster is built by *one* :func:`_phase_a` call over the
        cluster's merged core — ownership filtering is per node
        (min-endpoint / anchor in core), so the merged run returns the
        concatenation of the per-tile runs without rebuilding the same
        overlapping halo once per tile.  Returns the tiles whose
        contest-relevant output changed: a different accepted triangle
        set, or a dirty id among the old or new triangle vertices
        (same ids, moved geometry).
        """
        pos = self.udg.positions
        tile_gabriel: dict[TileKey, list[Edge]] = {}
        tile_tris: dict[TileKey, list[Triangle]] = {}
        for cluster in self._clusters(dirty_a):
            boxes = [self.grid.box(k) for k in cluster]
            bbox = (
                min(b[0] for b in boxes),
                min(b[1] for b in boxes),
                max(b[2] for b in boxes),
                max(b[3] for b in boxes),
            )
            gids = self.udg.members_within_box(bbox, halo_r, membership)
            core = [g for g in gids if self.grid.key_of(pos[g]) in cluster]
            if not core:
                continue
            dirty_members.update(gids)
            coords = [(pos[g][0], pos[g][1]) for g in gids]
            result = _phase_a(
                (None, bbox, gids, coords, core, self.udg.radius, 1,
                 ("gabriel", "ldel"))
            )
            for u, v in result["gabriel_edges"]:
                edge = (u, v) if u < v else (v, u)
                tile_gabriel.setdefault(self.grid.key_of(pos[edge[0]]), []).append(
                    edge
                )
            for t in result["accepted"]:
                tri = tuple(t)
                tile_tris.setdefault(self.grid.key_of(pos[tri[0]]), []).append(tri)

        changed: set[TileKey] = set()
        for key in dirty_a:
            old_tris = [rec.tri for rec in self._accepted.get(key, ())]
            new_tris = tile_tris.get(key, [])
            gabriel = sorted(tile_gabriel.get(key, []))
            if gabriel:
                self._gabriel[key] = gabriel
            else:
                self._gabriel.pop(key, None)
            if new_tris:
                self._accepted[key] = [self._record(t) for t in new_tris]
            else:
                self._accepted.pop(key, None)
            if old_tris != new_tris or any(
                g in dirty_ids for tri in old_tris for g in tri
            ):
                changed.add(key)
        return changed

    def _clusters(self, keys: set[TileKey]) -> list[set[TileKey]]:
        """Group tile keys whose acceptance halos overlap.

        A pure performance partition — any grouping is exact — joining
        tiles within two tile sides of each other, the reach at which
        their ``2r`` halos share members worth building only once.
        """
        reach = max(1, math.ceil(2.0 / self.grid.tile_cells) + 1)
        remaining = set(keys)
        clusters: list[set[TileKey]] = []
        while remaining:
            seed = remaining.pop()
            cluster = {seed}
            frontier = [seed]
            while frontier:
                kx, ky = frontier.pop()
                near = [
                    k
                    for k in remaining
                    if abs(k[0] - kx) <= reach and abs(k[1] - ky) <= reach
                ]
                for k in near:
                    remaining.discard(k)
                    cluster.add(k)
                    frontier.append(k)
            clusters.append(cluster)
        return clusters

    def _record(self, tri: Triangle) -> _TriRecord:
        pos = self.udg.positions
        (x1, y1), (x2, y2), (x3, y3) = pos[tri[0]], pos[tri[1]], pos[tri[2]]
        bbox = (min(x1, x2, x3), min(y1, y2, y3), max(x1, x2, x3), max(y1, y2, y3))
        cell = self.udg.radius
        cells = tuple(
            (cx, cy)
            for cx in range(math.floor(bbox[0] / cell), math.floor(bbox[2] / cell) + 1)
            for cy in range(math.floor(bbox[1] / cell), math.floor(bbox[3] / cell) + 1)
        )
        return _TriRecord(
            tri=tri,
            bbox=bbox,
            cells=cells,
            circle=circumcircle(pos[tri[0]], pos[tri[1]], pos[tri[2]]),
            edges=_triangle_edges(pos, tri),
        )

    # -- phase B ----------------------------------------------------------

    def _recompute_contest(
        self, key: TileKey, halo_r: float, stats: PldelStepStats
    ) -> None:
        """Replay Algorithm 3's contests for one tile from cached geometry.

        Same rule as :func:`repro.sharding.build._contest_worker` —
        an owned triangle is removed exactly when some intersecting
        accepted triangle has a vertex strictly inside its circumcircle
        — evaluated over the reference's context (every accepted
        triangle whose anchor is within ``3r`` of the tile box) with
        the per-triangle geometry computed once in phase A.
        """
        owned_count = len(self._accepted.get(key, ()))
        if not owned_count:
            self._survivors.pop(key, None)
            return
        pos = self.udg.positions
        records: list[_TriRecord] = []
        owned_flags: list[bool] = []
        for src in sorted(self.grid.keys_near_key(key, halo_r)):
            for rec in self._accepted.get(src, ()):
                if self.grid.box_distance(key, pos[rec.tri[0]]) > halo_r:
                    continue
                records.append(rec)
                owned_flags.append(src == key)

        buckets: dict[tuple[int, int], list[int]] = {}
        for idx, rec in enumerate(records):
            for cell in rec.cells:
                buckets.setdefault(cell, []).append(idx)
        # Only the owned triangles' removal flags reach the output, and
        # the rule is per-pair independent, so pairs of two context
        # triangles need not be contested at all.
        pairs: set[tuple[int, int]] = set()
        for members in buckets.values():
            owned_members = [i for i in members if owned_flags[i]]
            if not owned_members:
                continue
            for i in owned_members:
                for j in members:
                    if i != j:
                        pairs.add((i, j) if i < j else (j, i))

        removed = [False] * len(records)
        for i, j in pairs:
            bi, bj = records[i].bbox, records[j].bbox
            if bi[2] < bj[0] or bj[2] < bi[0] or bi[3] < bj[1] or bj[3] < bi[1]:
                continue
            if not _triangles_intersect(records[i].edges, records[j].edges):
                continue
            stats.contests += 1
            if owned_flags[i] != owned_flags[j]:
                stats.straddle_contests += 1
            ci, cj = records[i].circle, records[j].circle
            if ci is not None and any(
                ci.contains(pos[x]) for x in records[j].tri  # type: ignore[attr-defined]
            ):
                removed[i] = True
            if cj is not None and any(
                cj.contains(pos[x]) for x in records[i].tri  # type: ignore[attr-defined]
            ):
                removed[j] = True
        self._survivors[key] = [
            records[idx].tri
            for idx in range(len(records))
            if owned_flags[idx] and not removed[idx]
        ]

    # -- stitching ---------------------------------------------------------

    def _restitch(
        self, touched_tiles: set[TileKey], dirty_ids: set[int], stats: PldelStepStats
    ) -> None:
        """Fold the recomputed tiles into the live union and re-resolve."""
        affected: dict[Edge, bool] = {}
        for key in touched_tiles:
            new_contrib: list[Edge] = list(self._gabriel.get(key, ()))
            for u, v, w in self._survivors.get(key, ()):
                new_contrib.append((u, v))
                new_contrib.append((v, w))
                new_contrib.append((u, w))
            delta = Counter(new_contrib)
            delta.subtract(self._contrib.get(key, ()))
            if new_contrib:
                self._contrib[key] = new_contrib
            else:
                self._contrib.pop(key, None)
            for edge, change in delta.items():
                if not change:
                    continue
                if edge not in affected:
                    affected[edge] = edge in self._counts
                total = self._counts.get(edge, 0) + change
                if total:
                    self._counts[edge] = total
                else:
                    self._counts.pop(edge, None)

        removed = [
            e for e, was_live in affected.items()
            if was_live and e not in self._counts
        ]
        added = [
            e for e, was_live in affected.items()
            if not was_live and e in self._counts
        ]
        stats.edges_added = len(added)
        stats.edges_removed = len(removed)
        for edge in removed:
            self._index_remove(edge)
        refresh = []
        if dirty_ids:
            refresh = [
                e
                for e in self._edge_cells
                if e[0] in dirty_ids or e[1] in dirty_ids
            ]
            for edge in refresh:
                self._index_remove(edge)
        for edge in sorted(set(added) | set(refresh)):
            if edge in self._counts:
                self._index_insert(edge)

        self._survivor_total = sum(len(t) for t in self._survivors.values())
        self._edges = self._resolve()

    def _index_remove(self, edge: Edge) -> None:
        for cell in self._edge_cells.pop(edge, ()):
            members = self._cell_edges.get(cell)
            if members is not None:
                members.discard(edge)
                if not members:
                    del self._cell_edges[cell]
        if self._crossings:
            self._crossings = {
                pair for pair in self._crossings if edge not in pair
            }

    def _index_insert(self, edge: Edge) -> None:
        pos = self.udg.positions
        u, v = edge
        pu, pv = pos[u], pos[v]
        cell = self.udg.radius
        x_lo = math.floor(min(pu[0], pv[0]) / cell)
        x_hi = math.floor(max(pu[0], pv[0]) / cell)
        y_lo = math.floor(min(pu[1], pv[1]) / cell)
        y_hi = math.floor(max(pu[1], pv[1]) / cell)
        cells = tuple(
            (cx, cy)
            for cx in range(x_lo, x_hi + 1)
            for cy in range(y_lo, y_hi + 1)
        )
        rivals: set[Edge] = set()
        for c in cells:
            rivals.update(self._cell_edges.get(c, ()))
        for other in rivals:
            a, b = other
            if a == u or a == v or b == u or b == v:
                continue
            if segments_cross(pu, pv, pos[a], pos[b]):
                pair = (edge, other) if edge <= other else (other, edge)
                self._crossings.add(pair)
        self._edge_cells[edge] = cells
        for c in cells:
            self._cell_edges.setdefault(c, set()).add(edge)

    def _resolve(self) -> frozenset[Edge]:
        """Replay the degenerate-crossing sweep over the live pairs.

        Identical to running
        :func:`repro.topology.ldel.resolve_degenerate_crossings` on the
        stitched graph: that sweep is a function of the edge set alone
        (pairs processed in sorted order, loser = lexicographically
        larger ``(length, ids)``), and ``self._crossings`` *is* its
        crossing-pair set.
        """
        live = frozenset(self._counts)
        if not self._crossings:
            return live
        pos = self.udg.positions
        dead: set[Edge] = set()
        for e1, e2 in sorted(self._crossings):
            if e1 in dead or e2 in dead:
                continue
            dead.add(max((e1, e2), key=lambda e: (dist(pos[e[0]], pos[e[1]]), e)))
        return live - dead
