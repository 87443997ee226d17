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
  by ``3r`` of box-to-box distance; every contest-dirty tile is
  replayed by one shared :func:`repro.topology.ldel.contest_triangles`
  call per step;
* **stitching** keeps a multiset of edge contributions (Gabriel edges
  plus surviving-triangle edges, per tile), a bucket index over the
  live edges, and the set of properly-crossing edge pairs, all updated
  from the per-tile output diffs; the degenerate-crossing resolution
  then applies :func:`repro.topology.ldel.degenerate_crossing_losers`
  to just that crossing set (deterministic in the edge set, so the
  result is bit-identical to the global sweep).

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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.geometry.predicates import segments_cross
from repro.geometry.primitives import Point, dist
from repro.sharding.build import _phase_a
from repro.sharding.tiles import DynamicTileGrid, stage_halo
from repro.topology.ldel import (
    Triangle,
    contest_triangles,
    degenerate_crossing_losers,
)

if TYPE_CHECKING:
    from repro.incremental.udg import DynamicUdg

TileKey = tuple[int, int]
Edge = tuple[int, int]


@dataclass
class PldelStepStats:
    """Accounting for one planarizer maintenance step."""

    dirty_tiles: int = 0
    contest_tiles: int = 0
    dirty_members: int = 0


class IncrementalPLDel:
    """Per-tile PLDel outputs maintained under dirty-point invalidation."""

    def __init__(self, udg: "DynamicUdg", *, tile_cells: int = 2) -> None:
        self.udg = udg
        self.grid = DynamicTileGrid(udg.radius, tile_cells=tile_cells)
        #: tile -> owned Gabriel edges (normalized id pairs).
        self._gabriel: dict[TileKey, list[Edge]] = {}
        #: tile -> owned accepted triangles.
        self._accepted: dict[TileKey, list[Triangle]] = {}
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
        stats.dirty_members = len(dirty_members)

        with obs.span("incremental.phase.pldel_contest"):
            dirty_b: set[TileKey] = set()
            for key in changed:
                dirty_b.update(self.grid.keys_near_key(key, contest_halo))
            self._recompute_contests(dirty_b, contest_halo)
        stats.contest_tiles = len(dirty_b)

        with obs.span("incremental.phase.pldel_stitch"):
            self._restitch(dirty_a | dirty_b, dirty_ids)
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
            old_tris = self._accepted.get(key, [])
            new_tris = tile_tris.get(key, [])
            gabriel = sorted(tile_gabriel.get(key, []))
            if gabriel:
                self._gabriel[key] = gabriel
            else:
                self._gabriel.pop(key, None)
            if new_tris:
                self._accepted[key] = new_tris
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

    # -- phase B ----------------------------------------------------------

    def _recompute_contests(self, dirty_b: set[TileKey], halo_r: float) -> None:
        """Replay Algorithm 3 for every contest-dirty tile in one call.

        One :func:`~repro.topology.ldel.contest_triangles` call runs
        over every accepted triangle in the tiles within ``halo_r``
        (``3r``) of a dirty tile that owns triangles; each dirty tile
        keeps its owned triangles that were not removed.  This is
        exact: the rule is per pair, so a triangle's fate depends only
        on the accepted triangles that intersect it, and all of those
        have anchors within ``2r`` of its own, inside its tile's ``3r``
        context.  The union is a superset of every dirty tile's
        context and holds only real accepted triangles, so it removes
        exactly what the global contest removes.
        """
        if not dirty_b:
            return
        context: set[TileKey] = set()
        for key in dirty_b:
            if key in self._accepted:
                context.update(self.grid.keys_near_key(key, halo_r))
        keys = sorted(k for k in context if k in self._accepted)
        triangles = [t for k in keys for t in self._accepted[k]]
        removed, _ = contest_triangles(
            self.udg.positions, triangles, self.udg.radius
        )
        offset = 0
        for key in keys:
            owned = self._accepted[key]
            if key in dirty_b:
                flags = removed[offset: offset + len(owned)]
                self._survivors[key] = [
                    t for t, gone in zip(owned, flags) if not gone
                ]
            offset += len(owned)
        for key in dirty_b:
            if key not in self._accepted:
                self._survivors.pop(key, None)

    # -- stitching ---------------------------------------------------------

    def _restitch(self, touched_tiles: set[TileKey], dirty_ids: set[int]) -> None:
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
        """Remove the degenerate-crossing losers among the live edges.

        Identical to running
        :func:`repro.topology.ldel.resolve_degenerate_crossings` on the
        stitched graph: both apply
        :func:`~repro.topology.ldel.degenerate_crossing_losers`, a
        function of the crossing-pair set alone, and
        ``self._crossings`` *is* that set.
        """
        live = frozenset(self._counts)
        if not self._crossings:
            return live
        pos = self.udg.positions
        return live - degenerate_crossing_losers(
            self._crossings, lambda u, v: dist(pos[u], pos[v])
        )
