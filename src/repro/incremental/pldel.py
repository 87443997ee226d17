"""Cavity-local PLDel maintenance over a dynamic tile grid.

The retained state is the per-tile phase-A outputs — the Gabriel
edges and accepted LDel^1 triangles each tile owns (:func:`_phase_a`),
keyed by :class:`~repro.incremental.tiles.DynamicTileGrid` tiles — plus the
Algorithm 3 contest state *per accepted triangle*: whether it was
removed, and which accepted triangles it intersects.  A maintenance
step receives the *dirty points* of an event batch (old and new
positions of every moved, re-roled, or renamed backbone member) plus
the *dirty ids* (members whose position or identity changed), and
recomputes exactly the invalidation footprint:

* **phase A** (Gabriel + LDel acceptance) is a function of the members
  within ``ACCEPTANCE_HALO = 2r`` of the tile box, so a tile is
  phase-A dirty iff some dirty point lies within ``2r`` of it;
* **contests** are replayed per triangle.  Diffing the dirty tiles'
  old and new accepted lists yields the *gone* triangles (no longer
  accepted, or a vertex among the dirty ids) and the *fresh* ones
  (newly accepted, or a vertex among the dirty ids — a moved triangle
  is a removal plus an addition).  The replay set is the fresh
  triangles, the accepted triangles whose bounding box meets a fresh
  one (their only possible new partners), and the surviving partners
  of gone triangles (a triangle that lost its only rival must be
  restored); one :func:`repro.topology.ldel.contest_triangles` call
  over the replay set plus its members' partners decides them all;
* **stitching** keeps a multiset of edge contributions (Gabriel edges
  plus the sides of every surviving triangle), a bucket index over the
  live edges, each live edge's set of properly-crossing live edges, and
  the degenerate-crossing losers, all updated from the step's deltas; the
  losers are :func:`repro.topology.ldel.degenerate_crossing_losers` of
  the crossing set (deterministic in the edge set, so the result is
  bit-identical to the global sweep).

Clean tiles keep their cached outputs verbatim.  That retention is
exact: a tile's owned outputs mention only nodes within its halo, so
any output that could name a changed node lies in a tile the dirty
points mark.  A step returns the LDel edges it added and removed; the
full edge set is built only on request (:meth:`IncrementalPLDel.edges`).
The output is bit-identical to a from-scratch build — the maintainer's
tripwire asserts exactly that.

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
from repro.graphs.udg import UnitDiskGraph
from repro.incremental.tiles import ACCEPTANCE_HALO, DynamicTileGrid, box_distance
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import (
    _EDGE_BBOX_SLACK,
    Triangle,
    contest_triangles,
    corner_verdicts,
    degenerate_crossing_losers,
    proposed_triangles,
    triangle_tuples,
)

if TYPE_CHECKING:
    from repro.incremental.udg import DynamicUdg

TileKey = tuple[int, int]
Edge = tuple[int, int]
Cell = tuple[int, int]
Box = tuple[float, float, float, float]


@dataclass
class PldelStepStats:
    """Accounting for one planarizer maintenance step."""

    dirty_tiles: int = 0
    contest_triangles: int = 0
    dirty_members: int = 0


class IncrementalPLDel:
    """Per-tile phase-A outputs and per-triangle contest state."""

    def __init__(self, udg: "DynamicUdg", *, tile_cells: int = 2) -> None:
        self.udg = udg
        self.grid = DynamicTileGrid(udg.radius, tile_cells=tile_cells)
        #: tile -> owned Gabriel edges (normalized id pairs).
        self._gabriel: dict[TileKey, list[Edge]] = {}
        #: tile -> owned accepted triangles.
        self._accepted: dict[TileKey, list[Triangle]] = {}
        #: accepted triangles the contest removed.
        self._losers: set[Triangle] = set()
        #: accepted triangle -> the accepted triangles it intersects
        #: (symmetric; triangles without partners are absent).
        self._partners: dict[Triangle, set[Triangle]] = {}
        #: the accepted triangles' bounding boxes.
        self._tris = _BoxIndex(udg.radius)
        #: live union: edge -> number of contributions.
        self._counts: dict[Edge, int] = {}
        #: the live edges' bounding boxes.
        self._edges = _BoxIndex(udg.radius)
        #: edge -> live edges it properly crosses (symmetric).
        self._crossing: dict[Edge, set[Edge]] = {}
        #: live edges the degenerate-crossing tie-break removes.
        self._crossing_losers: set[Edge] = set()

    # -- the maintained edge set -------------------------------------------

    def edges(self) -> frozenset[Edge]:
        """The current PLDel edge set, materialized."""
        return frozenset(self._counts).difference(self._crossing_losers)

    def has_edge(self, edge: Edge) -> bool:
        """Whether the normalized ``edge`` is a current PLDel edge."""
        return edge in self._counts and edge not in self._crossing_losers

    # -- the maintenance step --------------------------------------------

    def step(
        self,
        membership: Sequence[bool],
        dirty_points: Iterable[Point],
        dirty_ids: Iterable[int] = (),
    ) -> tuple[list[Edge], list[Edge], PldelStepStats]:
        """Recompute the dirty region; return the added/removed edges."""
        stats = PldelStepStats()
        dirty_points = list(dirty_points)
        dirty_ids = set(dirty_ids)
        if not dirty_points and not dirty_ids:
            # No member position, role, or id changed: every cached
            # output is a function of unchanged inputs.
            return [], [], stats
        acceptance_halo = ACCEPTANCE_HALO * self.udg.radius

        with obs.span("incremental.phase.pldel_phase_a"):
            dirty_a: set[TileKey] = set()
            for p in dirty_points:
                dirty_a.update(self.grid.keys_within(p, acceptance_halo))
            dirty_members: set[int] = set()
            tile_gabriel, tile_tris = self._recompute_phase_a(
                dirty_a, acceptance_halo, membership, dirty_members
            )
        stats.dirty_tiles = len(dirty_a)
        stats.dirty_members = len(dirty_members)
        added, removed, stats.contest_triangles = self._commit(
            dirty_a, tile_gabriel, tile_tris, dirty_ids
        )
        return added, removed, stats

    def _commit(
        self,
        dirty_a: set[TileKey],
        tile_gabriel: dict[TileKey, list[Edge]],
        tile_tris: dict[TileKey, list[Triangle]],
        dirty_ids: set[int],
    ) -> tuple[list[Edge], list[Edge], int]:
        """Swap in the dirty tiles' new outputs; replay; restitch.

        Returns the added and removed PLDel edges and the number of
        triangles whose contest was replayed.
        """
        with obs.span("incremental.phase.pldel_contest"):
            delta: Counter = Counter()
            gone, fresh = self._swap_tiles(
                dirty_a, tile_gabriel, tile_tris, dirty_ids, delta
            )
            replayed = self._replay(gone, fresh, delta)
        with obs.span("incremental.phase.pldel_stitch"):
            added, removed = self._restitch(delta, dirty_ids)
        return added, removed, replayed

    # -- phase A ----------------------------------------------------------

    def _recompute_phase_a(
        self,
        dirty_a: set[TileKey],
        halo_r: float,
        membership: Sequence[bool],
        dirty_members: set[int],
    ) -> tuple[dict[TileKey, list[Edge]], dict[TileKey, list[Triangle]]]:
        """The dirty tiles' new Gabriel/accepted outputs.

        Tiles whose ``2r`` halos overlap are grouped into clusters and
        each cluster is built by *one* :func:`_phase_a` call over the
        cluster's merged core — ownership filtering is per node
        (min-endpoint / anchor in core), so the merged run returns the
        concatenation of the per-tile runs without rebuilding the same
        overlapping halo once per tile.
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
            gabriel, accepted = _phase_a(
                bbox, gids, core, [pos[g] for g in gids], self.udg.radius
            )
            for u, v in gabriel:
                edge = (u, v) if u < v else (v, u)
                tile_gabriel.setdefault(self.grid.key_of(pos[edge[0]]), []).append(
                    edge
                )
            for tri in accepted:
                tile_tris.setdefault(self.grid.key_of(pos[tri[0]]), []).append(tri)
        return tile_gabriel, tile_tris

    def _swap_tiles(
        self,
        dirty_a: set[TileKey],
        tile_gabriel: dict[TileKey, list[Edge]],
        tile_tris: dict[TileKey, list[Triangle]],
        dirty_ids: set[int],
        delta: Counter,
    ) -> tuple[list[Triangle], list[Triangle]]:
        """Store the dirty tiles' outputs; return (gone, fresh) triangles.

        Gabriel edge changes go straight into ``delta``.  A triangle
        with a dirty id among its vertices is both gone and fresh: its
        geometry, and so its contest, may have changed.
        """
        gone: list[Triangle] = []
        fresh: list[Triangle] = []
        for key in dirty_a:
            old_gabriel = set(self._gabriel.pop(key, ()))
            gabriel = tile_gabriel.get(key)
            if gabriel:
                self._gabriel[key] = gabriel
            new_gabriel = set(gabriel or ())
            for edge in old_gabriel - new_gabriel:
                delta[edge] -= 1
            for edge in new_gabriel - old_gabriel:
                delta[edge] += 1
            old_tris = self._accepted.pop(key, [])
            new_tris = tile_tris.get(key, [])
            if new_tris:
                self._accepted[key] = new_tris
            if old_tris == new_tris and not dirty_ids:
                continue
            old_set, new_set = set(old_tris), set(new_tris)
            gone.extend(
                t for t in old_tris
                if t not in new_set or not dirty_ids.isdisjoint(t)
            )
            fresh.extend(
                t for t in new_tris
                if t not in old_set or not dirty_ids.isdisjoint(t)
            )
        return gone, fresh

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

    # -- phase B: the contest replay ---------------------------------------

    def _replay(
        self, gone: list[Triangle], fresh: list[Triangle], delta: Counter
    ) -> int:
        """Replay Algorithm 3 for the triangles the step can affect.

        The rule is per pair: a triangle is removed iff some accepted
        triangle it intersects has a vertex in its circumcircle.  So a
        fate can change only for a fresh triangle, for one that gains a
        fresh partner, or for one that loses a gone partner.  Every
        intersecting pair has overlapping bounding boxes, and the
        contest only ever pairs such boxes, so the triangles whose boxes
        meet a fresh box cover the second kind; the stored partners of
        gone triangles are the third.  The call runs over that replay set plus its members'
        current partners, so every replayed triangle sees all of its
        rivals and gets exactly the global fate and partner list;
        triangles outside the replay set keep theirs.  Surviving
        triangles' sides go into ``delta``.  Returns the replay-set size.
        """
        fresh_set = set(fresh)
        lost: set[Triangle] = set()
        for t in gone:
            if t in self._losers:
                self._losers.discard(t)
            else:
                _add_sides(delta, t, -1)
            lost.update(self._partners.pop(t, ()))
            self._tris.remove(t)
        pos = self.udg.positions
        for t in fresh:
            (x1, y1), (x2, y2), (x3, y3) = pos[t[0]], pos[t[1]], pos[t[2]]
            self._tris.insert(
                t, (min(x1, x2, x3), min(y1, y2, y3), max(x1, x2, x3), max(y1, y2, y3))
            )
        accepted = self._tris.boxes
        replay = set(fresh_set)
        replay.update(t for t in lost if t in accepted)
        if len(accepted) > len(fresh_set):  # some triangle is not fresh
            for t in fresh:
                replay.update(self._tris.meeting(accepted[t]))
        if not replay:
            return 0
        # Stored partner lists may still name gone triangles; those
        # belong to replayed triangles and are rebuilt below.
        context = set(replay)
        for t in replay:
            context.update(p for p in self._partners.get(t, ()) if p in accepted)

        order = sorted(context)
        ids = sorted({g for t in order for g in t})
        local = {g: i for i, g in enumerate(ids)}
        removed, pairs = contest_triangles(
            [pos[g] for g in ids],
            [(local[u], local[v], local[w]) for u, v, w in order],
            self.udg.radius,
        )

        partners: dict[Triangle, set[Triangle]] = {}
        for i, j in pairs:
            a, b = order[i], order[j]
            if a in replay:
                partners.setdefault(a, set()).add(b)
            if b in replay:
                partners.setdefault(b, set()).add(a)
        for i, t in enumerate(order):
            if t not in replay:
                continue
            if t in partners:
                self._partners[t] = partners[t]
            else:
                self._partners.pop(t, None)
            was_live = t not in fresh_set and t not in self._losers
            if removed[i]:
                self._losers.add(t)
            else:
                self._losers.discard(t)
            if was_live != (not removed[i]):
                _add_sides(delta, t, -1 if was_live else 1)
        return len(replay)

    # -- stitching ---------------------------------------------------------

    def _restitch(
        self, delta: Counter, dirty_ids: set[int]
    ) -> tuple[list[Edge], list[Edge]]:
        """Fold the contribution changes into the live union; re-resolve.

        Returns the PLDel edges added and removed, sorted.
        """
        was_live: dict[Edge, bool] = {}
        for edge, change in delta.items():
            if not change:
                continue
            before = self._counts.get(edge, 0)
            was_live[edge] = bool(before)
            if before + change:
                self._counts[edge] = before + change
            else:
                del self._counts[edge]
        had_crossings = bool(self._crossing)
        for edge, live in was_live.items():
            if live and edge not in self._counts:
                self._index_remove(edge)
        # Every live edge is a radio link, so the adjacency lists find
        # the surviving live edges at the dirty ids.
        adjacency = self.udg.adjacency
        refresh: set[Edge] = set()
        for g in dirty_ids:
            for w in adjacency[g]:
                edge = (g, w) if g < w else (w, g)
                if edge in self._edges.boxes:
                    refresh.add(edge)
        for edge in refresh:
            self._index_remove(edge)
        refresh.update(
            e for e, live in was_live.items() if not live and e in self._counts
        )
        for edge in sorted(refresh):
            self._index_insert(edge)

        old_losers = self._crossing_losers
        if self._crossing or had_crossings:
            pos = self.udg.positions
            pairs = [
                (e, o) for e, others in self._crossing.items() for o in others if e < o
            ]
            self._crossing_losers = degenerate_crossing_losers(
                pairs, lambda u, v: dist(pos[u], pos[v])
            )
        touched = set(was_live)
        touched.update(old_losers.symmetric_difference(self._crossing_losers))
        added: list[Edge] = []
        removed: list[Edge] = []
        for edge in touched:
            before = was_live.get(edge, edge in self._counts) and edge not in old_losers
            after = self.has_edge(edge)
            if after and not before:
                added.append(edge)
            elif before and not after:
                removed.append(edge)
        added.sort()
        removed.sort()
        return added, removed

    def _index_remove(self, edge: Edge) -> None:
        self._edges.remove(edge)
        for other in self._crossing.pop(edge, ()):
            rivals = self._crossing[other]
            rivals.discard(edge)
            if not rivals:
                del self._crossing[other]

    def _index_insert(self, edge: Edge) -> None:
        pos = self.udg.positions
        u, v = edge
        pu, pv = pos[u], pos[v]
        box = (min(pu[0], pv[0]), min(pu[1], pv[1]), max(pu[0], pv[0]), max(pu[1], pv[1]))
        # Widened by the slack ``segments_cross``'s touch test allows,
        # so the box rejection never contradicts it.
        for other in self._edges.meeting(box, _EDGE_BBOX_SLACK):
            a, b = other
            if a == u or a == v or b == u or b == v:
                continue
            if segments_cross(pu, pv, pos[a], pos[b]):
                self._crossing.setdefault(edge, set()).add(other)
                self._crossing.setdefault(other, set()).add(edge)
        self._edges.insert(edge, box)


def _phase_a(
    box: Box,
    gids: list[int],
    core_gids: Sequence[int],
    points: list[Point],
    radius: float,
) -> tuple[list[Edge], list[Triangle]]:
    """The Gabriel edges and accepted LDel^1 triangles a core owns.

    ``gids`` are the sorted ids of every member within
    :data:`ACCEPTANCE_HALO` of ``box`` and ``points`` their positions;
    ``core_gids`` are those whose half-open tile is in the core (box
    distance alone cannot see which side of a tile line a point falls
    on).  Local ids keep id order, so an edge's smaller endpoint and a
    triangle's anchor are the same node in both views, and the core
    owns the edges and triangles whose anchor it holds.
    """
    udg = UnitDiskGraph(points, radius)
    local = {gid: u for u, gid in enumerate(gids)}
    core = {local[g] for g in core_gids}
    gabriel = [
        (gids[u], gids[v]) for u, v in gabriel_graph(udg).edges() if min(u, v) in core
    ]
    # Only nodes within r of the core can be a vertex of an owned
    # (core-anchored) triangle, hence the only useful proposers.
    proposers = [u for u, p in enumerate(points) if box_distance(box, p) <= radius]
    candidates = triangle_tuples(proposed_triangles(udg, proposers)[0])
    owned = [t for t in candidates if t[0] in core]
    accepted = [
        (gids[a], gids[b], gids[c])
        for (a, b, c), ok in zip(owned, corner_verdicts(udg, owned))
        if all(ok)
    ]
    return gabriel, accepted


class _BoxIndex:
    """Keys bucketed by the grid cells (side ``cell``) their boxes cover.

    Two overlapping boxes share the cell of any common point, so the
    cells a box covers hold every key whose box meets it.
    """

    def __init__(self, cell: float) -> None:
        self.cell = cell
        #: key -> its bounding box ``(x0, y0, x1, y1)``.
        self.boxes: dict = {}
        self._members: dict[Cell, list] = {}

    def insert(self, key, box: Box) -> None:
        self.boxes[key] = box
        for c in self._cells(box):
            self._members.setdefault(c, []).append(key)

    def remove(self, key) -> None:
        for c in self._cells(self.boxes.pop(key)):
            members = self._members[c]
            members.remove(key)
            if not members:
                del self._members[c]

    def meeting(self, box: Box, slack: float = 0.0) -> set:
        """Keys whose boxes come within ``slack`` of ``box``."""
        x0, y0, x1, y1 = box
        x0, y0, x1, y1 = x0 - slack, y0 - slack, x1 + slack, y1 + slack
        boxes = self.boxes
        out = set()
        for c in self._cells(box):
            for key in self._members.get(c, ()):
                bx0, by0, bx1, by1 = boxes[key]
                if not (bx1 < x0 or x1 < bx0 or by1 < y0 or y1 < by0):
                    out.add(key)
        return out

    def _cells(self, box: Box) -> list[Cell]:
        cell = self.cell
        x0, y0, x1, y1 = box
        return [
            (cx, cy)
            for cx in range(math.floor(x0 / cell), math.floor(x1 / cell) + 1)
            for cy in range(math.floor(y0 / cell), math.floor(y1 / cell) + 1)
        ]


def _add_sides(delta: Counter, tri: Triangle, sign: int) -> None:
    """Add ``sign`` to the contribution count of each side of ``tri``."""
    u, v, w = tri
    delta[(u, v)] += sign
    delta[(v, w)] += sign
    delta[(u, w)] += sign
