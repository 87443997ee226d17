"""Cavity-local PLDel maintenance at node and triangle grain.

LDel^1 is 1-local: a member's proposals are the star of
``Del(N_1[w])``, a corner's verdict reads ``N_1(c)``, and a Gabriel
test reads its endpoints' neighbourhoods.  So the retained state is
kept per node and per triangle:

* each member's **star** — the triangles it proposes, after the side
  and 60° filters;
* the **accepted** LDel^1 triangles, indexed by corner;
* the **Gabriel** edges, indexed by endpoint;

plus the Algorithm 3 contest state *per accepted triangle*: whether it
was removed, and which accepted triangles it intersects.  A maintenance
step receives the *dirty ids* — members whose position or label
changed, plus every node whose membership flipped — and the pre-batch
neighbours of the members an event moved or removed.  Its **cavity**
``D`` is the dirty ids plus their neighbours before and after the
batch, read from the adjacency, so it is exact at ``dist == r``.  No
member outside ``D`` has a changed closed neighbourhood, which bounds
what the step recomputes:

* **stars** of ``D``'s members only, by one
  :func:`~repro.topology.ldel.proposed_triangles` call on a local
  :class:`~repro.graphs.udg.UnitDiskGraph` over the members within two
  hops of ``D``;
* **verdicts** of every candidate with a corner in ``D`` — ``D``'s new
  stars plus the stored stars of ``D``'s neighbours that name a member
  of ``D`` — by one :func:`~repro.topology.ldel.corner_verdicts` call
  on the same graph.  A triangle without a corner in ``D`` keeps its
  candidacy and every corner's verdict;
* **Gabriel tests** of the edges with an endpoint in ``D``;
* **contests**, replayed per triangle.  The old and new accepted
  triangles with a corner in ``D`` give the *gone* triangles (no longer
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

A step returns the LDel edges it added and removed; the full edge set
is built only on request (:meth:`IncrementalPLDel.edges`).  The output
is bit-identical to a from-scratch build — the maintainer's tripwire
asserts exactly that.  The tile grid only reports how far a step's
dirty points reach (:attr:`PldelStepStats.dirty_tiles`); it sizes no
work.

Ids are *original* node ids throughout.  The serial pipeline builds
PLDel over the backbone subset re-indexed ``0..|B|-1``, and the local
graph re-indexes the cavity's neighbourhood the same way; since both
re-indexings preserve id order, every id comparison the construction
makes (Delaunay insertion order, triangle anchors, min-endpoint edge
ownership, crossing tie-breaks) gives the same answer in every id
space, so maintaining in original ids avoids re-indexing churn without
breaking bit-identity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

from repro import obs
from repro.geometry.predicates import segments_cross
from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.incremental.tiles import ACCEPTANCE_HALO, DynamicTileGrid
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

Edge = tuple[int, int]
Cell = tuple[int, int]
Box = tuple[float, float, float, float]
Item = TypeVar("Item", Edge, Triangle)


@dataclass
class PldelStepStats:
    """Accounting for one planarizer maintenance step."""

    #: Tiles within the acceptance halo of the step's dirty points.
    dirty_tiles: int = 0
    contest_triangles: int = 0
    #: Members the step read: the local graph's size.
    dirty_members: int = 0
    #: Members whose star was recomputed (the cavity's members).
    stars: int = 0
    #: Candidate triangles re-verdicted.
    verdicts: int = 0


class IncrementalPLDel:
    """Per-node stars, per-triangle verdicts and contests, per-edge stitch."""

    def __init__(self, udg: "DynamicUdg", *, tile_cells: int = 2) -> None:
        self.udg = udg
        self.grid = DynamicTileGrid(udg.radius, tile_cells=tile_cells)
        #: member -> the triangles it proposes (no entry for an empty star).
        self._stars: dict[int, list[Triangle]] = {}
        #: node -> the accepted triangles with a corner there.
        self._accepted: dict[int, set[Triangle]] = {}
        #: node -> the Gabriel edges (normalized id pairs) at it.
        self._gabriel: dict[int, set[Edge]] = {}
        #: the node count at the last step: labels at or above the
        #: current count were retired by id churn since.
        self._labels = 0
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
        old_neighbours: Iterable[int] = (),
    ) -> tuple[list[Edge], list[Edge], PldelStepStats]:
        """Recompute the cavity; return the added/removed edges.

        ``dirty_ids`` are the members whose position or label changed
        and the nodes whose membership flipped; ``old_neighbours`` are
        the pre-batch neighbours of the nodes among them that were
        members before the batch.  The cavity adds the current
        neighbours of those that are members now.  ``dirty_points``
        only size the reported tiles.
        """
        stats = PldelStepStats()
        halo = ACCEPTANCE_HALO * self.udg.radius
        stats.dirty_tiles = len(
            {key for p in dirty_points for key in self.grid.keys_within(p, halo)}
        )
        n = len(membership)
        retired = range(n, self._labels)
        self._labels = n
        dirty_ids = set(dirty_ids)
        adjacency = self.udg.adjacency
        cavity = dirty_ids.union(old_neighbours)
        for x in dirty_ids:
            if membership[x]:
                cavity.update(adjacency[x])
        if not cavity and not retired:
            # No member's neighbourhood changed: every stored decision
            # is a function of unchanged inputs.
            return [], [], stats
        with obs.span("incremental.phase.pldel_phase_a"):
            delta: Counter = Counter()
            old_tris, new_tris = self._recompute_phase_a(
                membership, cavity, retired, delta, stats
            )
        added, removed, stats.contest_triangles = self._commit(
            old_tris, new_tris, delta, dirty_ids
        )
        return added, removed, stats

    def _commit(
        self,
        old_tris: set[Triangle],
        new_tris: set[Triangle],
        delta: Counter,
        dirty_ids: set[int],
    ) -> tuple[list[Edge], list[Edge], int]:
        """Diff the recomputed triangles; replay; restitch.

        ``old_tris`` and ``new_tris`` are the accepted triangles the
        step recomputed, before and after.  A triangle with a dirty id
        among its vertices is both gone and fresh: its geometry, and so
        its contest, may have changed.  Returns the added and removed
        PLDel edges and the number of triangles whose contest was
        replayed.
        """
        with obs.span("incremental.phase.pldel_contest"):
            gone = [
                t for t in old_tris
                if t not in new_tris or not dirty_ids.isdisjoint(t)
            ]
            fresh = [
                t for t in new_tris
                if t not in old_tris or not dirty_ids.isdisjoint(t)
            ]
            replayed = self._replay(gone, fresh, delta)
        with obs.span("incremental.phase.pldel_stitch"):
            added, removed = self._restitch(delta, dirty_ids)
        return added, removed, replayed

    # -- phase A ----------------------------------------------------------

    def _recompute_phase_a(
        self,
        membership: Sequence[bool],
        cavity: set[int],
        retired: range,
        delta: Counter,
        stats: PldelStepStats,
    ) -> tuple[set[Triangle], set[Triangle]]:
        """Recompute the cavity's stars, verdicts and Gabriel tests.

        Drops the state at every cavity label and retired label, then
        rebuilds it for the cavity's members.  Gabriel changes go into
        ``delta``.  Returns the accepted triangles with a corner in the
        cavity or at a retired label, before and after.
        """
        stale = [*cavity, *retired]
        for x in stale:
            self._stars.pop(x, None)
        old_tris = _pop_incident(self._accepted, stale)
        old_gabriel = _pop_incident(self._gabriel, stale)
        centre = sorted(x for x in cavity if membership[x])
        new_tris, new_gabriel = (
            self._decide(membership, centre, stats) if centre else (set(), set())
        )
        for edge in old_gabriel - new_gabriel:
            delta[edge] -= 1
        for edge in new_gabriel - old_gabriel:
            delta[edge] += 1
        _index(self._accepted, new_tris)
        _index(self._gabriel, new_gabriel)
        return old_tris, new_tris

    def _decide(
        self, membership: Sequence[bool], centre: list[int], stats: PldelStepStats
    ) -> tuple[set[Triangle], set[Edge]]:
        """Stars of ``centre``, then every verdict and Gabriel test at it.

        Stores the new stars and returns the accepted triangles and the
        Gabriel edges with an endpoint (corner) in ``centre``.  A star
        reads ``N_1``, a verdict at a corner one hop out reads ``N_1``
        of that corner, and so does a Gabriel test whose smaller
        endpoint lies one hop out: the local graph holds the members
        within two hops of ``centre``, and every decision it is asked
        for sees its whole neighbourhood.
        """
        adjacency = self.udg.adjacency
        inner = set(centre)
        ring = {w for x in centre for w in adjacency[x] if membership[w]} - inner
        hood = inner | ring
        for x in ring:
            hood.update(w for w in adjacency[x] if membership[w])
        gids = sorted(hood)
        local = {g: i for i, g in enumerate(gids)}
        pos = self.udg.positions
        udg = UnitDiskGraph([pos[g] for g in gids], self.udg.radius)
        stats.dirty_members = len(gids)
        stats.stars = len(centre)

        rows, proposed = proposed_triangles(udg, [local[g] for g in centre])
        candidates: set[Triangle] = set()
        stars = self._stars
        for (a, b, c), by in zip(triangle_tuples(rows), triangle_tuples(proposed)):
            tri = (gids[a], gids[b], gids[c])
            candidates.add(tri)
            for corner, proposer in zip(tri, by):
                if proposer:
                    stars.setdefault(corner, []).append(tri)
        # A neighbour outside the cavity kept its star; the triangles
        # in it with a corner in the cavity are candidates too.
        for w in ring:
            candidates.update(t for t in stars.get(w, ()) if not inner.isdisjoint(t))
        order = list(candidates)
        stats.verdicts = len(order)
        verdicts = corner_verdicts(udg, [(local[a], local[b], local[c]) for a, b, c in order])
        accepted = {t for t, ok in zip(order, triangle_tuples(verdicts)) if all(ok)}
        gabriel: set[Edge] = set()
        for u, v in gabriel_graph(udg).edges():
            a, b = gids[u], gids[v]
            if a in inner or b in inner:
                gabriel.add((a, b))
        return accepted, gabriel

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
            pairs = [
                (e, o) for e, others in self._crossing.items() for o in others if e < o
            ]
            self._crossing_losers = degenerate_crossing_losers(pairs, self.udg.positions)
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


def _pop_incident(index: dict[int, set[Item]], labels: Iterable[int]) -> set[Item]:
    """Remove and return every item of ``index`` at one of ``labels``.

    ``index`` maps each node to the edges or triangles at it; a popped
    item leaves its other nodes' entries too.
    """
    out: set[Item] = set()
    for x in labels:
        out.update(index.pop(x, ()))
    for item in out:
        for x in item:
            at = index.get(x)
            if at is not None:
                at.discard(item)
                if not at:
                    del index[x]
    return out


def _index(index: dict[int, set[Item]], items: Iterable[Item]) -> None:
    """Add each of ``items`` to ``index`` at each of its nodes."""
    for item in items:
        for x in item:
            index.setdefault(x, set()).add(item)


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
