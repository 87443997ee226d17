"""Algorithms 2 and 3 — distributed localized Delaunay construction.

Algorithm 2 (build ``LDel^1``): every node broadcasts its location,
computes the Delaunay triangulation of its 1-hop neighborhood, marks
its Gabriel edges, and *proposes* each incident local-Delaunay
triangle whose sides fit in one transmission radius and whose angle at
the proposer is at least 60 degrees (every triangle has such a vertex,
so proposals cover all candidates).  The other two vertices accept
exactly when they hear both other corners and the triangle is
Delaunay in *their* neighborhoods; a triangle joins ``LDel^1`` when
all three vertices are positive.  A vertex proposing a triangle counts
as accepting it.  A Gabriel edge needs both endpoints' tests to pass.

Algorithm 3 (planarize to ``PLDel``): every node broadcasts its
Gabriel edges and accepted triangles (with vertex coordinates, so
receivers can do geometry on them), drops any own triangle whose
circumcircle contains a vertex of an intersecting known triangle, then
broadcasts what it kept; a triangle survives when all three of its
vertices kept it.  When two accepted triangles' edges cross, some
vertex of one is within one unit of some vertex of the other (both
crossing edges are at most one unit long), so every crossing is
discovered from 1-hop broadcasts — the locality argument of Li,
Calinescu & Wan.

The outcome is tested to be *identical* to the centralized reference
(:func:`repro.topology.ldel.planar_local_delaunay_graph`) on random
instances; what this module adds is the message accounting.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Optional

from repro.geometry.circle import circumcircle, gabriel_disk_empty
from repro.geometry.predicates import segments_cross
from repro.geometry.primitives import Point, angle_at, dist_sq
from repro.geometry.triangulation import delaunay
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.sim.messages import (
    ACCEPT,
    KEPT,
    LOCATION,
    PROPOSAL,
    REJECT,
    STRUCTURE,
    Message,
)
from repro.sim.network import SyncNetwork
from repro.sim.protocol import NodeProcess
from repro.sim.stats import MessageStats
from repro.topology.ldel import LDelForms

Triangle = tuple[int, int, int]
#: A triangle together with its vertex coordinates, as shipped in
#: STRUCTURE / KEPT payloads.
LocatedTriangle = tuple[Triangle, tuple[Point, Point, Point]]


class LDelProtocolOutcome(LDelForms):
    """Result of the distributed LDel^1 + planarization run.

    ``triangles`` and ``gabriel_edges`` take the same forms as
    :class:`~repro.topology.ldel.LDelResult`'s (the fast path hands
    rows and the Gabriel graph; the tuple forms are built when read).
    """

    def __init__(
        self,
        graph: Graph,
        triangles: Any,
        gabriel_edges: Any,
        rounds: int,
        stats: MessageStats,
    ) -> None:
        self.graph = graph
        self.rounds = rounds
        self.stats = stats
        self._set_forms(triangles, gabriel_edges)


class LDelProcess(NodeProcess):
    """One node running Algorithms 2 and 3."""

    def __init__(
        self,
        node_id: int,
        position: Point,
        neighbor_ids: tuple[int, ...],
        radius: float,
    ) -> None:
        super().__init__(node_id, position, neighbor_ids)
        self.radius = radius
        self._neighbor_pos: dict[int, Point] = {}
        self.gabriel_edges: set[tuple[int, int]] = set()
        #: triangles this node proposed or was asked about, with the
        #: verdict of each vertex: vertex -> True/False (None unknown).
        self._verdicts: dict[Triangle, dict[int, Optional[bool]]] = {}
        self.accepted: set[Triangle] = set()
        #: triangles known from neighbors' STRUCTURE broadcasts.
        self._known: dict[Triangle, tuple[Point, Point, Point]] = {}
        self._kept_votes: dict[Triangle, set[int]] = {}
        self.kept: set[Triangle] = set()
        self.final: set[Triangle] = set()
        self._phase = "locations"
        self._done = False

    # -- small helpers ---------------------------------------------------

    def _pos_of(self, v: int) -> Point:
        if v == self.node_id:
            return self.position
        return self._neighbor_pos[v]

    def _tri_points(self, t: Triangle) -> tuple[Point, Point, Point]:
        return (self._pos_of(t[0]), self._pos_of(t[1]), self._pos_of(t[2]))

    def _accepts(self, t: Triangle) -> bool:
        """This corner's verdict on ``t``.

        Accept only when the other two corners are radio neighbours
        (a side this node never heard from is not a link) and the
        circumcircle is empty of this node's 1-hop neighborhood.
        """
        if not all(v == self.node_id or v in self._neighbor_pos for v in t):
            return False
        circle = circumcircle(*self._tri_points(t))
        if circle is None:
            return False
        for w, pw in self._neighbor_pos.items():
            if w in t:
                continue
            if circle.contains(pw):
                return False
        return True

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.broadcast(LOCATION, x=self.position[0], y=self.position[1])

    def receive(self, message: Message) -> None:
        kind = message.kind
        if kind == LOCATION:
            self._neighbor_pos[message.sender] = Point(message["x"], message["y"])
        elif kind == PROPOSAL:
            t: Triangle = tuple(message["triangle"])  # type: ignore[assignment]
            verdicts = self._verdicts.setdefault(t, {v: None for v in t})
            verdicts[message.sender] = True  # proposing implies accepting
            if self.node_id in t and verdicts.get(self.node_id) is None:
                mine = self._accepts(t)
                verdicts[self.node_id] = mine
                self.broadcast(ACCEPT if mine else REJECT, triangle=t)
        elif kind in (ACCEPT, REJECT):
            t = tuple(message["triangle"])  # type: ignore[assignment]
            if self.node_id in t or t in self._verdicts:
                verdicts = self._verdicts.setdefault(t, {v: None for v in t})
                if message.sender in verdicts:
                    verdicts[message.sender] = kind == ACCEPT
        elif kind == STRUCTURE:
            for raw_t, raw_pts in message["triangles"]:
                t = tuple(raw_t)  # type: ignore[assignment]
                pts = tuple(Point(x, y) for x, y in raw_pts)
                self._known[t] = pts  # type: ignore[assignment]
        elif kind == KEPT:
            for raw_t in message["triangles"]:
                t = tuple(raw_t)  # type: ignore[assignment]
                if self.node_id in t:
                    self._kept_votes.setdefault(t, set()).add(message.sender)

    def finish_round(self, round_index: int) -> None:
        if self._phase == "locations":
            self._compute_and_propose()
            self._phase = "responses"
        elif self._phase == "responses":
            # Proposals went out last round; responses arrive next round.
            self._phase = "tally"
        elif self._phase == "tally":
            self._tally_acceptances()
            self._broadcast_structure()
            self._phase = "prune"
        elif self._phase == "prune":
            self._prune_crossings()
            self._phase = "confirm"
        elif self._phase == "confirm":
            self._confirm_kept()
            self._phase = "done"
            self._done = True

    # -- Algorithm 2 --------------------------------------------------------

    def _compute_and_propose(self) -> None:
        ids = sorted(self._neighbor_pos) + [self.node_id]
        ids.sort()
        pts = [self._pos_of(i) for i in ids]
        r_sq = self.radius * self.radius

        # Gabriel edges incident on me, tested against my own
        # neighborhood; the run keeps an edge only when both endpoints
        # marked it (agreed_gabriel_edges).
        for v, pv in self._neighbor_pos.items():
            if gabriel_disk_empty(
                self.position, pv, self._neighbor_pos.values()
            ):
                self.gabriel_edges.add(_edge(self.node_id, v))

        if len(ids) < 3:
            return
        tri = delaunay(pts)
        for a, b, c in tri.triangles:
            t: Triangle = tuple(sorted((ids[a], ids[b], ids[c])))  # type: ignore[assignment]
            if self.node_id not in t:
                continue
            p0, p1, p2 = self._tri_points(t)
            if (
                dist_sq(p0, p1) > r_sq
                or dist_sq(p1, p2) > r_sq
                or dist_sq(p0, p2) > r_sq
            ):
                continue
            others = [v for v in t if v != self.node_id]
            try:
                ang = angle_at(
                    self.position, self._pos_of(others[0]), self._pos_of(others[1])
                )
            except ValueError:
                continue
            if ang < math.pi / 3.0 - 1e-12:
                continue
            verdicts = self._verdicts.setdefault(t, {v: None for v in t})
            if verdicts.get(self.node_id) is None:
                verdicts[self.node_id] = True
                self.broadcast(PROPOSAL, triangle=t)

    def _tally_acceptances(self) -> None:
        for t, verdicts in self._verdicts.items():
            if self.node_id not in t:
                continue
            if all(verdicts.get(v) for v in t):
                self.accepted.add(t)

    # -- Algorithm 3 ---------------------------------------------------------

    def _broadcast_structure(self) -> None:
        payload = [
            (t, tuple((p[0], p[1]) for p in self._tri_points(t)))
            for t in sorted(self.accepted)
        ]
        self.broadcast(
            STRUCTURE,
            triangles=payload,
            gabriel=sorted(self.gabriel_edges),
        )
        for t in self.accepted:
            self._known.setdefault(t, self._tri_points(t))

    def _prune_crossings(self) -> None:
        kept = set(self.accepted)
        for t1 in self.accepted:
            pts1 = self._tri_points(t1)
            circle = circumcircle(*pts1)
            if circle is None:
                kept.discard(t1)
                continue
            for t2, pts2 in self._known.items():
                if t2 == t1:
                    continue
                if not _triangles_cross(t1, pts1, t2, pts2):
                    continue
                if any(
                    v not in t1 and circle.contains(p)
                    for v, p in zip(t2, pts2)
                ):
                    kept.discard(t1)
                    break
        self.kept = kept
        self.broadcast(KEPT, triangles=sorted(kept))
        for t in kept:
            self._kept_votes.setdefault(t, set()).add(self.node_id)

    def _confirm_kept(self) -> None:
        for t in self.kept:
            votes = self._kept_votes.get(t, set())
            if all(v in votes for v in t):
                self.final.add(t)

    @property
    def idle(self) -> bool:
        return self._done


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def agreed_gabriel_edges(processes) -> set[tuple[int, int]]:
    """Edges both endpoints marked Gabriel in their own neighborhood.

    Each endpoint tests the diameter disk against its own neighbors;
    under the disk model the two tests agree (a blocker is a neighbor
    of both), under a quasi-UDG gray zone either may see a blocker the
    other cannot hear, and the edge needs both.
    """
    marks = Counter(
        e for proc in processes for e in proc.gabriel_edges  # type: ignore[attr-defined]
    )
    return {e for e, votes in marks.items() if votes == 2}


def _triangles_cross(
    t1: Triangle,
    pts1: tuple[Point, Point, Point],
    t2: Triangle,
    pts2: tuple[Point, Point, Point],
) -> bool:
    """Whether some edge of ``t1`` properly crosses some edge of ``t2``."""
    e1 = ((0, 1), (1, 2), (0, 2))
    for i, j in e1:
        for k, l in e1:
            if len({t1[i], t1[j], t2[k], t2[l]}) < 4:
                continue
            if segments_cross(pts1[i], pts1[j], pts2[k], pts2[l]):
                return True
    return False


def run_ldel_protocol(
    udg: UnitDiskGraph,
    *,
    stats: Optional[MessageStats] = None,
) -> LDelProtocolOutcome:
    """Run Algorithms 2 + 3 on ``udg``; returns the PLDel graph."""
    net = SyncNetwork(
        udg,
        lambda node_id, _net: LDelProcess(
            node_id,
            udg.positions[node_id],
            tuple(sorted(udg.neighbors(node_id))),
            udg.radius,
        ),
        stats=stats,
    )
    rounds = net.run(max_rounds=32)

    gabriel = agreed_gabriel_edges(net.processes)
    confirmed: set[Triangle] = set()
    for proc in net.processes:
        confirmed |= proc.final  # type: ignore[attr-defined]

    graph = Graph(udg.positions, gabriel, name="PLDel")
    for u, v, w in confirmed:
        graph.add_edge(u, v)
        graph.add_edge(v, w)
        graph.add_edge(u, w)
    # Exactly-cocircular inputs (which the paper assumes away) can
    # leave a crossing pair of Gabriel edges; apply the same
    # deterministic tie-break as the centralized reference.
    from repro.topology.ldel import resolve_degenerate_crossings

    resolve_degenerate_crossings(graph)
    return LDelProtocolOutcome(
        graph=graph,
        triangles=tuple(sorted(confirmed)),
        gabriel_edges=frozenset(gabriel),
        rounds=rounds,
        stats=net.stats,
    )
