"""Distributed LDel^2 — the planar-by-construction alternative.

Li et al. prove ``LDel^k`` is planar for ``k >= 2``; the paper picks
``LDel^1`` + planarization instead because gathering 2-hop
neighborhoods costs more communication.  This module implements the
road not taken, so the trade-off is measurable:

* round 1 — every node broadcasts its location;
* round 2 — every node broadcasts its *neighbor list with positions*
  (the 2-hop collection step; one message, but a large one);
* round 3 — every node proposes its local Delaunay triangles whose
  circumcircle is empty of its **2-hop** neighborhood (angle >= 60
  degrees at the proposer, as in Algorithm 2);
* round 4 — the other two vertices accept or reject against *their*
  2-hop neighborhoods (rejecting outright when they do not hear both
  other corners); a triangle stands when all three agree.

Gabriel edges are assembled as in LDel^1: both endpoints must pass.

The result equals the centralized ``LDel^2``
(:func:`repro.topology.ldel.local_delaunay_graph` with ``k=2``) —
asserted in the tests — and is planar with no pruning phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.geometry.circle import circumcircle, gabriel_disk_empty
from repro.geometry.primitives import Point, angle_at, dist_sq
from repro.geometry.triangulation import delaunay
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.ldel_protocol import agreed_gabriel_edges
from repro.sim.messages import ACCEPT, LOCATION, PROPOSAL, REJECT, Message
from repro.sim.network import SyncNetwork
from repro.sim.protocol import NodeProcess
from repro.sim.stats import MessageStats

NEIGHBORHOOD = "Neighborhood"

Triangle = tuple[int, int, int]


@dataclass(frozen=True)
class LDel2Outcome:
    """Result of the distributed LDel^2 run."""

    graph: Graph
    triangles: tuple[Triangle, ...]
    gabriel_edges: frozenset[tuple[int, int]]
    rounds: int
    stats: MessageStats


class LDel2Process(NodeProcess):
    """One node running the 2-hop localized Delaunay protocol."""

    def __init__(self, node_id, position: Point, neighbor_ids, radius: float) -> None:
        super().__init__(node_id, position, neighbor_ids)
        self.radius = radius
        self._neighbor_pos: dict[int, Point] = {}
        #: Everything within 2 hops (including 1-hop), with positions.
        self._two_hop_pos: dict[int, Point] = {}
        self.gabriel_edges: set[tuple[int, int]] = set()
        self._verdicts: dict[Triangle, dict[int, Optional[bool]]] = {}
        self.accepted: set[Triangle] = set()
        self._phase = "locations"
        self._done = False

    def _pos_of(self, v: int) -> Point:
        if v == self.node_id:
            return self.position
        return self._neighbor_pos[v]

    def _accepts(self, t: Triangle) -> bool:
        """Other corners heard directly, circumcircle empty of 2 hops."""
        if not all(v == self.node_id or v in self._neighbor_pos for v in t):
            return False
        pts = tuple(self._pos_of(v) for v in t)
        circle = circumcircle(*pts)
        if circle is None:
            return False
        for w, pw in self._two_hop_pos.items():
            if w in t:
                continue
            if circle.contains(pw):
                return False
        return True

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self.broadcast(LOCATION, x=self.position[0], y=self.position[1])

    def receive(self, message: Message) -> None:
        kind = message.kind
        if kind == LOCATION:
            p = Point(message["x"], message["y"])
            self._neighbor_pos[message.sender] = p
            self._two_hop_pos[message.sender] = p
        elif kind == NEIGHBORHOOD:
            for node, (x, y) in message["neighbors"]:
                if node != self.node_id and node not in self._neighbor_pos:
                    self._two_hop_pos[node] = Point(x, y)
        elif kind == PROPOSAL:
            t: Triangle = tuple(message["triangle"])  # type: ignore[assignment]
            verdicts = self._verdicts.setdefault(t, {v: None for v in t})
            verdicts[message.sender] = True
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

    def finish_round(self, round_index: int) -> None:
        if self._phase == "locations":
            # 2-hop collection: ship my neighbor table.
            payload = [
                (v, (p[0], p[1])) for v, p in sorted(self._neighbor_pos.items())
            ]
            self.broadcast(NEIGHBORHOOD, neighbors=payload)
            self._phase = "neighborhoods"
        elif self._phase == "neighborhoods":
            self._compute_and_propose()
            self._phase = "responses"
        elif self._phase == "responses":
            self._phase = "tally"
        elif self._phase == "tally":
            for t, verdicts in self._verdicts.items():
                if self.node_id in t and all(verdicts.get(v) for v in t):
                    self.accepted.add(t)
            self._phase = "done"
            self._done = True

    def _compute_and_propose(self) -> None:
        # Gabriel edges are unchanged by k (blockers are 1-hop-local);
        # the run keeps an edge only when both endpoints marked it.
        for v, pv in self._neighbor_pos.items():
            if gabriel_disk_empty(self.position, pv, self._neighbor_pos.values()):
                self.gabriel_edges.add(_edge(self.node_id, v))

        ids = sorted(self._neighbor_pos) + [self.node_id]
        ids.sort()
        if len(ids) < 3:
            return
        pts = [self._pos_of(i) for i in ids]
        r_sq = self.radius * self.radius
        tri = delaunay(pts)
        for a, b, c in tri.triangles:
            t: Triangle = tuple(sorted((ids[a], ids[b], ids[c])))  # type: ignore[assignment]
            if self.node_id not in t:
                continue
            p0, p1, p2 = (self._pos_of(v) for v in t)
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
            if not self._accepts(t):
                continue
            verdicts = self._verdicts.setdefault(t, {v: None for v in t})
            if verdicts.get(self.node_id) is None:
                verdicts[self.node_id] = True
                self.broadcast(PROPOSAL, triangle=t)

    @property
    def idle(self) -> bool:
        return self._done


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def run_ldel2_protocol(
    udg: UnitDiskGraph, *, stats: Optional[MessageStats] = None
) -> LDel2Outcome:
    """Run the distributed LDel^2 construction on ``udg``."""
    net = SyncNetwork(
        udg,
        lambda node_id, _net: LDel2Process(
            node_id,
            udg.positions[node_id],
            tuple(sorted(udg.neighbors(node_id))),
            udg.radius,
        ),
        stats=stats,
    )
    rounds = net.run(max_rounds=16)
    gabriel = agreed_gabriel_edges(net.processes)
    confirmed: set[Triangle] = set()
    for proc in net.processes:
        confirmed |= proc.accepted  # type: ignore[attr-defined]
    graph = Graph(udg.positions, gabriel, name="LDel2")
    for u, v, w in confirmed:
        graph.add_edge(u, v)
        graph.add_edge(v, w)
        graph.add_edge(u, w)
    # Same degenerate-cocircularity tie-break as PLDel (see
    # repro.topology.ldel.resolve_degenerate_crossings).
    from repro.topology.ldel import resolve_degenerate_crossings

    resolve_degenerate_crossings(graph)
    return LDel2Outcome(
        graph=graph,
        triangles=tuple(sorted(confirmed)),
        gabriel_edges=frozenset(gabriel),
        rounds=rounds,
        stats=net.stats,
    )
