"""Incrementally maintained unit disk graph with appearing/vanishing deltas.

The same bucket grid as :class:`repro.graphs.udg.GridIndex` (cell side
``r``, so a neighbor query touches the 3x3 surrounding cells), but
mutable: moves, joins, and leaves update the adjacency in place and
report exactly which UDG links appeared and vanished.  The edge rule
is the library's, verbatim — ``dist_sq(p, q) <= r*r`` with the same
float arithmetic — so the maintained edge set is bit-identical to a
fresh :class:`~repro.graphs.udg.UnitDiskGraph` at the same positions
(asserted by the maintainer's rebuild-equivalence tripwire).

Ids stay dense under churn via *swap-remove*: a leave removes the
node, renames the current last id into the vacated slot, and reports
the rename so structures keyed by id can follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.geometry.primitives import Point, dist_sq


@dataclass(frozen=True)
class UdgDelta:
    """Edge/id changes produced by applying one event."""

    appeared: tuple[tuple[int, int], ...] = ()
    vanished: tuple[tuple[int, int], ...] = ()
    #: ``(old_id, new_id)`` when a leave renamed the last node.
    renamed: tuple[int, int] | None = None
    #: Positions whose surroundings changed (old and/or new locations).
    dirty_points: tuple[Point, ...] = ()
    #: Ids whose adjacency or identity changed (post-event id space).
    touched: tuple[int, ...] = ()
    #: Links a leave took with the departed node: counted, not listed
    #: in ``vanished``, whose pairs would name a dead or reused id.
    departed_links: int = 0


@dataclass
class DynamicUdg:
    """A unit disk graph under join/leave/move mutation."""

    positions: list[Point]
    radius: float
    adjacency: list[set[int]] = field(init=False)
    _cells: dict[tuple[int, int], set[int]] = field(init=False)

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("transmission radius must be positive")
        self.positions = [Point(float(p[0]), float(p[1])) for p in self.positions]
        n = len(self.positions)
        self.adjacency = [set() for _ in range(n)]
        self._cells = {}
        for i, p in enumerate(self.positions):
            self._cells.setdefault(self._cell_of(p), set()).add(i)
        r_sq = self.radius * self.radius
        for u in range(n):
            pu = self.positions[u]
            for v in self._candidates(pu):
                if v > u and dist_sq(pu, self.positions[v]) <= r_sq:
                    self.adjacency[u].add(v)
                    self.adjacency[v].add(u)

    # -- queries ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.positions)

    def neighbors(self, u: int) -> frozenset[int]:
        return frozenset(self.adjacency[u])

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v
        )

    def _cell_of(self, p: Point) -> tuple[int, int]:
        return (math.floor(p[0] / self.radius), math.floor(p[1] / self.radius))

    def _candidates(self, p: Point) -> Iterable[int]:
        """Ids in the 3x3 cell window around ``p`` (superset of links)."""
        cx, cy = self._cell_of(p)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                members = self._cells.get((cx + dx, cy + dy))
                if members:
                    yield from members

    # -- mutation --------------------------------------------------------

    def _links_at(self, p: Point, exclude: int) -> set[int]:
        r_sq = self.radius * self.radius
        return {
            v
            for v in self._candidates(p)
            if v != exclude and dist_sq(p, self.positions[v]) <= r_sq
        }

    def move(self, u: int, p: Point) -> UdgDelta:
        """Relocate ``u`` to ``p``; report appearing/vanishing links."""
        if not 0 <= u < len(self.positions):
            raise ValueError(f"move of unknown node {u}")
        p = Point(float(p[0]), float(p[1]))
        old = self.positions[u]
        old_links = self.adjacency[u]
        new_links = self._links_at(p, u)
        appeared = tuple(sorted((min(u, v), max(u, v)) for v in new_links - old_links))
        vanished = tuple(sorted((min(u, v), max(u, v)) for v in old_links - new_links))
        for v in old_links - new_links:
            self.adjacency[v].discard(u)
        for v in new_links - old_links:
            self.adjacency[v].add(u)
        self.adjacency[u] = new_links
        old_cell, new_cell = self._cell_of(old), self._cell_of(p)
        if old_cell != new_cell:
            self._cells[old_cell].discard(u)
            if not self._cells[old_cell]:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, set()).add(u)
        self.positions[u] = p
        return UdgDelta(
            appeared=appeared,
            vanished=vanished,
            dirty_points=(old, p),
            touched=(u,),
        )

    def join(self, p: Point) -> UdgDelta:
        """Add a node at ``p`` with the next id; report its new links."""
        p = Point(float(p[0]), float(p[1]))
        u = len(self.positions)
        links = self._links_at(p, u)
        self.positions.append(p)
        self.adjacency.append(links)
        for v in links:
            self.adjacency[v].add(u)
        self._cells.setdefault(self._cell_of(p), set()).add(u)
        appeared = tuple(sorted((min(u, v), max(u, v)) for v in links))
        return UdgDelta(appeared=appeared, dirty_points=(p,), touched=(u,))

    def leave(self, u: int) -> UdgDelta:
        """Remove ``u``; rename the last id into its slot (swap-remove)."""
        n = len(self.positions)
        if not 0 <= u < n:
            raise ValueError(f"leave of unknown node {u}")
        last = n - 1
        old_pos = self.positions[u]
        old_links = self.adjacency[u]
        for v in old_links:
            self.adjacency[v].discard(u)
        cell = self._cell_of(old_pos)
        self._cells[cell].discard(u)
        if not self._cells[cell]:
            del self._cells[cell]
        touched: set[int] = set(old_links - {last})
        renamed = None
        if u != last:
            # Rename last -> u: same node, same links, new id.
            last_pos = self.positions[last]
            last_links = self.adjacency[last]
            self.positions[u] = last_pos
            self.adjacency[u] = last_links
            for v in last_links:
                self.adjacency[v].discard(last)
                self.adjacency[v].add(u)
            last_cell = self._cell_of(last_pos)
            self._cells[last_cell].discard(last)
            if not self._cells[last_cell]:
                del self._cells[last_cell]
            self._cells.setdefault(last_cell, set()).add(u)
            renamed = (last, u)
            touched |= last_links | {u}
            dirty = (old_pos, last_pos)
        else:
            dirty = (old_pos,)
        self.positions.pop()
        self.adjacency.pop()
        # No vanished edges are listed: they would name a dead id;
        # touched ids and dirty points carry the survivors' effects.
        return UdgDelta(
            renamed=renamed,
            departed_links=len(old_links),
            dirty_points=dirty,
            touched=tuple(sorted(t for t in touched if t < len(self.positions))),
        )
