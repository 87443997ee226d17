"""Unit disk graphs with a uniform-grid spatial index.

The paper's network model: nodes with identical transmission radius
``r``; an undirected link exists exactly when the Euclidean distance is
at most ``r``.  Construction uses a bucket grid with cell side ``r`` so
each node only tests the 3x3 surrounding cells — expected O(n) for the
uniform deployments used in the experiments instead of the naive
O(n^2).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from repro.geometry.primitives import Point, dist_sq
from repro.graphs.graph import Graph


class GridIndex:
    """Uniform bucket grid for fixed-radius neighbor queries."""

    def __init__(self, points: Sequence[Point], cell_size: float) -> None:
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self.points = list(points)
        self._cells: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(self.points):
            self._cells.setdefault(self._cell_of(p), []).append(i)

    def _cell_of(self, p: Point) -> tuple[int, int]:
        return (math.floor(p[0] / self.cell_size), math.floor(p[1] / self.cell_size))

    def candidates_near(self, p: Point, radius: float) -> Iterator[int]:
        """Indices of points whose cell is within ``radius`` of ``p``'s.

        A superset of the true within-``radius`` set; callers must
        filter by exact distance.
        """
        reach = max(1, math.ceil(radius / self.cell_size))
        # When the query radius spans more cells than there are points
        # (e.g. radius >> cell_size), scanning the cell window would be
        # O(reach^2) mostly-empty lookups; a flat scan is the superset
        # too and never slower than the caller's distance filter.
        if (2 * reach + 1) ** 2 > len(self.points):
            yield from range(len(self.points))
            return
        cx, cy = self._cell_of(p)
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                yield from self._cells.get((cx + dx, cy + dy), ())

    def within(self, p: Point, radius: float) -> list[int]:
        """Indices of points at distance <= ``radius`` from ``p``."""
        r_sq = radius * radius
        px, py = p[0], p[1]
        points = self.points
        out: list[int] = []
        reach = max(1, math.ceil(radius / self.cell_size))
        if (2 * reach + 1) ** 2 > len(points):
            # Same flat-scan cutover as candidates_near, but without
            # the generator indirection on this hot query path.
            for i, q in enumerate(points):
                dx = q[0] - px
                dy = q[1] - py
                if dx * dx + dy * dy <= r_sq:
                    out.append(i)
            return out
        cx, cy = self._cell_of(p)
        cells = self._cells
        for dx_cell in range(-reach, reach + 1):
            for dy_cell in range(-reach, reach + 1):
                for i in cells.get((cx + dx_cell, cy + dy_cell), ()):
                    q = points[i]
                    dx = q[0] - px
                    dy = q[1] - py
                    if dx * dx + dy * dy <= r_sq:
                        out.append(i)
        return out

    def pairs_within(self, radius: float) -> Iterator[tuple[int, int]]:
        """All unordered pairs ``(i, j)``, ``i < j``, within ``radius``.

        The bulk analogue of calling :meth:`within` once per point:
        each cell is paired with itself and with the half of its
        neighbor window that sorts after it, so every candidate pair is
        distance-tested exactly once instead of twice.

        Pairs are yielded in sorted order.  The underlying cell walk
        follows dict insertion order, which ties to point order in a
        way callers must not depend on — the SoA bulk enumeration
        (:func:`repro.core.soa.udg_edge_arrays`) and this path must
        list UDG edges identically for the bit-identical tripwires.
        """
        yield from sorted(self._iter_pairs_within(radius))

    def _iter_pairs_within(self, radius: float) -> Iterator[tuple[int, int]]:
        r_sq = radius * radius
        points = self.points
        n = len(points)
        reach = max(1, math.ceil(radius / self.cell_size))
        if (2 * reach + 1) ** 2 > n:
            # Dense-radius regime: the cell window covers everything,
            # so enumerate the triangle of index pairs directly.
            for i in range(n):
                p = points[i]
                for j in range(i + 1, n):
                    if dist_sq(p, points[j]) <= r_sq:
                        yield (i, j)
            return
        # Forward half-window: (0, 0) handled specially (within-cell
        # pairs), then only offsets that are lexicographically positive
        # so each cell pair is visited once.
        offsets = [
            (dx, dy)
            for dx in range(0, reach + 1)
            for dy in range(-reach if dx > 0 else 1, reach + 1)
        ]
        cells = self._cells
        for (cx, cy), members in cells.items():
            for a in range(len(members)):
                i = members[a]
                p = points[i]
                for b in range(a + 1, len(members)):
                    j = members[b]
                    if dist_sq(p, points[j]) <= r_sq:
                        yield (i, j) if i < j else (j, i)
            for dx, dy in offsets:
                other = cells.get((cx + dx, cy + dy))
                if not other:
                    continue
                for i in members:
                    p = points[i]
                    for j in other:
                        if dist_sq(p, points[j]) <= r_sq:
                            yield (i, j) if i < j else (j, i)


class UnitDiskGraph(Graph):
    """The unit disk graph of a point set at a given radius.

    Carries its ``radius`` so downstream constructions (Gabriel tests,
    localized Delaunay length caps) can normalize distances against it.
    """

    #: Whether adjacency is exactly the "distance <= radius" rule.
    #: Kernels may exploit its geometric consequences (e.g. "within
    #: |uv| of both endpoints implies adjacent to both"); radio-model
    #: subclasses that drop links (quasi-UDG) override this to False
    #: so those shortcuts fall back to pure adjacency reasoning.
    adjacency_is_disk_rule = True

    def __init__(self, positions: Sequence[Point], radius: float, *, name: str = "UDG") -> None:
        if radius <= 0.0:
            raise ValueError("transmission radius must be positive")
        super().__init__(positions, name=name)
        self.radius = radius
        self._build()

    def _build(self) -> None:
        # Array path: one vectorized grid join enumerates every edge
        # and doubles as the deployment's shared SoA snapshot; its
        # sorted edge arrays become the graph's keys.  The edge set is
        # bit-identical to pairs_within (same cells, same inclusive
        # distance test, IEEE-identical arithmetic), which the
        # equivalence suite and the bench tripwires assert.
        from repro.core.soa import SoaSnapshot

        snap = SoaSnapshot.from_points(self.positions, self.radius)
        if snap is None:
            # pairs_within yields each qualifying pair exactly once,
            # halving the duplicate distance tests of a per-node scan.
            index = GridIndex(self.positions, self.radius)
            self.add_edges_bulk(index.pairs_within(self.radius))
            return
        self._adopt_keys(snap.edge_u * snap.n + snap.edge_v)
        self._soa_snapshot = snap

    def soa_snapshot(self):
        """The shared :class:`~repro.core.soa.SoaSnapshot` (or ``None``)."""
        from repro.core.soa import snapshot_for

        return snapshot_for(self)

    def k_hop_neighborhood(self, u: int, k: int) -> set[int]:
        """Nodes within ``k`` hops of ``u`` (paper's N_k(u)), including ``u``."""
        frontier = {u}
        seen = {u}
        for _ in range(k):
            nxt: set[int] = set()
            for w in frontier:
                nxt.update(self._adj[w])
            nxt -= seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        return seen


def unit_disk_graph(
    coords: Iterable[tuple[float, float]], radius: float = 1.0
) -> UnitDiskGraph:
    """Build a :class:`UnitDiskGraph` from raw coordinate pairs."""
    points = [Point(float(x), float(y)) for x, y in coords]
    return UnitDiskGraph(points, radius)
