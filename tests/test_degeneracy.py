"""Tests for degenerate-input handling across the geometry stack.

The paper assumes general position (no four cocircular nodes); these
tests feed the library exactly the inputs that assumption excludes and
check the documented guarantees still hold.
"""

import itertools
import random

import pytest

from repro.core import compat
from repro.geometry.primitives import Point
from repro.geometry.triangulation import (
    _in_circumcircle,
    _incircle_sign_exact,
    _orient_sign,
    _orient_sign_exact,
    delaunay,
)
from repro.graphs.graph import Graph
from repro.graphs.paths import is_connected
from repro.graphs.planarity import is_planar_embedding
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.ldel2_protocol import run_ldel2_protocol
from repro.protocols.ldel_protocol import run_ldel_protocol
from repro.topology.ldel import (
    LDelResult,
    contest_losers,
    local_delaunay_graph,
    planar_local_delaunay_graph,
    planarize_ldel1,
    resolve_degenerate_crossings,
    triangle_tuples,
)


class TestExactPredicates:
    def test_orient_sign_exact_collinear(self):
        assert _orient_sign_exact(Point(0, 0), Point(1, 1), Point(2, 2)) == 0

    def test_orient_sign_exact_ccw(self):
        assert _orient_sign_exact(Point(0, 0), Point(1, 0), Point(0, 1)) == 1

    def test_orient_sign_matches_exact_on_tiny_determinants(self):
        # Near-collinear float triple: the adaptive filter must agree
        # with the exact computation.
        a, b = Point(0.0, 0.0), Point(1.0, 1.0)
        c = Point(0.5, 0.5 + 1e-18)  # rounds to exactly 0.5
        assert _orient_sign(a, b, c) == _orient_sign_exact(a, b, c)

    def test_incircle_sign_exact_cocircular(self):
        square = (Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))
        assert _incircle_sign_exact(*square) == 0

    def test_in_circumcircle_cocircular_follows_the_tie_rule(self):
        # Exactly cocircular: the perturbation decides, whatever the
        # order of the triangle's corners.  The lexicographically last
        # point, (1, 1), is outside every circle through the other
        # three, and (0, 1) is inside the one through the rest.
        a, b, c, d = Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 1)
        for tri in itertools.permutations((a, b, c)):
            assert not _in_circumcircle(*tri, d)
        for tri in itertools.permutations((a, c, d)):
            assert _in_circumcircle(*tri, b)

    def test_in_circumcircle_degenerate_triangle_empty(self):
        assert not _in_circumcircle(
            Point(0, 0), Point(1, 1), Point(2, 2), Point(0, 1)
        )


class TestDegenerateTriangulations:
    def test_point_exactly_on_edge(self):
        # Four collinear points plus one off-line: the interior points
        # land exactly on existing edges during insertion.
        pts = [Point(1, 0), Point(1, 1), Point(1, 3), Point(1, 2), Point(0, 12)]
        tri = delaunay(pts)
        assert sorted(tri.triangles) == [(0, 1, 4), (1, 3, 4), (2, 3, 4)]

    def test_two_cocircular_squares(self):
        pts = [
            Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1),
            Point(10, 0), Point(11, 0), Point(11, 1), Point(10, 1),
        ]
        tri = delaunay(pts)
        # Each square triangulates with exactly one diagonal.
        for quad in ((0, 1, 2, 3), (4, 5, 6, 7)):
            diagonals = [
                (quad[0], quad[2]),
                (quad[1], quad[3]),
            ]
            present = sum(1 for d in diagonals if tuple(sorted(d)) in tri.edges)
            assert present == 1

    def test_concentric_cocircular_ring(self):
        import math

        ring = [
            Point(math.cos(i * math.pi / 4), math.sin(i * math.pi / 4))
            for i in range(8)
        ]
        tri = delaunay(ring)
        # 8 cocircular points: fan triangulation, 6 triangles, planar.
        assert len(tri.triangles) == 6
        graph = Graph(tri.points, tri.edges)
        assert is_planar_embedding(graph)


class TestResolveDegenerateCrossings:
    def crossing_graph(self):
        pts = [Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)]
        return Graph(pts, [(0, 1), (2, 3), (0, 2), (1, 3)])

    def test_removes_exactly_one_of_a_crossing_pair(self):
        graph = self.crossing_graph()
        resolve_degenerate_crossings(graph)
        assert is_planar_embedding(graph)
        # One diagonal survived.
        assert graph.has_edge(0, 1) != graph.has_edge(2, 3)

    def test_deterministic_loser(self):
        # Equal lengths: the diagonal through the lexicographically
        # largest endpoint, (2, 2), loses, whatever the node labels.
        g1 = self.crossing_graph()
        g2 = self.crossing_graph()
        resolve_degenerate_crossings(g1)
        resolve_degenerate_crossings(g2)
        assert g1.edge_set() == g2.edge_set()
        assert g1.has_edge(2, 3) and not g1.has_edge(0, 1)
        pts = [Point(2, 2), Point(0, 0), Point(2, 0), Point(0, 2)]
        relabeled = Graph(pts, [(0, 1), (2, 3), (1, 3), (0, 2)])
        resolve_degenerate_crossings(relabeled)
        assert relabeled.has_edge(2, 3) and not relabeled.has_edge(0, 1)

    def test_noop_on_planar_graph(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 1)]
        graph = Graph(pts, [(0, 1), (1, 2), (0, 2)])
        before = graph.edge_set()
        resolve_degenerate_crossings(graph)
        assert graph.edge_set() == before


class TestPlanarityOnCocircularDeployments:
    # The falsifying example hypothesis found: a perfect half-unit
    # square, all four nodes mutually in range.
    SQUARE = [Point(0, 0), Point(0, 0.5), Point(0.5, 0), Point(0.5, 0.5)]

    def test_pldel_planar_on_perfect_square(self):
        udg = UnitDiskGraph(self.SQUARE, 3.0)
        pldel = planar_local_delaunay_graph(udg)
        assert is_planar_embedding(pldel.graph)
        assert is_connected(pldel.graph)

    def test_distributed_protocols_agree_on_square(self):
        udg = UnitDiskGraph(self.SQUARE, 3.0)
        one = run_ldel_protocol(udg)
        centralized = planar_local_delaunay_graph(udg)
        assert one.graph.edge_set() == centralized.graph.edge_set()
        assert is_planar_embedding(one.graph)

    def test_ldel2_planar_on_square(self):
        udg = UnitDiskGraph(self.SQUARE, 3.0)
        two = run_ldel2_protocol(udg)
        assert is_planar_embedding(two.graph)

    def test_grid_deployment_end_to_end(self):
        from repro.core.spanner import build_backbone

        pts = [(float(i), float(j)) for i in range(5) for j in range(5)]
        result = build_backbone(pts, 1.6)
        assert is_planar_embedding(result.ldel_icds)
        assert is_connected(result.ldel_icds_prime)


def _grid(spacing, side=8):
    return [Point(c * spacing, r * spacing) for r in range(side) for c in range(side)]


def _jittered_grid():
    # The lower rows on an exact lattice, the upper rows jittered:
    # cocircular quads next to general-position ones.
    rng = random.Random(3)
    return [
        Point(p.x + rng.uniform(-4.0, 4.0), p.y + rng.uniform(-4.0, 4.0))
        if i >= 32 else p
        for i, p in enumerate(_grid(12.5))
    ]


#: (points, radius) where the degenerate-crossing sweep removes edges.
SWEEP_CASES = {
    "square": (TestPlanarityOnCocircularDeployments.SQUARE, 3.0),
    "two-squares": (
        [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1),
         Point(10, 0), Point(11, 0), Point(11, 1), Point(10, 1)],
        1.5,
    ),
    "grid-12.5": (_grid(12.5), 25.0),
    "grid-10": (_grid(10.0, 7), 25.0),
    "jittered-grid": (_jittered_grid(), 25.0),
}


def _old_composition(udg, ldel1):
    """The contest, the assembled graph, then the graph-level sweep.

    Returns the surviving triangles, the edges before the sweep and
    the edges after it, all from the scalar reference.
    """
    with compat.numpy_disabled():
        rows = triangle_tuples(ldel1.triangles)
        removed = contest_losers(udg.positions, rows, udg.radius)
        survivors = [t for t, gone in zip(rows, removed) if not gone]
        graph = Graph(udg.positions, ldel1.gabriel_edges)
        graph.add_edges_bulk(
            pair for u, v, w in survivors for pair in ((u, v), (v, w), (u, w))
        )
        before = graph.edge_set()
        resolve_degenerate_crossings(graph)
    return survivors, before, graph.edge_set()


class TestPlanarizeMatchesTheOldComposition:
    """``planarize_ldel1`` feeds the contest and the sweep from one
    crossing enumeration; it must equal running them one after the
    other on every input where the sweep has work."""

    def _check(self, udg, ldel1):
        survivors, before, after = _old_composition(udg, ldel1)
        pldel = planarize_ldel1(udg, ldel1)
        assert list(pldel.triangles) == survivors
        assert pldel.graph.edge_set() == after
        assert is_planar_embedding(pldel.graph)
        return len(ldel1.triangles) - len(survivors), len(before) - len(after)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_ldel1(self, case):
        points, radius = SWEEP_CASES[case]
        udg = UnitDiskGraph(points, radius)
        _, swept = self._check(udg, local_delaunay_graph(udg, k=1))
        assert swept > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_triangles_over_gabriel(self, seed):
        # Random short triangles on the jittered grid stand in for
        # LDel^1: they intersect far more often than accepted triangles,
        # so the contest removes some, the sweep then meets sides of
        # removed triangles that must not count as live, and surviving
        # sides still cross one another.
        points, radius = SWEEP_CASES["jittered-grid"]
        udg = UnitDiskGraph(points, radius)
        gabriel = local_delaunay_graph(udg, k=1)._gabriel
        rng = random.Random(seed)
        tris = set()
        while len(tris) < 60:
            a, b, c = sorted(rng.sample(range(len(points)), 3))
            if all(udg.has_edge(x, y) for x, y in ((a, b), (b, c), (a, c))):
                tris.add((a, b, c))
        ldel1 = LDelResult(
            graph=gabriel, triangles=sorted(tris), gabriel_edges=gabriel, k=1
        )
        contested, swept = self._check(udg, ldel1)
        assert contested > 0 and swept > 0

    @pytest.mark.parametrize("live_first", [True, False])
    def test_live_edge_crossing_only_a_removed_side(self, live_first):
        # A Gabriel edge crosses two sides of triangle (0, 1, 2), which
        # the contest removes (its circumcircle holds node 3 of the
        # triangle it crosses).  The long live edge crosses no live
        # edge, so the sweep must leave it, although it would lose the
        # length tie-break against either dead side.  Its ids come
        # first or last, so it leads its crossing pairs or trails them.
        contest = [
            Point(0.0, 0.0), Point(4.0, 0.0), Point(2.0, 1.0),
            Point(1.0, 0.3), Point(1.2, 0.3), Point(1.1, 0.9),
        ]
        live = [Point(3.0, -5.0), Point(3.0, 5.0)]
        points = live + contest if live_first else contest + live
        shift, edge = (2, (0, 1)) if live_first else (0, (6, 7))
        udg = UnitDiskGraph(points, 12.0)
        gabriel = frozenset({edge})
        triangles = [tuple(shift + i for i in t) for t in ((0, 1, 2), (3, 4, 5))]
        ldel1 = LDelResult(
            graph=Graph(points, gabriel), triangles=triangles, gabriel_edges=gabriel, k=1
        )
        contested, swept = self._check(udg, ldel1)
        assert (contested, swept) == (1, 0)
        assert planarize_ldel1(udg, ldel1).graph.has_edge(*edge)
