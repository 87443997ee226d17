"""Unit tests for repro.graphs.planarity."""

import random

import pytest

from repro.core import compat
from repro.geometry.primitives import Point
from repro.graphs.graph import Graph
from repro.graphs.planarity import crossing_pairs, is_planar_embedding


def crossing_x():
    """Two edges forming an X (a proper crossing)."""
    pts = [Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)]
    return Graph(pts, [(0, 1), (2, 3)])


class TestIsPlanarEmbedding:
    def test_empty_graph(self):
        assert is_planar_embedding(Graph([]))

    def test_triangle_is_planar(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, 2)]
        assert is_planar_embedding(Graph(pts, [(0, 1), (1, 2), (0, 2)]))

    def test_x_crossing_detected(self):
        assert not is_planar_embedding(crossing_x())

    def test_shared_endpoint_is_not_crossing(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, 2)]
        g = Graph(pts, [(0, 1), (0, 2)])
        assert is_planar_embedding(g)

    def test_k4_embedded_with_crossing(self):
        # K4 drawn on a square: the two diagonals cross.
        pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
        assert not is_planar_embedding(Graph(pts, edges))

    def test_k4_embedded_planar(self):
        # K4 drawn with one vertex inside the triangle: planar drawing.
        pts = [Point(0, 0), Point(4, 0), Point(2, 4), Point(2, 1.3)]
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
        assert is_planar_embedding(Graph(pts, edges))

    def test_long_edge_short_edge_crossing(self):
        # A long edge spanning many grid cells crossing a short one:
        # exercises the bounding-box bucketing.
        pts = [Point(0, 0), Point(100, 0.5), Point(50, -5), Point(50, 5)]
        g = Graph(pts, [(0, 1), (2, 3)])
        assert not is_planar_embedding(g)


class TestCrossingPairs:
    def test_reports_the_pair(self):
        pairs = crossing_pairs(crossing_x())
        assert len(pairs) == 1
        (e1, e2) = pairs[0]
        assert {e1, e2} == {(0, 1), (2, 3)}

    def test_planar_graph_reports_nothing(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        g = Graph(pts, [(0, 1), (1, 2)])
        assert crossing_pairs(g) == []

    def test_multiple_crossings_counted_once_each(self):
        # A horizontal edge crossed by two separate vertical edges.
        pts = [
            Point(0, 0), Point(10, 0),
            Point(2, -1), Point(2, 1),
            Point(7, -1), Point(7, 1),
        ]
        g = Graph(pts, [(0, 1), (2, 3), (4, 5)])
        assert len(crossing_pairs(g)) == 2

    @pytest.mark.skipif(not compat.numpy_active(), reason="the kernel needs numpy")
    @pytest.mark.parametrize("seed", range(5))
    def test_kernel_matches_scalar_on_touches(self, seed):
        # Lattice segments overlap, touch mid-segment and meet at
        # repeated coordinates; the last two segments touch within the
        # on_segment slack although their boxes miss by 1e-13, which
        # the kernel's box rejection must not drop.
        rng = random.Random(seed)
        pts = [Point(float(x), float(y)) for x in range(5) for y in range(5)]
        pts += [pts[rng.randrange(25)] for _ in range(3)]
        edges = set()
        while len(edges) < 40:
            u, v = sorted(rng.sample(range(len(pts)), 2))
            if pts[u] != pts[v]:
                edges.add((u, v))
        n = len(pts)
        pts += [Point(10.0, 0.0), Point(11.0, 0.0), Point(11.0 + 1e-13, 0.0), Point(12.0, 0.0)]
        edges |= {(n, n + 1), (n + 2, n + 3)}
        graph = Graph(pts, sorted(edges))

        def normalized(pairs):
            return sorted(tuple(sorted(pair)) for pair in pairs)

        kernel = normalized(crossing_pairs(graph))
        with compat.numpy_disabled():
            scalar = normalized(crossing_pairs(graph))
        assert kernel == scalar
        assert ((n, n + 1), (n + 2, n + 3)) in kernel
