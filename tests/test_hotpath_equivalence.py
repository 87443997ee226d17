"""Equivalence tests for the hot-path optimizations.

Every optimization in the construction pipeline — the per-UDG
neighborhood/circumcircle cache, the
circumcircle prefilter in the triangulator, the bulk grid pair
enumeration — promises *bit-identical* output to the straightforward
path.  These tests hold it to that on the inputs where shortcuts are
most likely to diverge: random deployments, exact grids (cocircular
quadruples everywhere), and collinear lines.
"""

import math
import random

import pytest

from repro import obs
from repro.core import compat
from repro.geometry.primitives import Point, dist_sq
from repro.geometry.triangulation import delaunay
from repro.graphs.udg import GridIndex, UnitDiskGraph
from repro.topology.construction_cache import ConstructionCache
from repro.topology.ldel import local_delaunay_graph, planar_local_delaunay_graph


def _random_udg(n=60, side=60.0, radius=18.0, seed=7):
    rng = random.Random(seed)
    pts = [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    return UnitDiskGraph(pts, radius)


def _grid_udg(rows=7, cols=7, spacing=1.0, radius=1.6):
    pts = [Point(c * spacing, r * spacing) for r in range(rows) for c in range(cols)]
    return UnitDiskGraph(pts, radius)


def _collinear_udg(n=12, radius=2.5):
    pts = [Point(float(i), 0.0) for i in range(n)]
    return UnitDiskGraph(pts, radius)


DEPLOYMENTS = {
    "random": _random_udg,
    "grid": _grid_udg,
    "collinear": _collinear_udg,
}


@pytest.fixture(params=sorted(DEPLOYMENTS))
def udg(request):
    return DEPLOYMENTS[request.param]()


class TestCachedEqualsUncached:
    def test_ldel1_identical(self, udg):
        plain = local_delaunay_graph(udg, k=1)
        cached = local_delaunay_graph(udg, k=1, cache=ConstructionCache(udg))
        assert plain.graph.edge_set() == cached.graph.edge_set()
        assert plain.triangles == cached.triangles
        assert plain.gabriel_edges == cached.gabriel_edges

    def test_pldel_identical(self, udg):
        plain = planar_local_delaunay_graph(udg)
        cached = planar_local_delaunay_graph(udg, cache=ConstructionCache(udg))
        assert plain.graph.edge_set() == cached.graph.edge_set()
        assert plain.triangles == cached.triangles

    def test_cache_actually_hit(self, udg):
        # The k-hop cache is the *reference* path's memoization; the SoA
        # kernels never consult it, so pin this test to the scalar path.
        cache = ConstructionCache(udg)
        with compat.numpy_disabled(), obs.recording() as record:
            planar_local_delaunay_graph(udg, cache=cache)
        counts = record["counts"]
        assert counts["construction.khop_hits"] > 0
        # Every neighborhood and circumcircle computed at most once.
        assert counts["construction.khop_misses"] <= udg.node_count

    def test_foreign_cache_rejected(self, udg):
        other = _random_udg(seed=99)
        cache = ConstructionCache(other)
        # for_udg must not serve another graph's neighborhoods.
        assert ConstructionCache.for_udg(udg, cache) is not cache
        result = local_delaunay_graph(udg, k=1, cache=cache)
        plain = local_delaunay_graph(udg, k=1)
        assert result.graph.edge_set() == plain.graph.edge_set()


class TestDelaunayPrefilter:
    """The circumcircle prefilter may only defer to the exact test."""

    def test_cocircular_grid(self):
        pts = [Point(float(c), float(r)) for r in range(6) for c in range(6)]
        tri = delaunay(pts)
        # Every unit grid square is an exactly-cocircular quadruple;
        # the triangulation must still cover the square with two
        # triangles each and stay consistent.
        assert len(tri.triangles) == 2 * 5 * 5
        for a, b, c in tri.triangles:
            assert a < b < c

    def test_matches_raw_tuples(self):
        rng = random.Random(3)
        coords = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(40)]
        as_points = delaunay([Point(x, y) for x, y in coords])
        as_tuples = delaunay(coords)
        assert as_points.triangles == as_tuples.triangles
        assert as_points.edges == as_tuples.edges

    def test_collinear_input(self):
        pts = [Point(float(i), float(i)) for i in range(8)]
        tri = delaunay(pts)
        assert tri.triangles == []
        assert len(tri.edges) == 7


class TestTrianglesOf:
    def test_matches_naive_scan(self):
        rng = random.Random(11)
        pts = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(50)]
        tri = delaunay(pts)
        for v in range(len(pts)):
            naive = [t for t in tri.triangles if v in t]
            assert sorted(tri.triangles_of(v)) == sorted(naive)

    def test_returns_copy(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]
        tri = delaunay(pts)
        tri.triangles_of(0).append((9, 9, 9))
        assert (9, 9, 9) not in tri.triangles_of(0)


class TestPairsWithin:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        pts = [Point(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(80)]
        radius = 4.0
        index = GridIndex(pts, radius)
        got = sorted(index.pairs_within(radius))
        expected = sorted(
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if dist_sq(pts[i], pts[j]) <= radius * radius
        )
        assert got == expected
        assert len(got) == len(set(got))  # no duplicates

    def test_dense_radius_flat_scan(self):
        # Radius spanning more cells than points: exercises the flat
        # O(n^2)/2 cutover.
        rng = random.Random(5)
        pts = [Point(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(10)]
        index = GridIndex(pts, 0.1)
        got = sorted(index.pairs_within(3.0))
        expected = sorted(
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if dist_sq(pts[i], pts[j]) <= 9.0
        )
        assert got == expected

    def test_matches_per_point_within(self):
        rng = random.Random(9)
        pts = [Point(rng.uniform(0, 25), rng.uniform(0, 25)) for _ in range(60)]
        radius = 5.0
        index = GridIndex(pts, radius)
        bulk = set(index.pairs_within(radius))
        per_point = set()
        for i, p in enumerate(pts):
            for j in index.within(p, radius):
                if i < j:
                    per_point.add((i, j))
        assert bulk == per_point

    def test_udg_build_uses_bulk_path(self):
        # The UDG built through pairs_within must equal a brute-force
        # edge set (radius inclusive).
        udg = _random_udg(n=70, seed=13)
        expected = {
            (i, j)
            for i in range(udg.node_count)
            for j in range(i + 1, udg.node_count)
            if math.dist(udg.positions[i], udg.positions[j]) <= udg.radius
        }
        assert set(udg.edges()) == expected
