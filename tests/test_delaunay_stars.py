"""Delaunay stars by inversion vs the scalar triangulator.

:func:`~repro.geometry.triangulation.delaunay_stars_by_inversion`
promises, for every query it does not route, exactly the triangles
``delaunay(points).triangles_of(center)`` returns.  Hypothesis drives
it over the inputs most likely to break a hull scan: a center on the
hull with neighbours exactly collinear through it (an angular gap of
exactly pi), duplicate coordinates, all-collinear sets, nearly flat
hull slivers and jittered grids.  The LDel^1 proposals that use the
kernel are also held to the pure-Python reference on the same
families, and the routed-query counter is held to zero on uniform
clouds, so a kernel that quietly sends everything to the lockstep
shows up here and not only in the benchmark.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import compat
from repro.core.compat import np
from repro.geometry.primitives import Point
from repro.geometry.triangulation import delaunay, delaunay_stars_by_inversion
from repro.graphs.udg import UnitDiskGraph
from repro.topology.ldel import proposed_triangles, triangle_tuples

pytestmark = pytest.mark.skipif(np is None, reason="requires numpy")

RADIUS = 25.0


def _stars(points):
    """Run the kernel with every point of ``points`` as a center."""
    n = len(points)
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    indptr = np.arange(n + 1, dtype=np.int64) * n
    flat = np.tile(np.arange(n, dtype=np.int64), n)
    res = delaunay_stars_by_inversion(xs, ys, indptr, flat, np.arange(n, dtype=np.int64))
    found = {q: set() for q in range(n)}
    for q, tri in zip(res.owner.tolist(), res.tris.tolist()):
        found[q].add(tuple(tri))
    return found, set(res.fallback.tolist())


def assert_stars_match(points):
    """Every decided star equals the scalar triangulator's; returns routed."""
    pts = [Point(float(x), float(y)) for x, y in points]
    found, routed = _stars(pts)
    tri = delaunay(pts)
    for q in range(len(pts)):
        if q not in routed:
            assert found[q] == set(tri.triangles_of(q)), (q, pts)
    return routed


def assert_proposals_match(points, radius=RADIUS):
    pts = [Point(float(x), float(y)) for x, y in points]
    soa_tris, soa_by = proposed_triangles(UnitDiskGraph(pts, radius))
    with compat.numpy_disabled():
        ref_tris, ref_by = proposed_triangles(UnitDiskGraph(pts, radius))
    # The kernel's (m, 3) arrays against the reference's tuple lists.
    assert triangle_tuples(soa_tris) == ref_tris
    assert triangle_tuples(soa_by) == ref_by


coord = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False, width=64)
lattice = st.integers(-4, 4).map(lambda k: k * 5.0)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(1.0, 20.0), st.floats(1.0, 20.0),
    st.lists(st.tuples(coord, st.floats(0.5, 20.0)), min_size=1, max_size=10),
)
def test_center_on_hull_between_collinear_neighbours(left, right, above):
    # The center (0, 0) sits on the hull between (-left, 0) and
    # (right, 0): its angular gap is exactly pi.
    pts = [(0.0, 0.0), (-left, 0.0), (right, 0.0)] + above
    assert 0 in assert_stars_match(pts)
    assert_proposals_match(pts)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(lattice, lattice), min_size=3, max_size=14))
def test_duplicates_and_lattice_points(pts):
    routed = assert_stars_match(pts)
    for q, p in enumerate(pts):
        if pts.count(p) > 1:
            assert q in routed  # a duplicate of the center is a tie
    assert_proposals_match(pts)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.lists(st.floats(-15.0, 15.0), min_size=3, max_size=12, unique=True),
)
def test_all_collinear_neighbourhoods(dx, dy, ts):
    if dx == 0.0 and dy == 0.0:
        dx = 1.0
    pts = [(t * dx, t * dy) for t in ts]
    found, _ = _stars([Point(*p) for p in pts])
    assert all(not tris for tris in found.values())
    assert_stars_match(pts)
    assert_proposals_match(pts)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-15.0, 15.0), min_size=3, max_size=10, unique=True),
    st.lists(st.integers(-3, 3), min_size=10, max_size=10),
    st.sampled_from([1e-6, 1e-9, 1e-12, 1e-14]),
    st.lists(st.tuples(coord, coord), max_size=4),
)
def test_nearly_flat_hull_slivers(ts, bumps, scale, extra):
    # Points a hair off a line: hull slivers whose circumradius dwarfs
    # the neighbourhood, where the lockstep's super triangle matters.
    pts = [(t, b * scale * (1.0 + abs(t))) for t, b in zip(ts, bumps)] + extra
    assert_stars_match(pts)
    assert_proposals_match(pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6))
def test_grid_jittered_by_1e7(seed, k):
    rng = random.Random(seed)
    pts = [
        (c * 12.5 + rng.uniform(-1e-7, 1e-7), r * 12.5 + rng.uniform(-1e-7, 1e-7))
        for r in range(k) for c in range(k)
    ]
    assert_stars_match(pts)
    assert_proposals_match(pts)


def test_exact_grid_matches_and_routes():
    pts = [(c * 12.5, r * 12.5) for r in range(5) for c in range(5)]
    assert len(assert_stars_match(pts)) == len(pts)  # cocircular everywhere
    assert_proposals_match(pts)


def test_far_circumcircle_is_routed():
    # uvw is Delaunay with an angle of pi - 1e-7 at u: no angular tie,
    # but its circumradius (1e8) exceeds 1e6 extents, so it is routed.
    pts = [(0.0, 0.0), (-10.0, 5e-7), (10.0, 5e-7), (0.0, -10.0)]
    assert 0 in assert_stars_match(pts)
    assert_proposals_match(pts)


def test_hotspot_above_degree_300():
    rng = random.Random(3)
    pts = [(rng.gauss(0.0, 6.0), rng.gauss(0.0, 6.0)) for _ in range(330)]
    pts += [(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)) for _ in range(80)]
    udg = UnitDiskGraph([Point(*p) for p in pts], RADIUS)
    assert max(len(udg.neighbors(u)) for u in range(len(pts))) > 300
    assert_proposals_match(pts)


def _routed_queries(points):
    with obs.recording() as record:
        proposed_triangles(UnitDiskGraph([Point(*p) for p in points], RADIUS))
    return record["counts"]["construction.star_routed_queries"]


def test_no_routing_on_uniform_cloud():
    # The suite recipe: n=2000, side 10*sqrt(n), radius 25.
    n = 2000
    side = 10.0 * math.sqrt(n)
    rng = random.Random(2002)
    pts = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)]
    assert _routed_queries(pts) == 0


def test_exact_grid_is_routed():
    pts = [(c * 12.5, r * 12.5) for r in range(8) for c in range(8)]
    assert _routed_queries(pts) > 0
