"""Delaunay stars by inversion vs the scalar triangulator.

:func:`~repro.geometry.triangulation.delaunay_stars_by_inversion`
promises, for every query it does not route, exactly the triangles
``delaunay(points).triangles_of(center)`` returns, and it routes only
queries with duplicate coordinates or a far circumcircle.  Hypothesis
drives it over the inputs most likely to break a hull scan: a center on
the hull with neighbours exactly collinear through it (an angular gap
of exactly pi), duplicate coordinates, exact lattices (cocircular
quadruples and neighbours on one ray), all-collinear sets, nearly flat
hull slivers and jittered grids.  The LDel^1 proposals that use the
kernel are also held to the pure-Python reference on the same
families, and the routed-query counter is held to zero on uniform
clouds and exact grids, so a kernel that quietly sends queries to the
scalar path shows up here and not only in the benchmark.  The kernel's
float reflex filter is held to the exact in-circle signs (the tie rule
where they are zero) on near-cocircular, translated, rescaled,
near-coincident and collinear quadruples, and its one-pass angular sort
key to the tie band its exact ordering relies on.
"""

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import compat
from repro.core.compat import np
from repro.core.soa import BLOCK_ENTRIES
from repro.geometry.predicates import incircle_perturbed_batch, incircle_signs_batch
from repro.geometry.primitives import Point
from repro.geometry.triangulation import (
    _STAR_ANGLE_TIE,
    _STAR_MAX_QUERIES,
    _inverted,
    _reflex_signs,
    delaunay,
    delaunay_stars_by_inversion,
)
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
    # (right, 0): its angular gap is exactly pi, an open chain the
    # kernel decides.  Only a repeated point sends it elsewhere.
    pts = [(0.0, 0.0), (-left, 0.0), (right, 0.0)] + above
    assert (0 in assert_stars_match(pts)) == (len(set(pts)) < len(pts))
    assert_proposals_match(pts)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(lattice, lattice), min_size=3, max_size=14))
def test_duplicates_and_lattice_points(pts):
    # Every query holds every point, so one repeated point routes them
    # all; exact lattices without one (cocircular quadruples, several
    # points on one ray) are decided throughout.
    routed = assert_stars_match(pts)
    if len(set(pts)) < len(pts):
        assert routed == set(range(len(pts)))
    else:
        assert not routed
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
    # the neighbourhood, where the scalar triangulator's super triangle
    # matters.
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


def test_exact_grid_matches_and_is_decided():
    # Cocircular everywhere, and up to four points on one ray.
    pts = [(c * 12.5, r * 12.5) for r in range(5) for c in range(5)]
    assert not assert_stars_match(pts)
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


def _star_counts(points):
    with obs.recording() as record:
        proposed_triangles(UnitDiskGraph([Point(*p) for p in points], RADIUS))
    counts = record["counts"]
    return (
        counts["construction.star_routed_queries"],
        counts["construction.star_exact_rescues"],
    )


def test_no_routing_on_uniform_cloud():
    # The suite recipe: n=2000, side 10*sqrt(n), radius 25.  The float
    # filter decides every in-circle test: no row needs the exact one.
    n = 2000
    side = 10.0 * math.sqrt(n)
    rng = random.Random(2002)
    pts = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)]
    assert _star_counts(pts) == (0, 0)


def test_exact_grid_is_decided():
    # The cocircular rows take the exact test and the tie rule; no
    # query leaves the kernel.
    pts = [(c * 12.5, r * 12.5) for r in range(8) for c in range(8)]
    routed, rescues = _star_counts(pts)
    assert routed == 0 and rescues > 0


# -- the inverted-coordinate reflex filter ------------------------------------

def _filtered_signs(rows):
    """The kernel's in-circle signs for ``(u, p, w, n)`` point rows."""
    k = len(rows)
    ux, uy = (np.array([r[0][i] for r in rows], dtype=np.float64) for i in (0, 1))
    vx = np.array([r[j][0] for j in (1, 2, 3) for r in rows], dtype=np.float64)
    vy = np.array([r[j][1] for j in (1, 2, 3) for r in rows], dtype=np.float64)
    q = np.arange(k)
    own = np.tile(q, 3)
    inv = _inverted(np, vx - ux[own], vy - uy[own])
    return _reflex_signs(np, inv, ux, uy, vx, vy, own, q, q + k, q + 2 * k)


def _exact_signs(rows):
    """Exact in-circle signs of ``(u, p, w, n)`` rows, the tie rule's
    where they are zero."""
    cols = [
        np.array([r[j][i] for r in rows], dtype=np.float64)
        for j in range(4) for i in (0, 1)
    ]
    exact, _ = incircle_signs_batch(*cols)
    tied = exact == 0
    exact[tied] = incircle_perturbed_batch(*(c[tied] for c in cols))
    return exact, tied


def assert_filter_exact(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        signs, _ = _filtered_signs(rows)
        exact, _ = _exact_signs(rows)
    assert signs.tolist() == exact.tolist(), rows


#: The twelve integer points on the circle of radius 5 about the origin.
_CIRCLE_5 = sorted({
    (sx * a, sy * b)
    for a, b in ((3, 4), (4, 3), (5, 0), (0, 5))
    for sx in (1, -1) for sy in (1, -1)
})

transform = st.tuples(
    st.sampled_from([1.0, 1e-6, 1e6, 0.1]),   # scale
    st.sampled_from([0.0, 1e6, -3.7]),        # translation
)


@st.composite
def near_cocircular(draw):
    """Four points of one exact circle, one coordinate nudged."""
    pts = draw(st.permutations(_CIRCLE_5))[:4]
    cx, cy = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    pts = [[x + cx, y + cy] for x, y in pts]
    eps = draw(st.sampled_from([0.0, 1e-9, 1e-11, 1e-13, 1e-14, 1e-15, 1e-16]))
    who, axis = draw(st.integers(0, 3)), draw(st.integers(0, 1))
    pts[who][axis] += draw(st.sampled_from([1.0, -1.0])) * eps * 5.0
    scale, shift = draw(transform)
    return tuple((x * scale + shift, y * scale + shift) for x, y in pts)


@st.composite
def near_coincident(draw):
    """A neighbour a hair from the center: inverted coordinates overflow."""
    u = (draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)))
    tiny = draw(st.sampled_from([0.0, 5e-324, 1e-310, 1e-200, 1e-160, 1e-60, 1e-20]))
    dx, dy = draw(st.sampled_from([(1.0, 0.0), (0.6, -0.8), (-1.0, 1.0)]))
    close = (u[0] + tiny * dx, u[1] + tiny * dy)
    others = [tuple(u[i] + draw(st.sampled_from([-5.0, 3.0, 4.0])) for i in (0, 1))
              for _ in range(2)]
    rows = [u, close, *others]
    order = draw(st.permutations([1, 2, 3]))
    return (rows[0], *(rows[i] for i in order))


@st.composite
def collinear_rays(draw):
    """Neighbours on one line through the center (rays at 0 and pi)."""
    u = (draw(st.integers(-20, 20)) * 1.0, draw(st.integers(-20, 20)) * 1.0)
    d = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (3.0, 4.0), (1.0, 1e-12)]))
    ts = draw(st.lists(st.sampled_from([-3.0, -1.0, 0.5, 2.0, 7.0]),
                       min_size=2, max_size=2))
    on_line = [(u[0] + t * d[0], u[1] + t * d[1]) for t in ts]
    off = (u[0] + draw(st.floats(-9.0, 9.0)), u[1] + draw(st.floats(-9.0, 9.0)))
    scale, shift = draw(transform)
    rows = [u, *on_line, off]
    rows = [rows[0], *draw(st.permutations(rows[1:]))]
    return tuple((x * scale + shift, y * scale + shift) for x, y in rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(near_cocircular(), near_coincident(), collinear_rays()),
    min_size=1, max_size=24,
))
def test_reflex_filter_signs_equal_exact_incircle(rows):
    assert_filter_exact(rows)


def test_reflex_filter_defers_exact_circles():
    # Every exact sign is zero and the float orientation a rounding
    # residue: each row is deferred, and the tie rule decides it.
    rows = [tuple(_CIRCLE_5[i:i + 4]) for i in range(len(_CIRCLE_5) - 3)]
    rows += [tuple((x + 1e6, y + 1e6) for x, y in r) for r in rows]
    signs, rescued = _filtered_signs(rows)
    exact, tied = _exact_signs(rows)
    assert tied.all() and rescued == len(rows)
    assert 0 not in signs.tolist() and signs.tolist() == exact.tolist()


# -- the one-pass angular sort key ---------------------------------------------

def test_sort_key_spacing_stays_below_the_tie_band():
    # A query gathers 4 m >= 12 entries (m >= 3 members), so a block of
    # BLOCK_ENTRIES entries holds at most BLOCK_ENTRIES // 12 queries.
    # Raising the budget past what the key resolves must fail here.
    max_queries = BLOCK_ENTRIES // 12
    assert max_queries <= _STAR_MAX_QUERIES
    assert np.spacing(8.0 * max_queries) < _STAR_ANGLE_TIE / 4
    assert np.spacing(8.0 * _STAR_MAX_QUERIES) < _STAR_ANGLE_TIE / 4


def test_sort_key_straddling_ties_are_ordered_exactly():
    # One block at the budget's query count: every query has two
    # neighbours 0.5e-9 (inside the tie band) or 2e-9 (outside) apart
    # in angle, the far one of which is reflex, and a third less than
    # pi past them.  Whichever way the sort key rounds, the exact
    # ordering decides every query as the scalar triangulator does.
    B = BLOCK_ENTRIES // 16  # four members each
    rng = random.Random(11)
    pts = []
    for q in range(B):
        cx, cy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        theta = rng.uniform(-math.pi, math.pi)
        delta = 0.5e-9 if q % 2 else 2e-9
        other = theta + rng.uniform(0.3, math.pi - 0.3)
        pts += [
            (cx, cy),
            (cx + 10.0 * math.cos(theta), cy + 10.0 * math.sin(theta)),
            (cx + 14.0 * math.cos(theta + delta), cy + 14.0 * math.sin(theta + delta)),
            (cx + 12.0 * math.cos(other), cy + 12.0 * math.sin(other)),
        ]
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    res = delaunay_stars_by_inversion(
        xs, ys, np.arange(B + 1) * 4, np.arange(4 * B), np.zeros(B, dtype=np.int64)
    )
    assert res.fallback.shape[0] == 0
    found = {q: set() for q in range(B)}
    for q, tri in zip(res.owner.tolist(), res.tris.tolist()):
        found[q].add(tuple(tri))
    for q in range(B):
        local = [Point(float(x), float(y)) for x, y in pts[4 * q: 4 * q + 4]]
        assert found[q] == set(delaunay(local).triangles_of(0)), q
