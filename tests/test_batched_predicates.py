"""Property suite for the batched geometric predicates.

Every batch predicate in :mod:`repro.geometry` promises one of two
things: *pure replication* (the float arithmetic is IEEE-identical to
the scalar expression, so the result IS the scalar result per row) or
*adaptive exactness* (a float determinant plus an error band, with
ambiguous rows recomputed by Fraction arithmetic — so the band may
only defer, never contradict).  Hypothesis drives both promises over
the inputs most likely to break them: exact grids (cocircular
quadruples, collinear runs), duplicated points, and near-degenerate
perturbations sitting inside the error bands.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compat import np
from repro.geometry.circle import circumcircle, circumcircles_batch, contains_batch
from repro.geometry.predicates import (
    _exact_incircle_row,
    _exact_orient_row,
    incircle_signs_batch,
    orient_signs_batch,
    orientation,
    orientation_codes_batch,
    segments_cross,
    segments_cross_batch,
)
from repro.geometry.primitives import Point, dist_sq
from repro.geometry.triangulation import _incircle_sign_exact

pytestmark = pytest.mark.skipif(np is None, reason="requires numpy")


# Coordinates chosen to stress the predicates: exact small integers
# (grids — exactly collinear triples and cocircular quadruples),
# ordinary floats, and integers scaled down to sit inside the error
# bands (near-degenerate but not exactly degenerate).
coords = st.one_of(
    st.integers(-8, 8).map(float),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False, width=64),
    st.tuples(st.integers(-8, 8), st.integers(-40, 40)).map(
        lambda t: t[0] + t[1] * 1e-13
    ),
)

point = st.tuples(coords, coords)


def _cols(rows, width):
    """Transpose row tuples into float64 column arrays."""
    return [
        np.array([row[i] for row in rows], dtype=np.float64)
        for i in range(width)
    ]


def _flat(pts):
    return [c for p in pts for c in p]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(point, point, point), min_size=1, max_size=16))
def test_orientation_codes_replicate_scalar(triples):
    arrays = _cols([_flat(t) for t in triples], 6)
    codes = orientation_codes_batch(*arrays)
    for row, (a, b, c) in enumerate(triples):
        expected = orientation(Point(*a), Point(*b), Point(*c))
        assert codes[row] == int(expected)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(point, point, point), min_size=1, max_size=16))
def test_orient_band_never_misclassifies(triples):
    arrays = _cols([_flat(t) for t in triples], 6)
    signs, ambiguous = orient_signs_batch(*arrays)
    for row, (a, b, c) in enumerate(triples):
        exact = _exact_orient_row(a[0], a[1], b[0], b[1], c[0], c[1])
        # Clear rows must already agree with exact arithmetic; the band
        # may only defer (route rows to Fraction), never contradict.
        assert signs[row] == exact, (row, bool(ambiguous[row]))


wide = st.one_of(
    coords,
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False, width=64),
    st.floats(-1e-200, 1e-200, allow_nan=False, allow_infinity=False, width=64),
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.tuples(wide, wide)] * 4))
def test_integer_exact_incircle_matches_fraction(quad):
    # The exact rescue scales every coordinate to an integer; the
    # in-circle determinant over Fractions is the reference it replaced.
    a, b, c, d = ((Fraction(x), Fraction(y)) for x, y in quad)
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    det = (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )
    expected = (det > 0) - (det < 0)
    assert _exact_incircle_row(*_flat(quad)) == expected
    assert _incircle_sign_exact(*(Point(*p) for p in quad)) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(point, point, point, point), min_size=1, max_size=12))
# Subnormal differences: the products underflow, so only the band's
# absolute term sends this exactly-zero determinant to exact arithmetic.
@example([((0.0, 2.2250738585e-313), (0.0, 2.2250738585e-313),
           (1.3000000000000001e-12, 0.0), (3.0, 0.0))])
def test_incircle_band_never_misclassifies(quads):
    arrays = _cols([_flat(q) for q in quads], 8)
    signs, ambiguous = incircle_signs_batch(*arrays)
    for row, (a, b, c, d) in enumerate(quads):
        exact = _exact_incircle_row(
            a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]
        )
        assert signs[row] == exact, (row, bool(ambiguous[row]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(point, point, point, point), min_size=1, max_size=12))
def test_segments_cross_batch_replicates_scalar(quads):
    arrays = _cols([_flat(q) for q in quads], 8)
    crosses = segments_cross_batch(*arrays)
    for row, (p1, q1, p2, q2) in enumerate(quads):
        expected = segments_cross(
            Point(*p1), Point(*q1), Point(*p2), Point(*q2)
        )
        assert bool(crosses[row]) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(point, point, point), min_size=1, max_size=12))
def test_circumcircles_batch_replicates_scalar(triples):
    arrays = _cols([_flat(t) for t in triples], 6)
    valid, ux, uy, radius = circumcircles_batch(*arrays)
    for row, (a, b, c) in enumerate(triples):
        circle = circumcircle(Point(*a), Point(*b), Point(*c))
        if circle is None:
            assert not valid[row]
        else:
            assert valid[row]
            assert (ux[row], uy[row]) == tuple(circle.center)
            assert radius[row] == circle.radius


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(point, point, point), min_size=1, max_size=8),
    point,
)
def test_contains_batch_replicates_scalar(triples, probe):
    arrays = _cols([_flat(t) for t in triples], 6)
    valid, ux, uy, radius = circumcircles_batch(*arrays)
    px = np.full(len(triples), probe[0])
    py = np.full(len(triples), probe[1])
    inside = contains_batch(ux, uy, radius, px, py)
    for row, (a, b, c) in enumerate(triples):
        circle = circumcircle(Point(*a), Point(*b), Point(*c))
        if circle is None:
            continue
        assert bool(inside[row]) == circle.contains(Point(*probe))


def test_exactly_cocircular_quadruple_is_ambiguous_and_zero():
    # Four points of an axis-aligned square: exactly cocircular, so the
    # float determinant is 0 and the exact path must report 0 too.
    pts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    arrays = _cols([_flat(pts)], 8)
    signs, ambiguous = incircle_signs_batch(*arrays)
    assert signs[0] == 0
    assert ambiguous[0]


def test_near_cocircular_band_defers_to_exact():
    # Perturb the probe point off the circle by one part in 1e13 —
    # inside the float error band, so the row must defer and the
    # deferred sign must match exact arithmetic.
    base = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]
    for delta in (1e-13, -1e-13):
        d = (0.0, 2.0 + delta)
        arrays = _cols([_flat(base + [d])], 8)
        signs, _ = incircle_signs_batch(*arrays)
        exact = _exact_incircle_row(
            0.0, 0.0, 2.0, 0.0, 2.0, 2.0, d[0], d[1]
        )
        assert signs[0] == exact


def test_collinear_run_orientation_zero():
    run = [((0.0, 0.0), (1.0, 1.0), (float(k), float(k))) for k in range(2, 12)]
    arrays = _cols([_flat(t) for t in run], 6)
    codes = orientation_codes_batch(*arrays)
    assert not codes.any()
