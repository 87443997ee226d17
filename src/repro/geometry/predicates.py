"""Geometric predicates: orientation, in-circle, segment intersection.

The orientation and in-circle predicates follow the classic determinant
formulations.  Both use an epsilon tuned to the magnitude of the inputs
so that near-degenerate configurations are classified as collinear /
cocircular rather than flipping sign on rounding noise.  The
triangulator and the SoA kernels need exact signs instead (grid
deployments are exactly degenerate): the adaptively exact batched
forms are below, with the one tie rule for an exactly zero in-circle
sign, :func:`incircle_perturbed`.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.geometry.primitives import Point


class Orientation(enum.IntEnum):
    """Result of the :func:`orientation` predicate."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


#: Relative tolerance used to snap tiny determinants to zero.
_REL_EPS = 1e-12

#: Absolute term of the in-circle error band.  The relative term
#: assumes no product underflows; a product of (sub)normal-tiny
#: coordinate differences rounds to a multiple of 2**-1074 instead, and
#: that error times the remaining factors stays below this bound for
#: coordinates up to about 1e15.  Ordinary inputs never come near it.
INCIRCLE_UNDERFLOW = 1e-290


def orientation_value(a: Point, b: Point, c: Point) -> float:
    """Twice the signed area of triangle ``abc`` (raw determinant)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns :data:`Orientation.COUNTERCLOCKWISE` when ``c`` lies to the
    left of the directed line ``a -> b``, :data:`Orientation.CLOCKWISE`
    when it lies to the right, and :data:`Orientation.COLLINEAR` when
    the three points are (numerically) collinear.
    """
    det = orientation_value(a, b, c)
    # Scale the epsilon with the coordinate magnitudes involved so the
    # predicate behaves the same for points in [0,1]^2 and [0,1000]^2.
    scale = (
        abs(b[0] - a[0])
        + abs(b[1] - a[1])
        + abs(c[0] - a[0])
        + abs(c[1] - a[1])
    )
    eps = _REL_EPS * scale * scale
    if det > eps:
        return Orientation.COUNTERCLOCKWISE
    if det < -eps:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def in_circle(a: Point, b: Point, c: Point, d: Point) -> float:
    """In-circle determinant for ``d`` against the circle through ``a, b, c``.

    The triple ``(a, b, c)`` must be in counter-clockwise order; then
    the result is positive when ``d`` is strictly inside the
    circumcircle, negative when outside and (near) zero when the four
    points are cocircular.  Callers needing an orientation-independent
    answer should use :func:`repro.geometry.circle.point_in_circumcircle`.
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )


def on_segment(p: Point, q: Point, r: Point) -> bool:
    """Whether collinear point ``r`` lies on the closed segment ``pq``."""
    return (
        min(p[0], q[0]) - 1e-12 <= r[0] <= max(p[0], q[0]) + 1e-12
        and min(p[1], q[1]) - 1e-12 <= r[1] <= max(p[1], q[1]) + 1e-12
    )


def segments_intersect(p1: Point, q1: Point, p2: Point, q2: Point) -> bool:
    """Whether closed segments ``p1q1`` and ``p2q2`` intersect at all.

    Shared endpoints and touching count as intersection; use
    :func:`segments_cross` for the planar-graph notion of a *crossing*.
    """
    o1 = orientation(p1, q1, p2)
    o2 = orientation(p1, q1, q2)
    o3 = orientation(p2, q2, p1)
    o4 = orientation(p2, q2, q1)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == Orientation.COLLINEAR and on_segment(p1, q1, p2):
        return True
    if o2 == Orientation.COLLINEAR and on_segment(p1, q1, q2):
        return True
    if o3 == Orientation.COLLINEAR and on_segment(p2, q2, p1):
        return True
    if o4 == Orientation.COLLINEAR and on_segment(p2, q2, q1):
        return True
    return False


def segments_cross(p1: Point, q1: Point, p2: Point, q2: Point) -> bool:
    """Whether two segments *properly cross* (intersect in their interiors).

    This is the test used to decide planarity of an embedded graph:
    edges that merely share an endpoint do not cross.
    """
    if p1 in (p2, q2) or q1 in (p2, q2):
        return False
    o1 = orientation(p1, q1, p2)
    o2 = orientation(p1, q1, q2)
    o3 = orientation(p2, q2, p1)
    o4 = orientation(p2, q2, q1)
    if (
        Orientation.COLLINEAR in (o1, o2, o3, o4)
    ):
        # Touching or overlapping but with an endpoint on the other
        # segment: treat interior-touching as a crossing, endpoint
        # contact as not.  For random-coordinate inputs this branch is
        # exercised only by hand-built degenerate tests.
        if o1 == Orientation.COLLINEAR and on_segment(p1, q1, p2):
            return _strictly_inside(p1, q1, p2)
        if o2 == Orientation.COLLINEAR and on_segment(p1, q1, q2):
            return _strictly_inside(p1, q1, q2)
        if o3 == Orientation.COLLINEAR and on_segment(p2, q2, p1):
            return _strictly_inside(p2, q2, p1)
        if o4 == Orientation.COLLINEAR and on_segment(p2, q2, q1):
            return _strictly_inside(p2, q2, q1)
        return False
    return o1 != o2 and o3 != o4


def _strictly_inside(p: Point, q: Point, r: Point) -> bool:
    """Whether collinear ``r`` lies strictly inside segment ``pq``."""
    return on_segment(p, q, r) and r != p and r != q


# -- batched predicates (SoA kernels) -----------------------------------------
#
# The vectorized construction core evaluates predicates on whole arrays
# of rows at once.  Two regimes, mirroring the scalar code exactly:
#
# * orientation() snaps tiny determinants to COLLINEAR — that snap *is*
#   the semantics, so orientation_codes_batch just replicates the float
#   arithmetic elementwise (IEEE-identical, no fallback needed);
# * the triangulator's _orient_sign / _in_circumcircle are adaptively
#   exact — the batch versions reuse the same float determinant and the
#   same error band, and route only the ambiguous rows to exact
#   arithmetic: float arithmetic on rows that scale to small integers
#   (_lattice), Fraction or Python-integer rows otherwise.  The
#   error-band filter can only *defer* to exact arithmetic, never
#   contradict it, which the hypothesis property suite asserts row by
#   row.


#: On integer coordinates whose offsets from a predicate's pivot stay
#: below ``2**_ORIENT_BITS`` (orientation) or ``2**_INCIRCLE_BITS``
#: (in-circle), every intermediate of the float determinant is an
#: integer below ``2**53``, so the float arithmetic is exact.
_ORIENT_BITS = 26
_INCIRCLE_BITS = 12


def _lattice(np, cols, bits):
    """Coordinate rows scaled to exact integers, and where that is small.

    ``cols`` holds equal-length coordinate arrays, x and y alternating,
    the last pair being the pivot the predicate subtracts.  Every float
    is an odd integer times a power of two, so scaling a row by two to
    the minus its least such exponent is exact and leaves integers.
    Returns the scaled arrays and a mask of the rows whose offsets from
    the pivot all stay within ``2**bits`` in magnitude; a row that
    overflows fails it and is zeroed.  Exactly cocircular and collinear
    inputs are grids and other lattices, so this is where the batched
    predicates settle their exact rows without a Python loop.
    """
    stack = np.stack(cols)
    mant, exp = np.frexp(stack)
    sig = (mant * 2.0 ** 53).astype(np.int64)
    # frexp(2**t) = (0.5, t + 1): low - 1 counts sig's trailing zeros.
    low = np.frexp((sig & -sig).astype(np.float64))[1]
    lsb = np.where(sig == 0, 1 << 20, exp - 54 + low)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.ldexp(stack, -lsb.min(axis=0))
        offsets = scaled[:-2] - np.tile(scaled[-2:], (stack.shape[0] // 2 - 1, 1))
        small = (np.abs(offsets) <= 2.0 ** bits).all(axis=0)
    scaled[:, ~small] = 0.0  # the callers' determinants stay finite
    return scaled, small


def _exact_orient_row(ax, ay, bx, by, cx, cy) -> int:
    from fractions import Fraction

    det = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    return (det > 0) - (det < 0)


def _exact_incircle_row(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    # Exact in integers: every float is an integer over a power of two,
    # so scaling all eight by the largest denominator makes them
    # integers, and the determinant (homogeneous of degree 4 in the
    # differences) keeps its sign.  Several times cheaper than Fraction
    # arithmetic, which renormalizes by a gcd at every step; exactly
    # cocircular grids send thousands of rows here.
    ratios = [float(v).as_integer_ratio() for v in (ax, ay, bx, by, cx, cy, dx, dy)]
    den = max(d for _, d in ratios)
    ax, ay, bx, by, cx, cy, dx, dy = (n * (den // d) for n, d in ratios)
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    det = (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )
    return (det > 0) - (det < 0)


def orientation_codes_batch(ax, ay, bx, by, cx, cy):
    """Elementwise :func:`orientation` over coordinate arrays.

    Returns an int8 array of :class:`Orientation` values.  Pure float
    replication — numpy's elementwise arithmetic is IEEE-identical to
    the scalar expressions, so this *is* ``orientation`` per row.
    """
    from repro.core.compat import np

    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    scale = abs(bx - ax) + abs(by - ay) + abs(cx - ax) + abs(cy - ay)
    eps = _REL_EPS * scale * scale
    return (det > eps).astype(np.int8) - (det < -eps).astype(np.int8)


def orient_signs_batch(ax, ay, bx, by, cx, cy):
    """Adaptively exact orientation signs over coordinate arrays.

    The batch analogue of the triangulator's ``_orient_sign``: the
    float determinant decides when it clears the relative error band,
    and only ambiguous rows pay for exact (Fraction) arithmetic.
    Returns ``(signs, ambiguous)`` so callers (and the property suite)
    can see exactly which rows deferred.
    """
    from repro.core.compat import np

    rbx, rby = bx - ax, by - ay
    rcx, rcy = cx - ax, cy - ay
    det = rbx * rcy - rby * rcx
    scale = np.maximum(
        np.maximum(abs(rbx), abs(rby)), np.maximum(abs(rcx), abs(rcy))
    )
    scale = np.maximum(scale, 1e-300)
    ambiguous = ~(abs(det) > 1e-12 * scale * scale)
    signs = np.sign(det).astype(np.int8)
    rows = np.nonzero(ambiguous)[0]
    if rows.shape[0]:
        # Pivot a last: the scaled rows are b, c, a as (x, y) pairs.
        cols = [v[rows] for v in (bx, by, cx, cy, ax, ay)]
        pt, small = _lattice(np, cols, _ORIENT_BITS)
        signs[rows] = np.sign(orientation_value(pt[4:6], pt[0:2], pt[2:4]))
        for row in rows[~small]:
            signs[row] = _exact_orient_row(
                ax[row], ay[row], bx[row], by[row], cx[row], cy[row]
            )
    return signs, ambiguous


def incircle_signs_batch(ax, ay, bx, by, cx, cy, dx, dy):
    """Adaptively exact in-circle determinant signs over arrays.

    Replicates the float determinant and forward-error bound of the
    triangulator's cavity test elementwise; rows whose determinant
    falls inside the bound are recomputed exactly.  Returns
    ``(signs, ambiguous)``; the sign convention matches
    :func:`in_circle` (positive = inside for counter-clockwise abc).
    """
    from repro.core.compat import np

    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    det = (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )
    magnitude = (
        abs(adx) * (abs(bdy) * cd2 + abs(cdy) * bd2)
        + abs(ady) * (abs(bdx) * cd2 + abs(cdx) * bd2)
        + ad2 * (abs(bdx) * abs(cdy) + abs(cdx) * abs(bdy))
    )
    ambiguous = ~(abs(det) > 1e-13 * magnitude + INCIRCLE_UNDERFLOW)
    signs = np.sign(det).astype(np.int8)
    rows = np.nonzero(ambiguous)[0]
    if rows.shape[0]:
        cols = [v[rows] for v in (ax, ay, bx, by, cx, cy, dx, dy)]
        pt, small = _lattice(np, cols, _INCIRCLE_BITS)
        signs[rows] = np.sign(in_circle(pt[0:2], pt[2:4], pt[4:6], pt[6:8]))
        for row in rows[~small]:
            signs[row] = _exact_incircle_row(
                ax[row], ay[row], bx[row], by[row],
                cx[row], cy[row], dx[row], dy[row],
            )
    return signs, ambiguous


def incircle_perturbed(a: Point, b: Point, c: Point, d: Point) -> int:
    """Sign of :func:`in_circle` under the global tie rule.

    Called where the exact sign is 0 (the four points are cocircular,
    or collinear).  The rule is a symbolic perturbation, Simulation of
    Simplicity (Edelsbrunner and Mücke, ACM TOG 1990) in the form CGAL's
    2D Delaunay triangulation uses (Devillers and Teillaud, CGTA 2011):
    each point's lift ``x^2 + y^2`` is raised by an infinitesimal that
    is larger for a point later in lexicographic ``(x, y)`` order.
    Expanded along the lift column, the determinant gains one term per
    point, its infinitesimal times the orientation of the other three
    (signed as the cofactor), so the lexicographically last point with
    a non-zero cofactor decides.  The answer depends on the coordinates
    alone, never on labels or insertion order, and it is that of one
    consistent lifting: a Delaunay triangulation under it is unique.
    Orientation itself is not perturbed.  Returns 0 only when all four
    points are collinear.
    """
    pts = (a, b, c, d)
    triples = _cofactor_triples(*pts)
    for i in sorted(range(4), key=lambda i: (pts[i][0], pts[i][1]), reverse=True):
        p, q, r = triples[i]
        sign = _exact_orient_row(p[0], p[1], q[0], q[1], r[0], r[1])
        if sign:
            return sign
    return 0


def _cofactor_triples(a, b, c, d):
    """Per point of ``(a, b, c, d)``, the triple whose orientation is
    its signed cofactor in the lift column of the in-circle determinant."""
    return ((d, b, c), (a, d, c), (a, b, d), (a, c, b))


def incircle_perturbed_batch(ax, ay, bx, by, cx, cy, dx, dy):
    """Elementwise :func:`incircle_perturbed` over coordinate arrays.

    The cofactor orientations are adaptively exact
    (:func:`orient_signs_batch`); each row's lexicographic ranks pick
    the first non-zero one.  Returns an int8 array of signs.
    """
    from repro.core.compat import np

    pts = ((ax, ay), (bx, by), (cx, cy), (dx, dy))
    cof = np.stack([
        orient_signs_batch(*p, *q, *r)[0] for p, q, r in _cofactor_triples(*pts)
    ])
    # rank[i]: how many of the other three points precede point i.
    rank = np.zeros(cof.shape, dtype=np.int8)
    for i in range(4):
        for j in range(i):
            (px, py), (qx, qy) = pts[i], pts[j]
            later = (px > qx) | ((px == qx) & (py > qy))
            rank[i] += later
            rank[j] += ~later
    ranked = np.take_along_axis(cof, np.argsort(-rank, axis=0, kind="stable"), axis=0)
    first = np.argmax(ranked != 0, axis=0)
    return np.take_along_axis(ranked, first[None], axis=0)[0]


def segments_cross_batch(px1, py1, qx1, qy1, px2, py2, qx2, qy2, mask=None):
    """Elementwise :func:`segments_cross` over coordinate arrays.

    The general-position fast path (endpoint-distinct, no collinear
    orientation) is decided fully vectorized; rows with any collinear
    orientation code fall back to the scalar function, whose
    touch/overlap branch is the semantics.  ``mask`` (optional)
    restricts which rows are evaluated; unevaluated rows return False.
    """
    from repro.core.compat import np

    if mask is None:
        mask = np.ones(px1.shape[0], dtype=bool)
    same = (
        ((px1 == px2) & (py1 == py2))
        | ((px1 == qx2) & (py1 == qy2))
        | ((qx1 == px2) & (qy1 == py2))
        | ((qx1 == qx2) & (qy1 == qy2))
    )
    o1 = orientation_codes_batch(px1, py1, qx1, qy1, px2, py2)
    o2 = orientation_codes_batch(px1, py1, qx1, qy1, qx2, qy2)
    o3 = orientation_codes_batch(px2, py2, qx2, qy2, px1, py1)
    o4 = orientation_codes_batch(px2, py2, qx2, qy2, qx1, qy1)
    anycol = (o1 == 0) | (o2 == 0) | (o3 == 0) | (o4 == 0)
    res = mask & ~same & ~anycol & (o1 != o2) & (o3 != o4)
    for row in np.nonzero(mask & ~same & anycol)[0]:
        res[row] = segments_cross(
            Point(float(px1[row]), float(py1[row])),
            Point(float(qx1[row]), float(qy1[row])),
            Point(float(px2[row]), float(py2[row])),
            Point(float(qx2[row]), float(qy2[row])),
        )
    return res


def point_in_polygon(point: Point, polygon: Sequence[Point]) -> bool:
    """Even–odd test for ``point`` inside a simple ``polygon``.

    Points exactly on the boundary may be classified either way; the
    spanner code never depends on boundary classification.
    """
    inside = False
    n = len(polygon)
    px, py = point
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_cross:
                inside = not inside
    return inside
