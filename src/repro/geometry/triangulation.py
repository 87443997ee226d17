"""From-scratch Delaunay triangulation (Bowyer–Watson, adaptively exact).

The localized Delaunay construction (paper Algorithm 2) has every node
compute the Delaunay triangulation of its 1-hop neighborhood, so the
triangulator is called once per node on a few dozen points.  The
incremental Bowyer–Watson scheme here is O(m^2) per call, which is far
below the cost of anything else in the pipeline at those sizes, and is
cross-validated against :mod:`scipy.spatial` in the test suite.  The
SoA construction core needs only each node's own star and takes it
directly (:func:`delaunay_stars_by_inversion`); the only queries that
kernel leaves to this scalar :func:`delaunay` hold duplicate
coordinates or a far circumcircle.

Robustness: the cavity in-circle test is **adaptively exact** — the
fast float determinant decides whenever its magnitude exceeds a
conservative rounding-error bound, and borderline cases are recomputed
exactly (:class:`fractions.Fraction` for orientation, Python integers
for the in-circle sign; both exact for any float input).  That is
what keeps degenerate inputs correct: collinear runs of points, exact
cocircular quadruples (grid deployments are full of both), and points
landing exactly on existing edges.  Exactly cocircular points have no
unique Delaunay triangulation; one tie rule, a symbolic perturbation in
lexicographic order
(:func:`~repro.geometry.predicates.incircle_perturbed`), picks the
triangulation here and in the star kernel alike, so it depends on the
coordinates alone and not on node labels.

Degenerate inputs are handled explicitly:

* fewer than three points, or all points collinear, yield a
  triangulation with no triangles whose edge set is the path along the
  sorted points (the limit object of the Delaunay graph);
* duplicate points are collapsed before triangulating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from repro.geometry.predicates import (
    INCIRCLE_UNDERFLOW,
    Orientation,
    _exact_incircle_row,
    incircle_perturbed,
    orientation,
    orientation_value,
)
from repro.geometry.primitives import Point


@dataclass
class Triangulation:
    """Result of :func:`delaunay`.

    ``triangles`` hold indices into ``points`` as sorted triples, and
    ``edges`` as sorted pairs.  Indices refer to the *input* point
    sequence, including duplicates (only the first occurrence of a
    duplicated coordinate appears in the output structures).
    """

    points: list[Point]
    triangles: list[tuple[int, int, int]] = field(default_factory=list)
    edges: set[tuple[int, int]] = field(default_factory=set)
    _incidence: dict[int, list[tuple[int, int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def adjacency(self) -> dict[int, set[int]]:
        """Adjacency map of the triangulation's edge set."""
        adj: dict[int, set[int]] = {i: set() for i in range(len(self.points))}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def triangles_of(self, vertex: int) -> list[tuple[int, int, int]]:
        """All triangles incident on ``vertex`` (O(deg) via incidence map).

        The vertex→triangles map is built once on first use and reused;
        callers that probe every vertex (the localized Delaunay
        candidate generation does) pay O(T) total instead of O(V·T).
        """
        if not self._incidence and self.triangles:
            for tri in self.triangles:
                for v in tri:
                    self._incidence.setdefault(v, []).append(tri)
        return list(self._incidence.get(vertex, ()))


def _sign(value: float) -> int:
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


def _orient_sign_exact(a: Point, b: Point, c: Point) -> int:
    """Exact sign of the orientation determinant (Fraction arithmetic)."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return _sign(det)


def _incircle_sign_exact(a: Point, b: Point, c: Point, d: Point) -> int:
    """Exact sign of the in-circle determinant (integer arithmetic)."""
    return _exact_incircle_row(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])


def _orient_sign(a: Point, b: Point, c: Point) -> int:
    """Sign of orientation(a, b, c), exact on borderline magnitudes."""
    det = orientation_value(a, b, c)
    scale = max(
        abs(b[0] - a[0]), abs(b[1] - a[1]),
        abs(c[0] - a[0]), abs(c[1] - a[1]),
        1e-300,
    )
    if abs(det) > 1e-12 * scale * scale:
        return _sign(det)
    return _orient_sign_exact(a, b, c)


def _in_circumcircle(a: Point, b: Point, c: Point, d: Point, orient: int | None = None) -> bool:
    """Whether ``d`` is inside the circumcircle of ``abc``, ties perturbed.

    A cocircular ``d`` (exact sign 0) is decided by the global tie rule,
    :func:`~repro.geometry.predicates.incircle_perturbed`, so the
    triangulation of a cocircular point set is the one Delaunay
    triangulation of the perturbed lifting, whatever the insertion
    order.  (A point exactly on an existing edge is strictly inside the
    circumcircles of both triangles at that edge, so it needs no
    special case: it opens both.)  The float determinant
    decides when it exceeds a forward-error bound (the summed term
    magnitudes scaled by a safe multiple of machine epsilon); only
    borderline cases pay for exact arithmetic.

    ``orient`` may carry a precomputed ``_orient_sign(a, b, c)`` — the
    sign is a property of the triangle alone, so callers testing many
    points against one triangle compute it once.
    """
    if orient is None:
        orient = _orient_sign(a, b, c)
    if orient == 0:
        return False  # degenerate triangle: no interior
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]
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
    if abs(det) > 1e-13 * magnitude + INCIRCLE_UNDERFLOW:
        det_sign = _sign(det)
    else:
        det_sign = _incircle_sign_exact(a, b, c, d)
    if det_sign == 0:
        det_sign = incircle_perturbed(a, b, c, d)
    return det_sign == orient


# The cavity-scan prefilter brackets each circumcircle with an
# uncertainty band derived from the float error of its computed center:
# err(center) ~ eps * lb * lc * (lb + lc) / (2 |det|) for edge scales
# lb, lc and orientation determinant det, which propagates to the
# squared-distance comparison as 2 * r * err(center) + O(eps * r^2).
# The band is that bound inflated by _PREFILTER_SAFETY, so the cheap
# distance test can only ever *defer* to the adaptive exact determinant
# inside the band, never contradict it — the prefilter cannot change
# the output.  Triangles flatter than _PREFILTER_COND skip the
# prefilter entirely (their float circumcenter is meaningless).
_PREFILTER_SAFETY = 1e4
_PREFILTER_COND = 1e-4
_EPS = 2.220446049250313e-16  # 2**-52


def _triangle_record(
    tri: tuple[int, int, int], verts: Sequence[Point]
) -> tuple[tuple[int, int, int], int, float, float, float, float]:
    """Precompute per-triangle data for the cavity scan.

    Returns ``(tri, orient, cx, cy, near, far)``: the cached
    orientation sign plus a float circumcenter with conservative
    inner/outer squared-radius bands.  A candidate point farther than
    ``far`` is certainly outside the circumcircle and one closer than
    ``near`` is certainly inside; only the thin shell between them (and
    every point of an ill-conditioned triangle, flagged ``far < 0``)
    pays for the adaptive exact in-circle test.
    """
    a, b, c = verts[tri[0]], verts[tri[1]], verts[tri[2]]
    # Work in coordinates relative to ``a`` so the conditioning check
    # and the center are immune to a large common offset.  The cross
    # product below is bit-identical to orientation_value(a, b, c), so
    # the cached sign replicates _orient_sign exactly (including its
    # exact-arithmetic fallback band).
    bx, by = b[0] - a[0], b[1] - a[1]
    cx_, cy_ = c[0] - a[0], c[1] - a[1]
    det = bx * cy_ - by * cx_
    abs_det = abs(det)
    abx = abs(bx)
    aby = abs(by)
    lb = abx if abx > aby else aby
    acx = abs(cx_)
    acy = abs(cy_)
    lc = acx if acx > acy else acy
    scale = lb if lb > lc else lc
    if scale < 1e-300:
        scale = 1e-300
    if abs_det > 1e-12 * scale * scale:
        orient = 1 if det > 0.0 else -1
    else:
        orient = _orient_sign_exact(a, b, c)
    if orient == 0:
        # Degenerate triangle: no interior, every point is "outside".
        return (tri, 0, 0.0, 0.0, -1.0, float("inf"))
    # Condition on the *product* of the edge scales, not scale**2: a
    # triangle with one short and one astronomically long edge (every
    # super-triangle neighbor during construction) is perfectly well
    # conditioned when its angles are, and must not lose the prefilter.
    if abs_det <= _PREFILTER_COND * lb * lc:
        # Sliver: float circumcenter too inaccurate, no prefilter.
        return (tri, orient, 0.0, 0.0, -1.0, -1.0)
    d = 2.0 * det
    b2 = bx * bx + by * by
    c2 = cx_ * cx_ + cy_ * cy_
    ux = (cy_ * b2 - by * c2) / d
    uy = (bx * c2 - cx_ * b2) / d
    r_sq = ux * ux + uy * uy
    center_err = _EPS * lb * lc * (lb + lc) / (2.0 * abs_det)
    band = _PREFILTER_SAFETY * (
        2.0 * math.sqrt(r_sq) * center_err + 4.0 * _EPS * r_sq
    )
    return (tri, orient, a[0] + ux, a[1] + uy, r_sq - band, r_sq + band)


@dataclass
class StarBatchResult:
    """Output of :func:`delaunay_stars_by_inversion`.

    ``owner[i]`` is the query index of row ``i`` of ``tris``; triangle
    vertices are ascending *local* indices into the query's member
    list.  ``fallback`` lists the query indices the kernel did not
    decide (duplicate coordinates and far circles); the caller runs
    them through the scalar :func:`delaunay`.  ``rescues`` counts the
    in-circle rows the kernel's float filter deferred to the exact
    test.
    """

    owner: object
    tris: object
    fallback: object
    rescues: int = 0


def _noncollinear_queries(np, flat_x, flat_y, base, owner_flat, pos_in_seg):
    """Which queries escape :func:`delaunay`'s all-collinear early-out.

    Replicates it elementwise: a query (at least three members) whose
    every later member is eps-collinear (:func:`orientation`) with its
    first two yields no triangles.
    """
    from repro.geometry.predicates import orientation_codes_batch

    tail = pos_in_seg >= 2
    t_owner = owner_flat[tail]
    codes = orientation_codes_batch(
        flat_x[base][t_owner], flat_y[base][t_owner],
        flat_x[base + 1][t_owner], flat_y[base + 1][t_owner],
        flat_x[tail], flat_y[tail],
    )
    out = np.zeros(base.shape[0], dtype=bool)
    out[t_owner[codes != 0]] = True
    return out


# -- Delaunay stars by inversion ----------------------------------------------
#
# Algorithm 2 uses only the proposer's own star in Del(N_1(u)), so the
# kernel below finds that star directly, in O(deg) predicates per
# round instead of triangulating the whole neighbourhood.  It decides
# every query but those with duplicate coordinates or a far circle,
# which go to the scalar triangulator.

#: Float angles closer than this (or an angular gap this close to pi)
#: are re-decided by exact orientation signs.  It is far above the
#: error of ``arctan2`` (a few units of roundoff).
_STAR_ANGLE_TIE = 1e-9

#: Star triangles whose circumradius exceeds this multiple of the
#: query's extent (at least 1) are routed.  The scalar triangulator's
#: super triangle sits 1e9 such extents out, so it keeps every
#: Delaunay triangle below this bound.
_STAR_MAX_RADIUS = 1e6

#: Queries per call of the inversion kernel.  Its angular sort key
#: ``owner * 8 + angle`` stays below ``8 * _STAR_MAX_QUERIES = 2**20``,
#: where the float spacing (at most 2**-33) is under a quarter of
#: ``_STAR_ANGLE_TIE``.
_STAR_MAX_QUERIES = 1 << 17

#: Relative band of the inverted-coordinate reflex filter (see
#: :func:`delaunay_stars_by_inversion`): over 40 times its worst-case
#: forward error of 18 units of roundoff.
_STAR_FILTER_BAND = 1e-13

#: Rows with a squared offset outside ``[_STAR_SAFE_MIN, 1 /
#: _STAR_SAFE_MIN]`` leave the filter.  Inside it every inverted
#: coordinate is below 1e50 in magnitude, so what underflow loses
#: (subnormal coordinates, products rounded to a multiple of
#: 2**-1074) stays far below the absolute floor ``_STAR_FILTER_FLOOR``.
_STAR_SAFE_MIN = 1e-100
_STAR_FILTER_FLOOR = 1e-250


def _inverted(np, dx, dy):
    """Inverted coordinates ``(dx, dy) / (dx^2 + dy^2)`` and their 1-norms.

    Entries whose squared offset lies outside the safe range get
    coordinates 0 and norm infinity, so every row of
    :func:`_reflex_signs` that touches one has an infinite band and
    takes the exact test.
    """
    with np.errstate(over="ignore"):
        sq = dx * dx + dy * dy
    unsafe = ~((sq >= _STAR_SAFE_MIN) & (sq <= 1.0 / _STAR_SAFE_MIN))
    sq[unsafe] = np.inf
    ix, iy = dx / sq, dy / sq
    norm = np.abs(ix) + np.abs(iy)
    norm[unsafe] = np.inf
    return ix, iy, norm


def _reflex_signs(np, inv, ux, uy, vx, vy, own, p, w, n):
    """Signs of ``in_circle(u, p, w, n)`` per row, and the rescued count.

    ``inv`` is :func:`_inverted` of the offsets ``v - u``; ``p``, ``w``,
    ``n`` index ``vx``/``vy``/``inv``, and ``own`` maps them to their
    center in ``ux``/``uy``.  Rows the filter cannot decide take
    :func:`~repro.geometry.predicates.incircle_signs_batch`, so every
    sign is the exact one (see :func:`delaunay_stars_by_inversion` for
    the bound), and the exact zeros take the tie rule,
    :func:`~repro.geometry.predicates.incircle_perturbed_batch`.
    """
    from repro.geometry.predicates import incircle_perturbed_batch, incircle_signs_batch

    ix, iy, norm = inv
    px, py, pn = ix[p], iy[p], norm[p]
    o = (ix[w] - px) * (iy[n] - py) - (iy[w] - py) * (ix[n] - px)
    band = _STAR_FILTER_BAND * (norm[w] + pn) * (norm[n] + pn) + _STAR_FILTER_FLOOR
    # in_circle(u, p, w, n) > 0 exactly when o < 0.  (Arithmetic, not
    # np.where: a data-dependent select costs several times more.)
    signs = (o < 0.0).astype(np.int8) * np.int8(2) - np.int8(1)
    exact = np.nonzero(np.abs(o) <= band)[0]
    if exact.shape[0]:
        pe, we, ne = p[exact], w[exact], n[exact]
        qe = own[we]
        cols = (ux[qe], uy[qe], vx[pe], vy[pe], vx[we], vy[we], vx[ne], vy[ne])
        exact_signs, _ = incircle_signs_batch(*cols)
        tied = np.nonzero(exact_signs == 0)[0]
        if tied.shape[0]:
            exact_signs[tied] = incircle_perturbed_batch(*(c[tied] for c in cols))
        signs[exact] = exact_signs
    return signs, int(exact.shape[0])


def _ray_order(np, own, ux, uy, vx, vy, ang):
    """Exact angular order where float angles tie, and one entry per ray.

    The entries are sorted by float angle within each query's group.
    Each run of entries whose angles lie within ``_STAR_ANGLE_TIE`` of
    the next spans a sliver of angle, where ``orient(u, v, w) > 0``
    exactly when ``w`` follows ``v``, so the run is re-ranked by those
    signs.  Of the entries on one ray through ``u`` (sign 0), only the
    nearest is kept: every circle through ``u`` and a farther one holds
    the nearer strictly inside, so a farther one is never a star vertex.
    Returns the kept entries' indices in exact order and the groups
    holding two entries with equal coordinates, or ``None`` when no
    angles tie.
    """
    from repro.geometry.predicates import orient_signs_batch

    N = own.shape[0]
    near = (ang[1:] - ang[:-1] < _STAR_ANGLE_TIE) & (own[1:] == own[:-1])
    if not near.any():
        return None
    member = np.zeros(N, dtype=bool)
    member[:-1] = near
    member[1:] |= near
    start = member.copy()
    start[1:] &= ~near
    e = np.nonzero(member)[0]
    run = np.cumsum(start)[e] - 1
    first = np.nonzero(start)[0][run]
    # Every ordered pair (i, j) of distinct entries of one run.
    k = np.bincount(run)[run]
    i = np.repeat(e, k)
    j = np.repeat(first, k) + np.arange(i.shape[0]) - np.repeat(np.cumsum(k) - k, k)
    i, j = i[i != j], j[i != j]
    q = own[i]
    sign, _ = orient_signs_batch(ux[q], uy[q], vx[j], vy[j], vx[i], vy[i])
    same = sign == 0
    rank = np.bincount(i[(sign > 0) | (same & (j < i))], minlength=N)
    order = np.arange(N)
    order[first + rank[e]] = e
    i, j, q = i[same], j[same], q[same]
    out = np.sign(vx[i] - ux[q])
    farther = np.where(
        out != 0,
        np.sign(vx[i] - vx[j]) == out,
        np.sign(vy[i] - vy[j]) == np.sign(vy[i] - uy[q]),
    )
    keep = np.ones(N, dtype=bool)
    keep[i[farther]] = False
    dup = (vx[i] == vx[j]) & (vy[i] == vy[j])
    return order[keep[order]], own[i[dup]]


def delaunay_stars_by_inversion(xs, ys, members_indptr, members_flat, center):
    """The triangles of ``Del(members)`` at one member, for many queries.

    ``xs``/``ys`` are global coordinate arrays; query ``q``'s member
    list (at least 3 entries) is
    ``members_flat[members_indptr[q]:members_indptr[q+1]]``, and
    ``center[q]`` is the local index of its star's center ``u``.
    Returns a :class:`StarBatchResult` holding, for every query the
    kernel decides, exactly the triangles incident on ``u`` that
    :func:`delaunay` returns; ``fallback`` lists the rest.  Returns
    ``None`` when numpy is masked out.  One call takes at most
    ``_STAR_MAX_QUERIES`` queries.

    Why it is exact: inversion about ``u``, ``x' = (x - u) / |x - u|^2``,
    maps every circle through ``u`` to a line and the open disk it
    bounds to the open half-plane away from the origin.  So ``uvw`` is
    a Delaunay triangle, its circumcircle empty of the other members,
    exactly when every other ``x'`` lies on the origin's side of line
    ``v'w'``: ``v'w'`` is an edge of the hull of the inverted
    neighbours (with the origin) that faces away from the origin.
    Inversion keeps directions, so the kernel takes that hull by a
    Graham-style scan over the neighbours sorted by angle (one sort of
    the key ``owner * 8 + angle``: owners sit 8 > 2 pi apart, and the
    key's spacing is below ``_STAR_ANGLE_TIE``, so it can only swap
    angles that the exact ordering below re-decides anyway):

    0. Angles within ``_STAR_ANGLE_TIE`` of each other are ordered by
       exact orientation signs, and of the neighbours on one ray only
       the nearest stays (:func:`_ray_order`).
    1. If one angular gap is at least pi (exactly, by orientation sign
       where the float gap is within ``_STAR_ANGLE_TIE`` of pi), ``u``
       is on the hull, the star is an open chain and its two end points
       (``u``'s hull neighbours) stay fixed; otherwise the star is a
       cycle.
    2. Each neighbour keeps ``prv``/``nxt`` links to its current
       angular neighbours.  Every vertex ``w`` whose inverted image is
       reflex between its neighbours ``p`` and ``n`` (for a wedge under
       pi: ``w`` strictly outside ``circle(u, p, n)``) is removed, all
       at once, and each run of removed vertices is spliced out between
       the survivors around it.  Removing them together is sound: a
       reflex vertex of the star-shaped polygon the survivors form
       (with the origin) is never a vertex of its hull, so no hull
       vertex is ever removed, and every walk over a run ends.
    3. Step 2 repeats on the surviving neighbours of the removed
       vertices until nothing is removed.  The survivors then form a
       strictly convex polygon, the hull itself, and each survivor
       ``v`` with ``w = nxt[v]`` is a star triangle ``uvw``.

    The reflex test is the lifting identity
    ``in_circle(u, p, w, n) = -|p-u|^2 |w-u|^2 |n-u|^2 orient(p', w', n')``,
    evaluated as the float orientation
    ``o = (w'x - p'x)(n'y - p'y) - (w'y - p'y)(n'x - p'x)`` of inverted
    coordinates that each block computes once.  Error bound, with
    u = 2**-53 and first-order terms: each inverted coordinate takes one
    rounding in ``x - u``, three in ``|x - u|^2`` and one in the
    division, so it is within 7u of the exact inverse of the exact
    offset.  ``orient`` expands into six two-coordinate products, each
    then within 14u of its exact value, and the difference form adds
    four roundings to each of its two products.  Both sums are bounded
    by ``T = (|w'| + |p'|)(|n'| + |p'|)`` in 1-norms, so
    ``|o - orient(p', w', n')| <= 18u T``.  A row whose ``|o|`` exceeds
    ``_STAR_FILTER_BAND * T`` (plus the floor ``_STAR_FILTER_FLOOR``,
    which covers underflow) therefore has the exact sign, never zero.
    Every other row, and every row touching a squared offset outside
    the ``_STAR_SAFE_MIN`` range (near-coincident or far points, whose
    inverted coordinates are set to 0 with an infinite norm, so the
    band is infinite), takes the exact-rescued
    :func:`~repro.geometry.predicates.incircle_signs_batch`, and
    ``rescues`` counts those rows.

    Cocircular members make an exact sign zero.  There the Delaunay
    triangulation is not unique, and both this kernel and
    :func:`delaunay` take the one tie rule,
    :func:`~repro.geometry.predicates.incircle_perturbed`.  It raises
    each lift by an infinitesimal, which moves every inverted point
    along its own ray, so the angular order, and with it the scan,
    stand as above.  A query leaves the kernel only when it holds two
    members with equal coordinates (which :func:`delaunay` merges), or
    when a star triangle's circumradius exceeds ``_STAR_MAX_RADIUS``
    extents, near enough to the super triangle that :func:`delaunay`
    could drop it.  Queries :func:`delaunay` short-cuts as
    all-collinear yield nothing, as there.
    """
    from repro.core.compat import get_numpy
    from repro.geometry.predicates import orient_signs_batch

    np = get_numpy()
    if np is None:
        return None
    base = members_indptr[:-1]
    m = (members_indptr[1:] - base).astype(np.int64)
    B = int(m.shape[0])
    empty = np.zeros(0, dtype=np.int64)
    if B == 0:
        return StarBatchResult(empty, empty.reshape(0, 3), empty)
    if B > _STAR_MAX_QUERIES:
        raise ValueError(f"{B} queries exceed the kernel's {_STAR_MAX_QUERIES}")
    total = int(members_indptr[-1])
    flat_x = xs[members_flat]
    flat_y = ys[members_flat]
    owner_flat = np.repeat(np.arange(B), m)
    pos_in_seg = np.arange(total) - base[owner_flat]
    decided = _noncollinear_queries(np, flat_x, flat_y, base, owner_flat, pos_in_seg)

    # Neighbours (every member but the center), sorted by angle.
    nb = pos_in_seg != center[owner_flat]
    own, loc = owner_flat[nb], pos_in_seg[nb]
    vx, vy = flat_x[nb], flat_y[nb]
    ux, uy = flat_x[base + center], flat_y[base + center]
    dx, dy = vx - ux[own], vy - uy[own]
    routed = np.zeros(B, dtype=bool)
    routed[own[(dx == 0.0) & (dy == 0.0)]] = True
    extent = np.maximum(
        np.maximum.reduceat(np.maximum(np.abs(dx), np.abs(dy)), base - np.arange(B)),
        1.0,
    )
    ang = np.arctan2(dy + 0.0, dx)  # + 0.0: a -0.0 offset sorts as +0.0
    order = np.argsort(own * 8.0 + ang)
    # own is grouped already; the sort permutes within each group.
    loc, vx, vy, dx, dy, ang = (a[order] for a in (loc, vx, vy, dx, dy, ang))
    ties = _ray_order(np, own, ux, uy, vx, vy, ang)
    if ties is not None:
        order, dup = ties
        routed[dup] = True
        own, loc, vx, vy, dx, dy, ang = (a[order] for a in (own, loc, vx, vy, dx, dy, ang))
    decided &= ~routed
    # Cyclic links within each query's group of kept neighbours.
    N = own.shape[0]
    idx = np.arange(N)
    size = np.bincount(own, minlength=B)
    last = np.cumsum(size)[size > 0] - 1
    first = last - size[size > 0] + 1
    nxt, prv = idx + 1, idx - 1
    nxt[last], prv[first] = first, last
    gap = ang[nxt] - ang
    gap[last] += 2.0 * math.pi
    # An open chain's gap of at least pi runs from its last vertex to
    # its first.
    chain_last = gap > math.pi
    close = np.nonzero(np.abs(gap - math.pi) < _STAR_ANGLE_TIE)[0]
    if close.shape[0]:
        q, w = own[close], nxt[close]
        sign, _ = orient_signs_batch(ux[q], uy[q], vx[close], vy[close], vx[w], vy[w])
        chain_last[close] = sign <= 0

    inv = _inverted(np, dx, dy)

    alive = decided[own]
    movable = alive & ~(chain_last | chain_last[prv])
    dirty = movable.copy()
    rescues = 0
    while True:
        w = np.nonzero(dirty)[0]
        if w.shape[0] == 0:
            break
        signs, rescued = _reflex_signs(np, inv, ux, uy, vx, vy, own, prv[w], w, nxt[w])
        rescues += rescued
        # w is reflex: remove it, and splice each run of removed
        # vertices out between the nearest survivors on either side.
        # Those survivors are the next round's dirty set.
        gone = np.compress(signs > 0, w)  # faster than a boolean index
        alive[gone] = False
        movable[gone] = False
        before, after = prv[gone], nxt[gone]
        for link, end in ((prv, before), (nxt, after)):
            run = np.nonzero(~alive[end])[0]
            while run.shape[0]:
                end[run] = link[end[run]]
                run = run[~alive[end[run]]]
        nxt[before], prv[after] = after, before
        dirty[:] = False
        dirty[before] = True
        dirty[after] = True
        dirty &= movable

    v = np.nonzero(alive & ~chain_last)[0]
    w = nxt[v]
    q = own[v]
    bx, by = vx[v] - ux[q], vy[v] - uy[q]
    cx, cy = vx[w] - ux[q], vy[w] - uy[q]
    sides = np.hypot(bx, by) * np.hypot(cx, cy) * np.hypot(vx[w] - vx[v], vy[w] - vy[v])
    far = ~(sides < 2.0 * np.abs(bx * cy - by * cx) * _STAR_MAX_RADIUS * extent[q])
    routed[q[far]] = True
    star = ~routed[q]
    q = q[star]
    a, b, c = center[q], loc[v[star]], loc[w[star]]
    lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    tris = np.stack([lo, a + b + c - lo - hi, hi], axis=1)
    return StarBatchResult(q, tris, np.nonzero(routed)[0].astype(np.int64), rescues)


def _collinear_path(points: Sequence[Point], index_of: dict[Point, int]) -> Triangulation:
    """Degenerate triangulation for collinear input: a sorted path."""
    tri = Triangulation(points=list(points))
    ordered = sorted(index_of, key=lambda p: (p[0], p[1]))
    for a, b in zip(ordered, ordered[1:]):
        i, j = index_of[a], index_of[b]
        tri.edges.add((min(i, j), max(i, j)))
    return tri


def delaunay(points: Sequence[Point]) -> Triangulation:
    """Delaunay triangulation of ``points``.

    Correct for degenerate inputs (collinear runs, cocircular
    quadruples) thanks to the adaptively exact predicates; cocircular
    ties follow the global tie rule
    (:func:`~repro.geometry.predicates.incircle_perturbed`), so the
    output depends on the coordinates, not on the order of ``points``
    (up to the indices, which name the input positions).
    """
    # Callers on the hot path (the per-node local triangulations) pass
    # Point instances already; only re-wrap foreign coordinate pairs.
    pts = [p if type(p) is Point else Point(float(p[0]), float(p[1])) for p in points]
    index_of: dict[Point, int] = {}
    for i, p in enumerate(pts):
        index_of.setdefault(p, i)
    distinct = list(index_of.keys())

    if len(distinct) < 3:
        return _collinear_path(pts, index_of)

    if all(
        orientation(distinct[0], distinct[1], p) == Orientation.COLLINEAR
        for p in distinct[2:]
    ):
        return _collinear_path(pts, index_of)

    # Super-triangle enclosing every input point.  The margin must
    # exceed the circumradius of any true Delaunay triangle, or that
    # triangle's circumcircle swallows a super vertex and the triangle
    # is wrongly dropped; 1e9 x span tolerates hull slivers down to
    # ~1e-9 relative flatness, and the adaptively exact predicates
    # stay correct at any magnitude (their rescue is exact).
    min_x = min(p[0] for p in distinct)
    max_x = max(p[0] for p in distinct)
    min_y = min(p[1] for p in distinct)
    max_y = max(p[1] for p in distinct)
    span = max(max_x - min_x, max_y - min_y, 1.0)
    cx = (min_x + max_x) / 2.0
    cy = (min_y + max_y) / 2.0
    margin = 1e9 * span
    super_pts = [
        Point(cx - margin, cy - margin / 2.0),
        Point(cx + margin, cy - margin / 2.0),
        Point(cx, cy + margin),
    ]

    verts: list[Point] = distinct + super_pts
    s0 = len(distinct)

    # The working set holds one record per triangle: the index triple
    # plus its cached orientation sign and circumcenter bands (see
    # _triangle_record), so the cavity scan is one dict-free distance
    # test per triangle in the common case.
    records = [_triangle_record((s0, s0 + 1, s0 + 2), verts)]

    for vi in range(len(distinct)):
        vp = verts[vi]
        px, py = vp
        bad: list[tuple[int, int, int]] = []
        good: list[tuple] = []
        bad_append = bad.append
        good_append = good.append
        for rec in records:
            near = rec[4]
            if near >= 0.0:
                dx = px - rec[2]
                dy = py - rec[3]
                d_sq = dx * dx + dy * dy
                if d_sq > rec[5]:
                    good_append(rec)
                    continue
                if d_sq < near:
                    bad_append(rec[0])
                    continue
            elif rec[5] > 0.0:  # degenerate triangle: no interior
                good_append(rec)
                continue
            tri = rec[0]
            if _in_circumcircle(verts[tri[0]], verts[tri[1]], verts[tri[2]], vp, rec[1]):
                bad_append(tri)
            else:
                good_append(rec)
        if not bad:  # pragma: no cover - exact predicates locate every point
            raise RuntimeError("Bowyer-Watson cavity is empty; input corrupt")

        # Boundary of the cavity: edges that belong to exactly one bad
        # triangle.  Triangles are stored as sorted triples, so each
        # edge pair below is already ordered — no min/max per key.
        edge_count: dict[tuple[int, int], int] = {}
        for i, j, k in bad:
            for key in ((i, j), (j, k), (i, k)):
                edge_count[key] = edge_count.get(key, 0) + 1
        boundary = [e for e, count in edge_count.items() if count == 1]

        records = good
        for a, b in boundary:
            # a < b (boundary keys are ordered) and vi is new, so the
            # sorted triple follows from a three-way placement of vi.
            if vi < a:
                new_tri = (vi, a, b)
            elif vi < b:
                new_tri = (a, vi, b)
            else:
                new_tri = (a, b, vi)
            rec = _triangle_record(new_tri, verts)
            if rec[1] == 0:
                continue  # vp collinear with the edge: no triangle
            records.append(rec)

    result = Triangulation(points=pts)
    seen: set[tuple[int, int, int]] = set()
    for i, j, k in (rec[0] for rec in records):
        if i >= s0 or j >= s0 or k >= s0:
            continue  # touches the super-triangle
        # Map back to original input indices.  index_of values increase
        # in first-occurrence order, which is exactly the order of
        # ``distinct``, so the sorted triple (i, j, k) maps to a triple
        # that is already sorted.
        tri_ids = (index_of[verts[i]], index_of[verts[j]], index_of[verts[k]])
        if tri_ids in seen:
            continue
        seen.add(tri_ids)
        result.triangles.append(tri_ids)
        for a, b in ((tri_ids[0], tri_ids[1]), (tri_ids[1], tri_ids[2]), (tri_ids[0], tri_ids[2])):
            result.edges.add((a, b))
    return result
