"""From-scratch Delaunay triangulation (Bowyer–Watson, adaptively exact).

The localized Delaunay construction (paper Algorithm 2) has every node
compute the Delaunay triangulation of its 1-hop neighborhood, so the
triangulator is called once per node on a few dozen points.  The
incremental Bowyer–Watson scheme here is O(m^2) per call, which is far
below the cost of anything else in the pipeline at those sizes, and is
cross-validated against :mod:`scipy.spatial` in the test suite.  The
SoA construction core needs only each node's own star and takes it
directly (:func:`delaunay_stars_by_inversion`); the queries that kernel
routes run the lockstep batch (:func:`delaunay_stars_batch`), and the
ones the lockstep cannot mirror this scalar :func:`delaunay`.

Robustness: the cavity in-circle test is **adaptively exact** — the
fast float determinant decides whenever its magnitude exceeds a
conservative rounding-error bound, and borderline cases are recomputed
exactly (:class:`fractions.Fraction` for orientation, Python integers
for the in-circle sign; both exact for any float input).  That is
what keeps degenerate inputs correct: collinear runs of points, exact
cocircular quadruples (grid deployments are full of both), and points
landing exactly on existing edges.  Exactly-cocircular point sets are
re-triangulated with an arbitrary but deterministic diagonal.

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
    """Whether ``d`` is inside (or exactly on) the circumcircle of ``abc``.

    Boundary-inclusive on purpose: a point exactly on an existing edge
    or cocircular with a triangle must open every adjacent triangle so
    the Bowyer–Watson cavity stays correct.  The float determinant
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
        return True  # exactly cocircular: boundary-inclusive
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


# -- batched lockstep Bowyer–Watson (SoA construction core) -------------------
#
# The localized Delaunay candidate generation runs one small Bowyer–
# Watson per node.  The batch below runs *all* of them in lockstep: a
# flat pool of triangle records tagged by owning query, one vectorized
# cavity scan per insertion step t (every query inserts its t-th local
# point simultaneously), vectorized boundary-edge extraction, and
# vectorized creation of the replacement records.
#
# Bit-identity with :func:`delaunay` holds by construction:
#
# * insertion order is the caller's member order (ascending global id,
#   exactly the order ``_node_candidates`` passes to ``delaunay``);
# * every per-record quantity (_triangle_record's orientation sign,
#   circumcenter, near/far bands) is computed with the same float
#   expressions elementwise — numpy float64 arithmetic is IEEE-
#   identical to the scalar code — and ambiguous rows go to the same
#   exact predicates;
# * the cavity classification, boundary counting and replacement rule
#   are pure combinatorics on identical predicate outcomes.
#
# Queries the lockstep cannot mirror exactly are *routed to the scalar
# path* instead of approximated: point sets with duplicate coordinates
# (the scalar code deduplicates and remaps indices) and the
# never-expected empty-cavity anomaly.  All-collinear queries produce
# no triangles on either path and are simply skipped.


@dataclass
class StarBatchResult:
    """Output of :func:`delaunay_stars_batch` and :func:`delaunay_stars_by_inversion`.

    ``owner[i]`` is the query index of row ``i`` of ``tris``; triangle
    vertices are ascending *local* indices into the query's member
    list.  ``fallback`` lists query indices the kernel did not decide:
    the caller runs the inversion kernel's through
    :func:`delaunay_stars_batch` and the lockstep's through the scalar
    :func:`delaunay` path.
    """

    owner: object
    tris: object
    fallback: object


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


def _records_batch(np, ax, ay, bx, by, cx, cy):
    """Elementwise :func:`_triangle_record` over coordinate arrays.

    Returns ``(orient, ccx, ccy, near, far)`` with exactly the scalar
    encoding: degenerate rows ``(near, far) = (-1, inf)``, slivers
    ``(-1, -1)``, well-conditioned rows carry the banded circumcenter.
    Ambiguous orientation rows use the exact Fraction predicate.
    """
    from repro.geometry.predicates import _exact_orient_row

    rbx, rby = bx - ax, by - ay
    rcx, rcy = cx - ax, cy - ay
    det = rbx * rcy - rby * rcx
    abs_det = np.abs(det)
    lb = np.maximum(np.abs(rbx), np.abs(rby))
    lc = np.maximum(np.abs(rcx), np.abs(rcy))
    scale = np.maximum(np.maximum(lb, lc), 1e-300)
    orient = np.where(det > 0.0, 1, -1).astype(np.int8)
    for row in np.nonzero(~(abs_det > 1e-12 * scale * scale))[0]:
        orient[row] = _exact_orient_row(
            ax[row], ay[row], bx[row], by[row], cx[row], cy[row]
        )
    degen = orient == 0
    ok = ~degen & (abs_det > _PREFILTER_COND * lb * lc)
    d_safe = np.where(ok, 2.0 * det, 1.0)
    b2 = rbx * rbx + rby * rby
    c2 = rcx * rcx + rcy * rcy
    ux = (rcy * b2 - rby * c2) / d_safe
    uy = (rbx * c2 - rcx * b2) / d_safe
    r_sq = ux * ux + uy * uy
    abs_det_safe = np.where(ok, abs_det, 1.0)
    center_err = _EPS * lb * lc * (lb + lc) / (2.0 * abs_det_safe)
    band = _PREFILTER_SAFETY * (
        2.0 * np.sqrt(r_sq) * center_err + 4.0 * _EPS * r_sq
    )
    ccx = np.where(ok, ax + ux, 0.0)
    ccy = np.where(ok, ay + uy, 0.0)
    near = np.where(ok, r_sq - band, -1.0)
    far = np.where(ok, r_sq + band, np.where(degen, np.inf, -1.0))
    return orient, ccx, ccy, near, far


def delaunay_stars_batch(xs, ys, members_indptr, members_flat):
    """Lockstep Bowyer–Watson over many small point sets at once.

    ``xs``/``ys`` are global coordinate arrays; query ``q``'s member
    list (ascending global ids, at least 3 entries) is
    ``members_flat[members_indptr[q]:members_indptr[q+1]]``.
    Returns a :class:`StarBatchResult` (triangles as local index
    triples, bit-identical to per-query :func:`delaunay` calls), or
    ``None`` when numpy is masked out.
    """
    from repro.core.compat import get_numpy
    from repro.geometry.predicates import incircle_signs_batch

    np = get_numpy()
    if np is None:
        return None
    base = members_indptr[:-1]
    m = (members_indptr[1:] - base).astype(np.int64)
    B = int(m.shape[0])
    empty = np.zeros(0, dtype=np.int64)
    if B == 0:
        return StarBatchResult(empty, empty.reshape(0, 3), empty)
    total = int(members_indptr[-1])
    flat_x = xs[members_flat]
    flat_y = ys[members_flat]
    owner_flat = np.repeat(np.arange(B), m)

    # Queries containing duplicate coordinates go to the scalar path:
    # the scalar triangulator deduplicates and remaps indices, which
    # the lockstep deliberately does not mirror.
    order = np.lexsort((flat_y, flat_x, owner_flat))
    so, sx, sy = owner_flat[order], flat_x[order], flat_y[order]
    same = (so[1:] == so[:-1]) & (sx[1:] == sx[:-1]) & (sy[1:] == sy[:-1])
    dup_q = np.zeros(B, dtype=bool)
    dup_q[so[1:][same]] = True

    pos_in_seg = np.arange(total) - base[owner_flat]
    eligible = _noncollinear_queries(np, flat_x, flat_y, base, owner_flat, pos_in_seg)
    eligible &= ~dup_q
    failed = np.zeros(B, dtype=bool)
    q_ids = np.nonzero(eligible)[0]
    if q_ids.shape[0] == 0:
        return StarBatchResult(
            empty, empty.reshape(0, 3), np.nonzero(dup_q)[0].astype(np.int64)
        )

    # Super-triangle vertices, per query (same formulas as delaunay()).
    min_x = np.minimum.reduceat(flat_x, base)
    max_x = np.maximum.reduceat(flat_x, base)
    min_y = np.minimum.reduceat(flat_y, base)
    max_y = np.maximum.reduceat(flat_y, base)
    span = np.maximum(np.maximum(max_x - min_x, max_y - min_y), 1.0)
    scx = (min_x + max_x) / 2.0
    scy = (min_y + max_y) / 2.0
    margin = 1e9 * span
    sup_x = np.stack([scx - margin, scx + margin, scx])
    sup_y = np.stack([scy - margin / 2.0, scy - margin / 2.0, scy + margin])

    # Extended per-query vertex table: local slots ``0..m-1`` hold the
    # member coordinates, ``m..m+2`` the super-triangle vertices (the
    # same layout the scalar triangulator uses, so triple sorting
    # behaves identically).  Contiguous layout makes every local-index
    # lookup a single fancy index instead of a branchy where().
    ext_base = base + 3 * np.arange(B)
    ext_x = np.empty(total + 3 * B)
    ext_y = np.empty(total + 3 * B)
    pos_ext = ext_base[owner_flat] + pos_in_seg
    ext_x[pos_ext] = flat_x
    ext_y[pos_ext] = flat_y
    sup_pos = ext_base + m
    for s in range(3):
        ext_x[sup_pos + s] = sup_x[s]
        ext_y[sup_pos + s] = sup_y[s]

    def vert(q, i):
        p = ext_base[q] + i
        return ext_x[p], ext_y[p]

    # The flat record pool, seeded with each query's super triangle.
    rec_node = q_ids.astype(np.int64)
    tri_a, tri_b, tri_c = m[q_ids], m[q_ids] + 1, m[q_ids] + 2
    orient, ccx, ccy, near, far = _records_batch(
        np, sup_x[0, q_ids], sup_y[0, q_ids],
        sup_x[1, q_ids], sup_y[1, q_ids],
        sup_x[2, q_ids], sup_y[2, q_ids],
    )

    alive_q = eligible.copy()
    max_m = int(m[q_ids].max())
    S = max_m + 3  # collision-free stride for (query, a, b) edge keys
    out_owner: list = []
    out_abc: list = []

    def extract(fin_mask):
        rows = fin_mask[rec_node]
        if not rows.any():
            return
        real = rows & (tri_c < m[rec_node])
        if real.any():
            out_owner.append(rec_node[real].copy())
            out_abc.append(
                np.stack([tri_a[real], tri_b[real], tri_c[real]], axis=1)
            )

    for t in range(max_m):
        fin = alive_q & (m == t)
        if fin.any():
            extract(fin)
            alive_q &= ~fin
        act = alive_q & (m > t)
        keep = act[rec_node]
        if not keep.all():
            rec_node = rec_node[keep]
            tri_a, tri_b, tri_c = tri_a[keep], tri_b[keep], tri_c[keep]
            orient = orient[keep]
            ccx, ccy, near, far = ccx[keep], ccy[keep], near[keep], far[keep]
        if rec_node.shape[0] == 0:
            break

        # Active records satisfy m > t, so slot t is a real member.
        p_t = ext_base[rec_node] + t
        px_r, py_r = ext_x[p_t], ext_y[p_t]

        # Cavity classification: the same three-regime scan as the
        # scalar loop (prefilter bands / degenerate / full test).
        dx = px_r - ccx
        dy = py_r - ccy
        d_sq = dx * dx + dy * dy
        has_band = near >= 0.0
        sure_out = has_band & (d_sq > far)
        sure_in = has_band & (d_sq < near)
        degen = ~has_band & (far > 0.0)
        needs = ~(sure_out | sure_in | degen)
        bad = sure_in
        if needs.any():
            rows = np.nonzero(needs)[0]
            q_r = rec_node[rows]
            avx, avy = vert(q_r, tri_a[rows])
            bvx, bvy = vert(q_r, tri_b[rows])
            cvx, cvy = vert(q_r, tri_c[rows])
            signs, _ = incircle_signs_batch(
                avx, avy, bvx, bvy, cvx, cvy, px_r[rows], py_r[rows]
            )
            inside = (signs == 0) | (signs == orient[rows])
            bad = bad.copy()
            bad[rows[inside]] = True

        # Empty cavity: exact predicates place every point inside the
        # super triangle, so this only fires on corrupt input — route
        # the query to the scalar path, which raises coherently.
        bad_counts = np.bincount(rec_node[bad], minlength=B)
        act_ids = np.nonzero(act)[0]
        broken = act_ids[bad_counts[act_ids] == 0]
        if broken.shape[0]:
            failed[broken] = True
            alive_q[broken] = False
            bad = bad & alive_q[rec_node]

        # Cavity boundary: edges appearing in exactly one bad triangle.
        bn = rec_node[bad]
        ba, bb, bc = tri_a[bad], tri_b[bad], tri_c[bad]
        e1 = np.concatenate([ba, bb, ba])
        e2 = np.concatenate([bb, bc, bc])
        en = np.concatenate([bn, bn, bn])
        keys = (en * S + e1) * S + e2
        keys.sort()
        single = np.ones(keys.shape[0], dtype=bool)
        single[1:] &= keys[1:] != keys[:-1]
        single[:-1] &= keys[:-1] != keys[1:]
        bkeys = keys[single]
        bq = bkeys // (S * S)
        rem = bkeys - bq * (S * S)
        ea = rem // S
        eb = rem - ea * S

        # Replacement triangles (vi=t, a, b) as sorted triples.
        t_arr = np.full(bq.shape, t, dtype=np.int64)
        first = np.where(t_arr < ea, t_arr, ea)
        second = np.where(t_arr < ea, ea, np.where(t_arr < eb, t_arr, eb))
        third = np.where(t_arr < eb, eb, t_arr)
        nax, nay = vert(bq, first)
        nbx, nby = vert(bq, second)
        ncx, ncy = vert(bq, third)
        n_orient, n_ccx, n_ccy, n_near, n_far = _records_batch(
            np, nax, nay, nbx, nby, ncx, ncy
        )
        ok_new = n_orient != 0  # vp collinear with the edge: no triangle

        keep = ~bad
        rec_node = np.concatenate([rec_node[keep], bq[ok_new]])
        tri_a = np.concatenate([tri_a[keep], first[ok_new]])
        tri_b = np.concatenate([tri_b[keep], second[ok_new]])
        tri_c = np.concatenate([tri_c[keep], third[ok_new]])
        orient = np.concatenate([orient[keep], n_orient[ok_new]])
        ccx = np.concatenate([ccx[keep], n_ccx[ok_new]])
        ccy = np.concatenate([ccy[keep], n_ccy[ok_new]])
        near = np.concatenate([near[keep], n_near[ok_new]])
        far = np.concatenate([far[keep], n_far[ok_new]])

    extract(alive_q)

    fallback = np.nonzero(dup_q | failed)[0].astype(np.int64)
    if out_owner:
        owner = np.concatenate(out_owner)
        tris = np.concatenate(out_abc, axis=0)
    else:
        owner, tris = empty, empty.reshape(0, 3)
    return StarBatchResult(owner, tris, fallback)


# -- Delaunay stars by inversion ----------------------------------------------
#
# Algorithm 2 uses only the proposer's own star in Del(N_1(u)), so the
# kernel below finds that star directly, in O(deg) predicates per
# round instead of triangulating the whole neighbourhood.  It decides
# only general-position queries; the rest go to the lockstep above.

#: Angular gaps within this many radians of 0 or pi (duplicate
#: coordinates, collinear rays through the center) are ties.
_STAR_ANGLE_TIE = 1e-9

#: Star triangles whose circumradius exceeds this multiple of the
#: query's extent (at least 1) are routed.  The lockstep's super
#: triangle sits 1e9 such extents out, so it keeps every Delaunay
#: triangle below this bound.
_STAR_MAX_RADIUS = 1e6


def _cyclic_neighbours(np, group):
    """Cyclic predecessor and successor of each row within its group.

    ``group`` is sorted, so each group is one contiguous block.
    """
    n = group.shape[0]
    idx = np.arange(n)
    start = np.ones(n, dtype=bool)
    start[1:] = group[1:] != group[:-1]
    end = np.ones(n, dtype=bool)
    end[:-1] = start[1:]
    first = np.maximum.accumulate(np.where(start, idx, 0))
    last = np.minimum.accumulate(np.where(end, idx, n)[::-1])[::-1]
    return np.where(start, last, idx - 1), np.where(end, first, idx + 1)


def delaunay_stars_by_inversion(xs, ys, members_indptr, members_flat, center):
    """The triangles of ``Del(members)`` at one member, for many queries.

    Query ``q``'s point set is laid out as in
    :func:`delaunay_stars_batch`; ``center[q]`` is the local index of
    its star's center ``u``.  Returns a :class:`StarBatchResult`
    holding, for every query the kernel decides, exactly the triangles
    incident on ``u`` that :func:`delaunay` returns.  ``fallback``
    lists the queries it routes to :func:`delaunay_stars_batch`.
    Returns ``None`` when numpy is masked out.

    Why it is exact: inversion about ``u``, ``x' = (x - u) / |x - u|^2``,
    maps every circle through ``u`` to a line and the open disk it
    bounds to the open half-plane away from the origin.  So ``uvw`` is
    a Delaunay triangle, its circumcircle empty of the other members,
    exactly when every other ``x'`` lies on the origin's side of line
    ``v'w'``: ``v'w'`` is an edge of the hull of the inverted
    neighbours (with the origin) that faces away from the origin.
    Inversion keeps directions, so the kernel takes that hull by a
    Graham-style scan over the neighbours sorted by angle:

    1. If one angular gap exceeds pi, ``u`` is on the hull, the star is
       an open chain and its two end points (``u``'s hull neighbours)
       stay fixed; otherwise the star is a cycle.
    2. Every vertex ``w`` whose inverted image is reflex between its
       current angular neighbours ``p`` and ``n`` (for a wedge under
       pi: ``w`` strictly outside ``circle(u, p, n)``) is removed, all
       at once.  Removing them together is sound: a reflex vertex of
       the star-shaped polygon the survivors form (with the origin) is
       never a vertex of its hull, so no hull vertex is ever removed.
    3. Step 2 repeats on the vertices whose neighbours changed until
       nothing is removed.  The survivors then form a strictly convex
       polygon, the hull itself, and consecutive survivors ``v, w``
       are the star triangles ``uvw``.

    The in-circle signs come from the exact-rescued
    :func:`~repro.geometry.predicates.incircle_signs_batch`.  A query
    leaves the kernel when the answer could differ from
    :func:`delaunay`'s: an angular tie (a gap within
    ``_STAR_ANGLE_TIE`` of 0 or pi, which covers duplicates and
    collinear rays), an in-circle sign of exactly zero (cocircular
    members, where the Delaunay triangulation is not unique), or a star
    triangle with circumradius above ``_STAR_MAX_RADIUS`` extents,
    near enough to the super triangle that the lockstep could drop it.
    Queries :func:`delaunay` short-cuts as all-collinear yield nothing,
    as there.
    """
    from repro.core.compat import get_numpy
    from repro.geometry.predicates import incircle_signs_batch

    np = get_numpy()
    if np is None:
        return None
    base = members_indptr[:-1]
    m = (members_indptr[1:] - base).astype(np.int64)
    B = int(m.shape[0])
    empty = np.zeros(0, dtype=np.int64)
    if B == 0:
        return StarBatchResult(empty, empty.reshape(0, 3), empty)
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
    ang = np.arctan2(dy, dx)
    order = np.argsort(ang)
    order = order[np.argsort(own[order], kind="stable")]
    own, loc, vx, vy, dx, dy, ang = (
        a[order] for a in (own, loc, vx, vy, dx, dy, ang)
    )
    _, nxt = _cyclic_neighbours(np, own)
    gap = ang[nxt] - ang
    gap[nxt <= np.arange(own.shape[0])] += 2.0 * math.pi
    tie = (
        (gap < _STAR_ANGLE_TIE)
        | (np.abs(gap - math.pi) < _STAR_ANGLE_TIE)
        | ((dx == 0.0) & (dy == 0.0))
    )
    routed = np.bincount(own[tie], minlength=B) > 0
    decided &= ~routed
    extent = np.maximum(
        np.maximum.reduceat(np.maximum(np.abs(dx), np.abs(dy)), base - np.arange(B)),
        1.0,
    )

    keep = decided[own]
    own, loc, vx, vy, gap = own[keep], loc[keep], vx[keep], vy[keep], gap[keep]
    prv, _ = _cyclic_neighbours(np, own)
    # An open chain's big gap runs from its last vertex to its first.
    chain_last = gap > math.pi
    fixed = chain_last | chain_last[prv]

    alive = np.ones(own.shape[0], dtype=bool)
    dirty = ~fixed
    while dirty.any():
        active = np.zeros(B, dtype=bool)
        active[own[dirty]] = True
        ids = np.nonzero(alive & active[own])[0]
        prv, nxt = _cyclic_neighbours(np, own[ids])
        j = np.nonzero(dirty[ids])[0]
        w, p, n = ids[j], ids[prv[j]], ids[nxt[j]]
        q = own[w]
        # in_circle(u, p, w, n) > 0 exactly when w' turns clockwise
        # between p' and n' (the lifting identity): w is reflex.
        signs, _ = incircle_signs_batch(
            ux[q], uy[q], vx[p], vy[p], vx[w], vy[w], vx[n], vy[n]
        )
        tied = np.zeros(B, dtype=bool)
        tied[q[signs == 0]] = True
        routed |= tied
        reflex = j[(signs > 0) & ~tied[q]]
        alive[ids[reflex]] = False
        alive &= ~tied[own]
        dirty[:] = False
        dirty[ids[prv[reflex]]] = True
        dirty[ids[nxt[reflex]]] = True
        dirty &= alive & ~fixed

    ids = np.nonzero(alive)[0]
    _, nxt = _cyclic_neighbours(np, own[ids])
    rows = ~chain_last[ids]
    v, w = ids[rows], ids[nxt[rows]]
    q = own[v]
    bx, by = vx[v] - ux[q], vy[v] - uy[q]
    cx, cy = vx[w] - ux[q], vy[w] - uy[q]
    sides = np.hypot(bx, by) * np.hypot(cx, cy) * np.hypot(vx[w] - vx[v], vy[w] - vy[v])
    far = ~(sides < 2.0 * np.abs(bx * cy - by * cx) * _STAR_MAX_RADIUS * extent[q])
    routed[q[far]] = True
    star = ~routed[q]
    q = q[star]
    tris = np.sort(np.stack([center[q], loc[v[star]], loc[w[star]]], axis=1), axis=1)
    return StarBatchResult(q, tris, np.nonzero(routed)[0].astype(np.int64))


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
    ties are broken deterministically.
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
