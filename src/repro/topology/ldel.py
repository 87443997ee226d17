"""The k-localized Delaunay graph LDel^k and its planarization PLDel.

Definitions (Li, Calinescu, Wan — INFOCOM 2002; reviewed in the
reproduced paper, Section II):

* a triangle ``uvw`` with all sides at most the transmission radius is
  a **k-localized Delaunay triangle** when its circumcircle contains
  no vertex of ``N_k(u) ∪ N_k(v) ∪ N_k(w)``;
* ``LDel^k(V)`` consists of all Gabriel edges plus the edges of all
  k-localized Delaunay triangles.

``LDel^k`` is planar for ``k >= 2``; ``LDel^1`` has thickness 2 and is
made planar by Algorithm 3: whenever two 1-localized Delaunay
triangles intersect, any triangle whose circumcircle contains a vertex
of the other is dropped (Li et al. prove at least one of the two
always is).  The surviving graph, called **PLDel** here, is the planar
structure the paper applies on top of the ICDS backbone.

This module is the one place that decides LDel^1.  Three functions
hold the decisions: :func:`proposed_triangles` (Algorithm 2's
proposals, with the corners that proposed each triangle),
:func:`corner_verdicts` (each corner's accept/reject) and
:func:`contest_triangles` (Algorithm 3's contest; :func:`contest_losers`
is its removal mask alone), and :func:`degenerate_crossing_losers`
holds the tie-break for exactly cocircular crossings.  The centralized
construction below, the fast protocol
(:mod:`repro.protocols.ldel_fast`) and the incremental maintainer
(:mod:`repro.incremental.pldel`) compose them.  The message-passing
protocol (paper Algorithms 2 and 3 verbatim) lives in
:mod:`repro.protocols.ldel_protocol` and is tested to produce the same
graph.

Hot-path notes: each of the three functions picks its kernel itself.
With numpy available it runs the vectorized SoA kernel, and triangles
and decisions pass between the functions as (m, 3) arrays; otherwise
the scalar loop, which is the bit-identical reference the kernel is
tested against, on tuples.  :class:`LDelResult` builds its tuple forms
only when read.  The scalar paths, and the k >= 2 verdicts, take an
optional :class:`~repro.topology.construction_cache.ConstructionCache`
so neighborhoods and circumcircles are computed once per construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Iterable, Optional, Sequence

from repro import obs
from repro.core.compat import get_numpy
from repro.geometry.circle import circumcircle
from repro.geometry.predicates import segments_cross
from repro.geometry.primitives import Point, angle_at, dist, dist_sq
from repro.geometry.triangulation import delaunay
from repro.graphs.graph import Graph
from repro.graphs.planarity import _EDGE_BBOX_SLACK, crossing_pairs
from repro.graphs.udg import UnitDiskGraph
from repro.topology.construction_cache import ConstructionCache
from repro.topology.gabriel import gabriel_graph

Triangle = tuple[int, int, int]
Edge = tuple[int, int]

#: Minimum angle at the proposing vertex (Algorithm 2's 60° rule).
_MIN_ANGLE = math.pi / 3.0 - 1e-12

#: Cosine-space form of the 60° rule for the vectorized path: the
#: angle test ``angle >= _MIN_ANGLE`` is equivalent to
#: ``cos(angle) <= cos(_MIN_ANGLE)`` (acos is decreasing).  Rows whose
#: vector-computed cosine lands within the band of the threshold are
#: re-decided by the scalar :func:`angle_at`, so hypot/division
#: rounding (~1e-15 relative, far inside the band) can never flip a
#: decision against the reference path.
_COS_MIN_ANGLE = math.cos(_MIN_ANGLE)
_ANGLE_COS_BAND = 1e-9


class LDelForms:
    """The triangles and Gabriel edges of an LDel result, in either form.

    The fast paths hand triangles along as (m, 3) int64 rows and the
    Gabriel edges as the Gabriel graph (the next stage reads its
    ``edge_keys()``).  :attr:`triangles` and :attr:`gabriel_edges`
    build the tuple and frozenset forms on first read, so a build that
    never reads them never makes a tuple per triangle or edge.
    """

    _rows: Any
    _gabriel: Any
    _tuples: Optional[tuple[Triangle, ...]]
    _pairs: Optional[frozenset[Edge]]

    def _set_forms(self, triangles: Any, gabriel_edges: Any) -> None:
        if not hasattr(triangles, "tolist"):
            triangles = tuple(triangles)
        self._rows = triangles
        self._gabriel = gabriel_edges
        self._tuples = triangles if isinstance(triangles, tuple) else None
        self._pairs = gabriel_edges if isinstance(gabriel_edges, frozenset) else None

    def __setstate__(self, state: dict) -> None:
        # Pickles from before the array form hold the tuple fields.
        if "triangles" in state:
            state = dict(state)
            self._set_forms(state.pop("triangles"), state.pop("gabriel_edges"))
        self.__dict__.update(state)

    @property
    def triangles(self) -> tuple[Triangle, ...]:
        """The triangles as ascending id tuples, in ascending order."""
        if self._tuples is None:
            self._tuples = tuple(map(tuple, self._rows.tolist()))
        return self._tuples

    @property
    def gabriel_edges(self) -> frozenset[Edge]:
        """The Gabriel edges as ``(u, v)`` pairs, ``u < v``."""
        if self._pairs is None:
            gabriel = self._gabriel
            self._pairs = (
                gabriel.edge_set() if isinstance(gabriel, Graph) else frozenset(gabriel)
            )
        return self._pairs

    @property
    def triangle_rows(self) -> Any:
        """The triangles in the form the LDel^1 functions take.

        An (m, 3) int64 array with numpy; the tuples otherwise.
        """
        np = get_numpy()
        if np is None:
            return self.triangles
        return np.asarray(self._rows, dtype=np.int64).reshape(-1, 3)


class LDelResult(LDelForms):
    """LDel^k construction output: the graph plus its building blocks.

    ``triangles`` may be given as tuples or as (m, 3) int64 rows, and
    ``gabriel_edges`` as a frozenset of pairs or as the Gabriel graph;
    ``circles`` optionally carries the triangles' circumcircles
    (:func:`corner_verdicts`' ``with_circles`` form) for the contest.
    """

    circles: Any = None

    def __init__(
        self,
        graph: Graph,
        triangles: Any,
        gabriel_edges: Any,
        k: int,
        *,
        circles: Any = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.circles = circles
        self._set_forms(triangles, gabriel_edges)


def _node_candidates(
    pos: Sequence[Point], r_sq: float, u: int, local: Sequence[int]
) -> list[Triangle]:
    """Triangles node ``u`` proposes from ``Del(N_1(u))``.

    Shared by the scalar paths and the SoA kernel's fallback queries,
    so all of them produce the same triangles by construction.
    ``local`` is the sorted 1-hop neighborhood of ``u`` (including
    ``u``).
    """
    if len(local) < 3:
        return []
    tri = delaunay([pos[i] for i in local])
    iu = bisect_left(local, u)
    out: list[Triangle] = []
    for a, b, c in tri.triangles_of(iu):
        ga, gb, gc = local[a], local[b], local[c]
        if (
            dist_sq(pos[ga], pos[gb]) > r_sq
            or dist_sq(pos[gb], pos[gc]) > r_sq
            or dist_sq(pos[ga], pos[gc]) > r_sq
        ):
            continue
        others = [x for x in (ga, gb, gc) if x != u]
        try:
            angle = angle_at(pos[u], pos[others[0]], pos[others[1]])
        except ValueError:
            continue
        if angle >= _MIN_ANGLE:
            out.append(tuple(sorted((ga, gb, gc))))  # type: ignore[arg-type]
    return out


# -- vectorized construction core (SoA kernels) -------------------------------
#
# With numpy available, the proposals and the k=1 corner verdicts run
# over the deployment's shared :class:`~repro.core.soa.SoaSnapshot`,
# and the Algorithm 3 contest over the coordinates it is handed.
# Every kernel replicates its
# scalar counterpart's float expressions elementwise and routes rows
# the replication cannot decide (ambiguous predicates, duplicate
# coordinates, degenerate angle arms) to the scalar code, so the
# output is bit-identical — the equivalence suite and the benchmark
# tripwires both assert edge-set equality against the reference path.

def _soa_candidate_block(np, snap, pos, r_sq, qs):
    """Candidate rows for one block of query nodes (see :func:`_soa_proposals`).

    Returns parallel lists of (K, 3) ascending id triples and the (K,)
    query node that proposed each row.
    """
    from repro.core.soa import gather_csr_rows
    from repro.geometry.triangulation import (
        delaunay_stars_batch,
        delaunay_stars_by_inversion,
    )

    xs, ys = snap.xs, snap.ys
    owner_n, vals = gather_csr_rows(np, snap.indptr, snap.indices, qs)
    nq = qs.shape[0]
    # Member list of q = sorted({q} | N(q)).  CSR rows are ascending,
    # so q's local index is the count of its neighbours below it: q and
    # its row are scattered into place without a sort.
    below = vals < qs[owner_n]
    iu = np.bincount(owner_n[below], minlength=nq)
    m = (snap.indptr[qs + 1] - snap.indptr[qs]) + 1
    indptr_q = np.zeros(nq + 1, dtype=np.int64)
    np.cumsum(m, out=indptr_q[1:])
    base = indptr_q[:-1]
    members_flat = np.empty(int(indptr_q[-1]), dtype=np.int64)
    members_flat[np.arange(owner_n.shape[0]) + owner_n + ~below] = vals
    members_flat[base + iu] = qs

    # Each query's star by inversion; ties go to the lockstep
    # Bowyer–Watson, and its own fallbacks to _node_candidates.
    stars = delaunay_stars_by_inversion(xs, ys, indptr_q, members_flat, iu)
    routed = stars.fallback
    obs.count("construction.star_routed_queries", int(routed.shape[0]))
    obs.count("construction.star_exact_rescues", stars.rescues)
    owners, star_tris = [stars.owner], [stars.tris]
    fallback = routed
    if routed.shape[0]:
        sub_indptr = np.zeros(routed.shape[0] + 1, dtype=np.int64)
        np.cumsum(m[routed], out=sub_indptr[1:])
        _, sub_flat = gather_csr_rows(np, indptr_q, members_flat, routed)
        res = delaunay_stars_batch(xs, ys, sub_indptr, sub_flat)
        own = routed[res.owner]
        inc = (res.tris == iu[own][:, None]).any(axis=1)
        owners.append(own[inc])
        star_tris.append(res.tris[inc])
        fallback = routed[res.fallback]
    own = np.concatenate(owners)
    parts, proposers = [], []
    if own.shape[0]:
        tris = np.concatenate(star_tris, axis=0)
        la, lb, lc = tris[:, 0], tris[:, 1], tris[:, 2]
        ga = members_flat[base[own] + la]
        gb = members_flat[base[own] + lb]
        gc = members_flat[base[own] + lc]
        d_ab = (xs[ga] - xs[gb]) ** 2 + (ys[ga] - ys[gb]) ** 2
        d_bc = (xs[gb] - xs[gc]) ** 2 + (ys[gb] - ys[gc]) ** 2
        d_ac = (xs[ga] - xs[gc]) ** 2 + (ys[ga] - ys[gc]) ** 2
        keep = ~((d_ab > r_sq) | (d_bc > r_sq) | (d_ac > r_sq))

        # Angle at the proposing vertex, in cosine space with a band;
        # ambiguous rows re-decided by the scalar angle_at.
        u_arr = qs[own]
        o1 = np.where(ga == u_arr, gb, ga)
        o2 = np.where(gc == u_arr, gb, gc)
        axv = xs[o1] - xs[u_arr]
        ayv = ys[o1] - ys[u_arr]
        bxv = xs[o2] - xs[u_arr]
        byv = ys[o2] - ys[u_arr]
        na = np.hypot(axv, ayv)
        nb = np.hypot(bxv, byv)
        ok_arm = (na != 0.0) & (nb != 0.0)
        cosv = np.clip(
            (axv * bxv + ayv * byv) / np.where(ok_arm, na * nb, 1.0), -1.0, 1.0
        )
        accept = ok_arm & (cosv <= _COS_MIN_ANGLE - _ANGLE_COS_BAND)
        clear_reject = ok_arm & (cosv >= _COS_MIN_ANGLE + _ANGLE_COS_BAND)
        for row in np.nonzero(keep & ~(accept | clear_reject))[0]:
            try:
                angle = angle_at(
                    pos[int(u_arr[row])], pos[int(o1[row])], pos[int(o2[row])]
                )
            except ValueError:
                continue
            accept[row] = angle >= _MIN_ANGLE
        keep = np.nonzero(keep & accept)[0]  # gathers beat a boolean index
        parts.append(np.stack([ga[keep], gb[keep], gc[keep]], axis=1))
        proposers.append(u_arr[keep])

    for q in fallback.tolist():
        u = int(qs[q])
        local = members_flat[base[q]: indptr_q[q + 1]].tolist()
        tris = _node_candidates(pos, r_sq, u, local)
        if tris:
            parts.append(np.array(tris, dtype=np.int64))
            proposers.append(np.full(len(tris), u, dtype=np.int64))
    return parts, proposers


def _soa_proposals(udg: UnitDiskGraph, node_ids: Optional[Sequence[int]]):
    """Vectorized :func:`proposed_triangles` as arrays, or ``None``.

    Returns ``(tris, proposed)``: sorted unique (K, 3) triples and a
    (K, 3) bool mask of the corners that proposed each.  Fallback
    queries run :func:`_node_candidates` itself, so the triple set and
    the proposer sets equal the scalar loop's.
    """
    from repro.core.soa import row_blocks, snapshot_for

    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    if snap is None:
        return None
    r_sq = udg.radius * udg.radius
    if node_ids is None:
        queries = np.arange(snap.n, dtype=np.int64)
    else:
        queries = np.asarray(sorted(node_ids), dtype=np.int64)
    deg = snap.indptr[queries + 1] - snap.indptr[queries]
    obs.count("construction.local_delaunay_calls", int((deg >= 2).sum()))
    eligible = queries[deg >= 2]  # m = deg + 1 >= 3

    # Blocks by member count bound the star kernels' flat arrays and
    # the routed lockstep's record pool.  A query gathers its m = deg + 1
    # members and up to m - 1 star triangles of three corners each, so
    # it counts 4 m entries.
    parts = [np.zeros((0, 3), dtype=np.int64)]
    proposers = [np.zeros(0, dtype=np.int64)]
    for block in row_blocks(np, 4 * (deg[deg >= 2] + 1)):
        block_tris, block_props = _soa_candidate_block(
            np, snap, udg.positions, r_sq, eligible[block]
        )
        parts += block_tris
        proposers += block_props
    tris = np.concatenate(parts, axis=0)
    props = np.concatenate(proposers)
    corner = np.argmax(tris == props[:, None], axis=1)
    order = np.lexsort((corner, tris[:, 2], tris[:, 1], tris[:, 0]))
    tris, corner = tris[order], corner[order]
    first = np.ones(tris.shape[0], dtype=bool)
    first[1:] = (tris[1:] != tris[:-1]).any(axis=1)
    proposed = np.zeros((int(first.sum()), 3), dtype=bool)
    proposed[np.cumsum(first) - 1, corner] = True
    return tris[first], proposed


def _circle_rows(np, valid, ccx, ccy, rad):
    """Circumcircles as (m, 3) float64 rows ``(cx, cy, r)``.

    ``r`` is NaN where the triangle has no circle, so every containment
    test against that row is False, as the scalar ``None`` circle's.
    """
    return np.stack([ccx, ccy, np.where(valid, rad, np.nan)], axis=1)


def _soa_corner_verdicts(udg: UnitDiskGraph, triangles):
    """Vectorized k=1 :func:`corner_verdicts`, or ``None``.

    Returns the (K, 3) verdicts and the triangles' circumcircle rows
    (:func:`_circle_rows`).  Per block of triangles (:func:`row_blocks`
    over their corners' summed degrees), one ragged gather of every
    corner's CSR row, keyed by ``triangle * 3 + corner``: rows naming
    the other two corners count toward the radio rule, every other row
    is a witness tested against the batched circumcircle (exact-rescued
    rows identical to the scalar
    :func:`~repro.geometry.circle.circumcircle`) with the same
    tolerance-shrunk open-disk containment as ``Circle.contains``.
    """
    from repro.core.soa import gather_csr_rows, row_blocks, snapshot_for
    from repro.geometry.circle import circumcircles_batch

    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    if snap is None:
        return None
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    count = tris.shape[0]
    if count == 0:
        return np.zeros((0, 3), dtype=bool), np.zeros((0, 3))
    xs, ys = snap.xs, snap.ys
    u, v, w = tris[:, 0], tris[:, 1], tris[:, 2]
    valid, ccx, ccy, rad = circumcircles_batch(
        xs[u], ys[u], xs[v], ys[v], xs[w], ys[w]
    )
    accepts = np.zeros(3 * count, dtype=bool)
    for block in row_blocks(np, snap.degrees()[tris].sum(axis=1)):
        rows = tris[block]
        slot_parts, wit_parts = [], []
        for corner in range(3):
            owner, vals = gather_csr_rows(np, snap.indptr, snap.indices, rows[:, corner])
            slot_parts.append(owner * 3 + corner)
            wit_parts.append(vals)
        slot = np.concatenate(slot_parts)
        wit = np.concatenate(wit_parts)
        owner = slot // 3 + block.start
        is_corner = (wit == u[owner]) | (wit == v[owner]) | (wit == w[owner])
        slots = 3 * rows.shape[0]
        hears_both = np.bincount(slot[is_corner], minlength=slots) == 2
        slot, owner, wit = slot[~is_corner], owner[~is_corner], wit[~is_corner]
        r = rad[owner] - 1e-9
        dxw = ccx[owner] - xs[wit]
        dyw = ccy[owner] - ys[wit]
        inside = valid[owner] & (r > 0.0) & (dxw * dxw + dyw * dyw < r * r)
        blocked = np.bincount(slot[inside], minlength=slots) > 0
        accepts[3 * block.start: 3 * block.stop] = hears_both & ~blocked
    verdicts = valid[:, None] & accepts.reshape(count, 3)
    return verdicts, _circle_rows(np, valid, ccx, ccy, rad)


def _soa_contest(np, xs, ys, tris, circles, gabriel_keys):
    """Vectorized Algorithm 3 contest over one crossing enumeration.

    Two triangles intersect exactly when a side of one properly crosses
    a side of the other (sides sharing an id never cross), which is
    what :func:`_triangles_intersect` decides.  So the segments are
    enumerated once: ``S``, the sorted unique keys ``u * n + v`` of
    ``gabriel_keys`` plus every triangle side, goes through
    :func:`~repro.graphs.planarity.crossing_index_pairs`.  A sorted
    (segment, triangle) incidence maps each crossing segment pair to
    the triangle pairs holding those sides (kept where the triangles'
    boxes meet, as in the reference), and the six
    circumcircle-holds-vertex tests run on those pairs alone.
    ``circles`` are the triangles' :func:`_circle_rows`, or ``None`` to
    compute them here.

    Returns ``(removed, pi, pj, keys, slot, ci, cj)``: the removal mask,
    the intersecting triangle pairs (``pi < pj``, sorted), ``S``, each
    side's index into ``S`` as a (3, m) array (the side order of
    :func:`~repro.core.soa.triangle_edge_keys`), and the crossing
    segment pairs (``ci < cj``, sorted) for the degenerate-crossing
    sweep.
    """
    from repro.core.soa import cross_join, sorted_unique, triangle_edge_keys
    from repro.geometry.circle import circumcircles_batch, contains_batch
    from repro.graphs.planarity import crossing_index_pairs

    n, m = xs.shape[0], tris.shape[0]
    keys = sorted_unique(np, np.concatenate([gabriel_keys, triangle_edge_keys(np, n, tris)]))
    ci, cj, offered, tested = crossing_index_pairs(np, xs, ys, keys // n, keys % n)
    obs.count("construction.triangle_pairs_candidate", offered)
    obs.count("construction.triangle_pairs_tested", tested)
    # Side keys again rather than kept: nothing rides along the
    # enumeration, whose grid sets the planarization's peak.
    slot = np.searchsorted(keys, triangle_edge_keys(np, n, tris))

    # Side k of the (3, m) layout belongs to triangle k % m (no side
    # when m = 0, so the modulus never sees a row).
    holder = np.argsort(slot, kind="stable") % m
    start = np.zeros(keys.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot, minlength=keys.shape[0]), out=start[1:])
    count = start[1:] - start[:-1]
    a, b = cross_join(np, start[ci], count[ci], start[cj], count[cj])
    ta, tb = holder[a], holder[b]
    pair = sorted_unique(np, np.minimum(ta, tb) * m + np.maximum(ta, tb))
    pi, pj = pair // m, pair % m
    # A touch within the on_segment slack can join sides of triangles
    # whose boxes miss by less than it; like the reference, pair only
    # triangles whose boxes meet.
    tx, ty = xs[tris], ys[tris]
    bx0, by0, bx1, by1 = tx.min(axis=1), ty.min(axis=1), tx.max(axis=1), ty.max(axis=1)
    meet = ~(
        (bx1[pi] < bx0[pj]) | (bx1[pj] < bx0[pi]) | (by1[pi] < by0[pj]) | (by1[pj] < by0[pi])
    )
    pi, pj = pi[meet], pj[meet]
    obs.count("construction.triangle_pairs_intersecting", int(pi.shape[0]))

    if circles is None:
        circles = _circle_rows(np, *circumcircles_batch(
            tx[:, 0], ty[:, 0], tx[:, 1], ty[:, 1], tx[:, 2], ty[:, 2]
        ))
    ccx, ccy, rad = circles[:, 0], circles[:, 1], circles[:, 2]
    # held_i: triangle pi's circumcircle holds a vertex of triangle pj.
    held_i = np.zeros(pi.shape[0], dtype=bool)
    held_j = np.zeros(pi.shape[0], dtype=bool)
    for corner in range(3):
        held_i |= contains_batch(ccx[pi], ccy[pi], rad[pi], tx[pj, corner], ty[pj, corner])
        held_j |= contains_batch(ccx[pj], ccy[pj], rad[pj], tx[pi, corner], ty[pi, corner])
    removed = np.zeros(m, dtype=bool)
    removed[pi[held_i]] = True
    removed[pj[held_j]] = True
    return removed, pi, pj, keys, slot.reshape(3, m), ci, cj


def _soa_contest_of(positions: Sequence[Point], triangles, circles):
    """:func:`_soa_contest` over bare triangles, or ``None`` without numpy."""
    from repro.core.soa import coordinates

    np = get_numpy()
    if np is None:
        return None
    xs, ys = coordinates(np, positions)
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    return _soa_contest(np, xs, ys, tris, circles, np.zeros(0, dtype=np.int64))


# -- the three LDel^1 decisions -----------------------------------------------
#
# Every LDel path — the centralized reference below, the fast protocol
# (:mod:`repro.protocols.ldel_fast`) and the incremental maintainer
# (:mod:`repro.incremental.pldel`) — composes these three functions;
# each picks the SoA kernel or the scalar reference itself.  With numpy
# they take and return arrays: triangles as (m, 3) int64 rows
# (ascending ids), per-corner decisions as (m, 3) bool masks.  The
# scalar reference takes and returns the same values as tuples and
# lists.


def proposed_triangles(
    udg: UnitDiskGraph,
    node_ids: Optional[Sequence[int]] = None,
    *,
    cache: Optional[ConstructionCache] = None,
) -> tuple[Any, Any]:
    """Algorithm 2's proposals: candidate triangles and who proposed them.

    A node proposes exactly the incident triangles of ``Del(N_1(u))``
    with all sides at most the radius and an angle of at least 60
    degrees at ``u`` (:func:`_node_candidates`).  Returns the sorted
    distinct triangles and, per triangle, which of its three (sorted)
    corners proposed it.  ``node_ids`` restricts the proposing nodes
    (a maintainer tile passes the nodes near its core); default is every
    node.
    """
    soa = _soa_proposals(udg, node_ids)
    if soa is not None:
        return soa
    cache = ConstructionCache.for_udg(udg, cache)
    r_sq = udg.radius * udg.radius
    pos = udg.positions
    by: dict[Triangle, list[bool]] = {}
    calls = 0
    for u in udg.nodes() if node_ids is None else node_ids:
        local = sorted(cache.k_hop(u, 1))
        calls += len(local) >= 3
        for t in _node_candidates(pos, r_sq, u, local):
            by.setdefault(t, [False, False, False])[t.index(u)] = True
    obs.count("construction.local_delaunay_calls", calls)
    triangles = sorted(by)
    return triangles, [tuple(by[t]) for t in triangles]


def corner_verdicts(
    udg: UnitDiskGraph,
    triangles: Any,
    k: int = 1,
    *,
    cache: Optional[ConstructionCache] = None,
    with_circles: bool = False,
) -> Any:
    """Each corner's verdict on each triangle, as Algorithm 2 responds.

    Corner ``c`` accepts when the other two corners are its radio
    neighbours and the circumcircle is empty of ``N_k(c)``.  The radio
    rule is what keeps a quasi-UDG gray-zone side that the model
    dropped out of LDel; under the disk model every side of a proposed
    triangle is a link, so it never fires there.

    With ``with_circles``, returns ``(verdicts, circles)``: the k=1
    kernel's circumcircles as (m, 3) ``(cx, cy, r)`` rows (``r`` NaN
    for a degenerate triangle), for the contest to reuse;
    ``circles`` is ``None`` where the scalar loop decided.
    """
    soa = _soa_corner_verdicts(udg, triangles) if k == 1 else None
    if soa is not None:
        return soa if with_circles else soa[0]
    np = get_numpy()
    cache = ConstructionCache.for_udg(udg, cache)
    pos = udg.positions
    out = []
    for t in triangle_tuples(triangles):
        circle = cache.circumcircle_of(t)
        row = []
        for c in t:
            hears = all(x == c or udg.has_edge(c, x) for x in t)
            row.append(
                circle is not None
                and hears
                and not any(
                    circle.contains(pos[x]) for x in cache.k_hop(c, k) if x not in t
                )
            )
        out.append(tuple(row))
    verdicts = out if np is None else np.array(out, dtype=bool).reshape(-1, 3)
    return (verdicts, None) if with_circles else verdicts


def contest_triangles(
    positions: Sequence[Point], triangles: Sequence[Triangle], cell: float
) -> tuple[list[bool], list[tuple[int, int]]]:
    """Algorithm 3's contest over ``triangles`` (ids into ``positions``).

    Whenever two triangles intersect, a triangle whose circumcircle
    contains a vertex of the other is removed.  Returns the removal
    mask and the sorted intersecting index pairs ``(i, j)``, ``i < j``.
    With numpy the kernel enumerates crossing sides once
    (:func:`_soa_contest`, which sizes its own grid); the scalar
    reference pairs triangles whose bounding boxes share a cell of a
    grid of side ``cell`` and overlap, then runs the nine-way
    segment-crossing test.  :func:`contest_losers` is the mask alone,
    without the pairs.
    """
    soa = _soa_contest_of(positions, triangles, None)
    if soa is not None:
        removed, pi, pj = soa[:3]
        return removed.tolist(), list(zip(pi.tolist(), pj.tolist()))
    pos = positions
    circles = [circumcircle(pos[u], pos[v], pos[w]) for u, v, w in triangles]
    boxes = []
    for u, v, w in triangles:
        (x1, y1), (x2, y2), (x3, y3) = pos[u], pos[v], pos[w]
        boxes.append(
            (min(x1, x2, x3), min(y1, y2, y3), max(x1, x2, x3), max(y1, y2, y3))
        )
    edge_data = [_triangle_edges(pos, t) for t in triangles]
    removed = [False] * len(triangles)
    candidates = _nearby_triangle_pairs(pos, triangles, cell)
    tested = 0
    pairs: list[tuple[int, int]] = []
    for i, j in sorted(candidates):
        bi, bj = boxes[i], boxes[j]
        if bi[2] < bj[0] or bj[2] < bi[0] or bi[3] < bj[1] or bj[3] < bi[1]:
            continue  # disjoint bounding boxes cannot intersect
        tested += 1
        if not _triangles_intersect(edge_data[i], edge_data[j]):
            continue
        pairs.append((i, j))
        ci, cj = circles[i], circles[j]
        if ci is not None and any(ci.contains(pos[x]) for x in triangles[j]):
            removed[i] = True
        if cj is not None and any(cj.contains(pos[x]) for x in triangles[i]):
            removed[j] = True
    obs.count("construction.triangle_pairs_candidate", len(candidates))
    obs.count("construction.triangle_pairs_tested", tested)
    obs.count("construction.triangle_pairs_intersecting", len(pairs))
    return removed, pairs


def contest_losers(
    positions: Sequence[Point], triangles: Any, cell: float, *, circles: Any = None
) -> Any:
    """The triangles Algorithm 3's contest removes, as a mask.

    Equal to ``contest_triangles(positions, triangles, cell)[0]``, which
    is its scalar reference.  ``circles`` optionally passes the
    triangles' circumcircle rows from :func:`corner_verdicts`.
    """
    soa = _soa_contest_of(positions, triangles, circles)
    if soa is not None:
        return soa[0]
    return contest_triangles(positions, triangles, cell)[0]


def triangle_tuples(rows: Any) -> list[Triangle]:
    """Triangles as a list of id tuples, from rows in either form."""
    return list(map(tuple, rows.tolist() if hasattr(rows, "tolist") else rows))


def _kept(rows: Any, keep: Any, circles: Any = None) -> tuple[Any, Any]:
    """The ``rows`` (and their ``circles``) where ``keep`` holds.

    An array take on the kernels' output, the tuple filter on the
    scalar reference's.
    """
    if isinstance(keep, list):
        return tuple(t for t, kept in zip(rows, keep) if kept), None
    return rows[keep], None if circles is None else circles[keep]


def candidate_triangles(
    udg: UnitDiskGraph, *, cache: Optional[ConstructionCache] = None
) -> set[Triangle]:
    """Triangles proposed by the per-node local Delaunay triangulations.

    Every triangle has a vertex with an angle of at least 60 degrees,
    and a k-localized Delaunay triangle appears in that vertex's local
    triangulation (its circumcircle is empty of the neighborhood), so
    generation is complete.  Applying the same angle discipline as the
    distributed protocol also makes tie-breaking identical on
    exactly-cocircular inputs, where "the" local Delaunay triangulation
    is not unique.
    """
    return set(triangle_tuples(proposed_triangles(udg, cache=cache)[0]))


def is_k_localized_delaunay(
    udg: UnitDiskGraph,
    triangle: Triangle,
    k: int,
    cache: Optional[ConstructionCache] = None,
) -> bool:
    """Whether ``triangle`` satisfies the k-localized Delaunay property."""
    return all(corner_verdicts(udg, [triangle], k, cache=cache)[0])


def local_delaunay_graph(
    udg: UnitDiskGraph,
    k: int = 1,
    *,
    cache: Optional[ConstructionCache] = None,
) -> LDelResult:
    """Construct LDel^k over the unit disk graph.

    A proposed triangle is accepted when all three corners accept it.
    Returns the graph (Gabriel edges plus localized-Delaunay-triangle
    edges), the accepted triangles, and the Gabriel edge set.  Pass a
    shared ``cache`` to reuse neighborhoods/circumcircles across
    stages on the scalar path.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cache = ConstructionCache.for_udg(udg, cache)
    triangles, _ = proposed_triangles(udg, cache=cache)
    verdicts, circles = corner_verdicts(
        udg, triangles, k, cache=cache, with_circles=True
    )
    keep = (
        [all(ok) for ok in verdicts] if isinstance(verdicts, list) else verdicts.all(axis=1)
    )
    accepted, circles = _kept(triangles, keep, circles)
    gabriel = gabriel_graph(udg, cache=cache)
    graph = _gabriel_plus_triangles(udg, gabriel, accepted, f"LDel{k}")
    return LDelResult(
        graph=graph, triangles=accepted, gabriel_edges=gabriel, k=k, circles=circles
    )


def _gabriel_plus_triangles(
    udg: UnitDiskGraph,
    gabriel: "Graph | frozenset[Edge]",
    triangles: Any,
    name: str,
) -> Graph:
    """The Gabriel edges plus every side of ``triangles``, as one graph.

    With numpy, one concatenation of edge keys (array-backed result);
    otherwise the set-backed reference.
    """
    from repro.core.soa import pair_keys, sorted_unique, triangle_edge_keys

    np = get_numpy()
    if np is None:
        graph = Graph(
            udg.positions, gabriel.edges() if isinstance(gabriel, Graph) else gabriel,
            name=name,
        )
        graph.add_edges_bulk(
            pair for u, v, w in triangles for pair in ((u, v), (v, w), (u, w))
        )
        return graph
    n = udg.node_count
    gabriel_keys = (
        gabriel.edge_keys() if isinstance(gabriel, Graph) else pair_keys(np, n, gabriel)
    )
    keys = np.concatenate([gabriel_keys, triangle_edge_keys(np, n, triangles)])
    return Graph.from_keys(udg.positions, sorted_unique(np, keys), name=name)


def _triangle_edges(
    pos: Sequence[Point], tri: Triangle
) -> tuple[tuple[int, int, Point, Point, float, float, float, float], ...]:
    """Edge descriptors for the pairwise-intersection test.

    Each entry is ``(a, b, pa, pb, x0, y0, x1, y1)``: endpoint indices,
    endpoint points, and the slack-inflated edge bounding box.
    """
    u, v, w = tri
    pu, pv, pw = pos[u], pos[v], pos[w]
    out = []
    for a, b, pa, pb in ((u, v, pu, pv), (v, w, pv, pw), (u, w, pu, pw)):
        ax, ay = pa
        bx, by = pb
        out.append(
            (
                a,
                b,
                pa,
                pb,
                (ax if ax < bx else bx) - _EDGE_BBOX_SLACK,
                (ay if ay < by else by) - _EDGE_BBOX_SLACK,
                (ax if ax > bx else bx) + _EDGE_BBOX_SLACK,
                (ay if ay > by else by) + _EDGE_BBOX_SLACK,
            )
        )
    return tuple(out)


def _triangles_intersect(
    edges1: Sequence[tuple[int, int, Point, Point, float, float, float, float]],
    edges2: Sequence[tuple[int, int, Point, Point, float, float, float, float]],
) -> bool:
    """Whether two triangles overlap improperly (some edges cross).

    Takes precomputed :func:`_triangle_edges` descriptors; edge pairs
    sharing a vertex index or with disjoint (slack-inflated) bounding
    boxes are rejected before the exact segment test runs.
    """
    for a, b, pa, pb, ax0, ay0, ax1, ay1 in edges1:
        for c, d, pc, pd, bx0, by0, bx1, by1 in edges2:
            if a == c or a == d or b == c or b == d:
                continue
            if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
                continue
            if segments_cross(pa, pb, pc, pd):
                return True
    return False


def _nearby_triangle_pairs(
    pos: Sequence[Point], triangles: Sequence[Triangle], cell: float
) -> set[tuple[int, int]]:
    """Index pairs of triangles whose bounding boxes share a grid cell."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, (u, v, w) in enumerate(triangles):
        xs = (pos[u][0], pos[v][0], pos[w][0])
        ys = (pos[u][1], pos[v][1], pos[w][1])
        for cx in range(math.floor(min(xs) / cell), math.floor(max(xs) / cell) + 1):
            for cy in range(math.floor(min(ys) / cell), math.floor(max(ys) / cell) + 1):
                buckets.setdefault((cx, cy), []).append(idx)
    pairs: set[tuple[int, int]] = set()
    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                pairs.add((min(a, b), max(a, b)))
    return pairs


def degenerate_crossing_losers(
    pairs: Iterable[tuple[Edge, Edge]], length: Callable[[int, int], float]
) -> set[Edge]:
    """The edges the degenerate-crossing tie-break removes.

    ``pairs`` are crossing edge pairs, each ordered ``(e1, e2)`` with
    ``e1 <= e2``.  They are taken in sorted order; a pair whose two
    edges both still stand loses the edge with the lexicographically
    larger ``(length, ids)``.  The result is a function of the pair
    set alone.
    """
    dead: set[Edge] = set()
    for e1, e2 in sorted(pairs):
        if e1 in dead or e2 in dead:
            continue  # already resolved via an earlier pair
        dead.add(max((e1, e2), key=lambda e: (length(*e), e)))
    return dead


def resolve_degenerate_crossings(graph: Graph) -> Graph:
    """Break exactly-cocircular ties so the output is always planar.

    The paper assumes no four nodes are cocircular; when real input
    violates that (e.g. nodes on a perfect grid), two crossing
    diagonals of a cocircular quad can both pass the open-disk Gabriel
    test.  This sweep removes one edge of every surviving crossing
    deterministically (:func:`degenerate_crossing_losers`), leaving
    the graph unchanged on general-position input.

    One scan suffices: removing an edge never *creates* a crossing, so
    every crossing pair among the surviving edges was already in the
    initial list — and any pair whose two edges both survive to the
    end was processed with both edges present, which would have removed
    one of them.

    Pairs are processed in sorted order so the outcome is a function of
    the edge *set* alone, not of set-iteration order.  When crossings
    chain (edge B crosses both A and C), which edges survive depends on
    processing order; sorting pins it down, which is what lets the
    incremental maintainer stitch tiles into a graph bit-identical to
    the serial pipeline's.  :func:`planarize_ldel1`'s kernel applies the
    same tie-break to the crossing pairs its contest already
    enumerated; this graph-level form serves the message-passing LDel
    protocols and the scalar reference.
    """
    pairs = [
        (e1, e2) if e1 <= e2 else (e2, e1) for e1, e2 in crossing_pairs(graph)
    ]
    for loser in sorted(degenerate_crossing_losers(pairs, graph.edge_length)):
        graph.remove_edge(*loser)
    return graph


def planarize_ldel1(
    udg: UnitDiskGraph,
    ldel1: LDelResult,
    *,
    cache: Optional[ConstructionCache] = None,
) -> LDelResult:
    """Algorithm 3 (centralized): drop crossing triangles, keep PLDel.

    For every pair of intersecting 1-localized Delaunay triangles, a
    triangle whose circumcircle contains a vertex of the other is
    removed; Li et al. prove this leaves a planar graph.  Gabriel edges
    are always retained, and :func:`degenerate_crossing_losers` breaks
    the exactly-cocircular crossings that survive.  With numpy one
    crossing enumeration over the Gabriel edges plus every triangle
    side (:func:`_soa_contest`, reusing ``ldel1.circles`` when the
    kernel left them) feeds both: the sweep takes the crossing pairs
    whose two edges both survive, since removal never creates a
    crossing.  The scalar reference runs :func:`contest_triangles` and
    then :func:`resolve_degenerate_crossings` on the assembled graph.
    ``cache`` is accepted so callers can pass one cache through every
    stage; the contest needs no memo.
    """
    from repro.core.soa import pair_keys, snapshot_for

    if ldel1.k != 1:
        raise ValueError("planarization applies to LDel^1")
    rows = ldel1.triangle_rows
    gabriel = ldel1._gabriel
    np = get_numpy()
    if np is None:
        removed = contest_triangles(udg.positions, rows, udg.radius)[0]
        survivors, _ = _kept(rows, [not gone for gone in removed])
        graph = _gabriel_plus_triangles(udg, gabriel, survivors, "PLDel")
        resolve_degenerate_crossings(graph)
        return LDelResult(graph=graph, triangles=survivors, gabriel_edges=gabriel, k=1)

    n = udg.node_count
    gabriel_keys = (
        gabriel.edge_keys() if isinstance(gabriel, Graph) else pair_keys(np, n, gabriel)
    )
    snap = snapshot_for(udg)
    removed, _, _, keys, slot, ci, cj = _soa_contest(
        np, snap.xs, snap.ys, rows, ldel1.circles, gabriel_keys
    )
    alive = np.zeros(keys.shape[0], dtype=bool)
    alive[np.searchsorted(keys, gabriel_keys)] = True
    alive[slot[:, ~removed]] = True
    live = alive[ci] & alive[cj]
    if live.any():
        pos = udg.positions
        ends = (keys[ci[live]].tolist(), keys[cj[live]].tolist())
        pairs = [((a // n, a % n), (b // n, b % n)) for a, b in zip(*ends)]
        losers = degenerate_crossing_losers(pairs, lambda u, v: dist(pos[u], pos[v]))
        alive[np.searchsorted(keys, pair_keys(np, n, losers))] = False
    graph = Graph.from_keys(udg.positions, keys[alive], name="PLDel")
    return LDelResult(graph=graph, triangles=rows[~removed], gabriel_edges=gabriel, k=1)


def planar_local_delaunay_graph(
    udg: UnitDiskGraph,
    *,
    cache: Optional[ConstructionCache] = None,
) -> LDelResult:
    """Convenience: LDel^1 followed by Algorithm 3 planarization.

    One :class:`ConstructionCache` is shared across both stages; the
    contest itself uses no memo, so the cache serves LDel^1 only.
    """
    cache = ConstructionCache.for_udg(udg, cache)
    ldel1 = local_delaunay_graph(udg, k=1, cache=cache)
    return planarize_ldel1(udg, ldel1, cache=cache)
