"""Batched vectorized routing over shared CSR snapshots.

The scalar routers in :mod:`repro.routing` walk :class:`Graph` objects
one hop at a time — the semantic reference, but three orders of
magnitude too slow for the millions of (source, target) queries the
serving tier answers.  This module advances *all* active queries in
lockstep: per-query state lives in flat arrays, and every hop is one
round of vectorized kernels over the :class:`~repro.core.soa.SoaSnapshot`
adjacency (greedy and compass steps, right-hand-rule face recovery
over a precomputed per-directed-edge angle table, exact-predicate
segment crossings for face changes).  The three steps read the
snapshot's degree-class tables (:class:`~repro.core.soa.DegreeClasses`):
the queries standing on nodes of one class gather their padded
neighbour rows as one dense block and pick the winner with
``argmin(axis=1)``.

Tie-break contract (pinned; the scalar reference and the batch kernels
implement it exactly, and the bench tripwire compares them path for
path):

* **greedy** — among neighbors strictly closer to the target (squared
  Euclidean distance), take the minimum; ties break to the lowest node
  id (the scalar scan iterates ids ascending with a strict ``<``).
* **compass** — a neighbor that *is* the target wins immediately;
  otherwise minimize the angular deviation at the current node between
  the target direction and the neighbor direction, compared as the
  negated cosine ``-(dot / sqrt(na2 * nb2))`` (sqrt and division are
  correctly rounded, so scalar and batch compute the identical key;
  ``acos`` implementations round apart and flip mathematical ties);
  zero-length arms (coincident points) are skipped; ties break to the
  lowest id.
* **right-hand rule** (face recovery) — minimize the counterclockwise
  sweep ``(theta - reference) mod 2*pi`` in ``(0, 2*pi]`` (sweeps
  ``<= 1e-12`` snap to a full turn), excluding the arrival edge and
  coincident neighbors; ties break to the lowest id; if nothing
  remains, bounce back along the arrival edge.  Every ``theta`` —
  the per-edge table and the face-entry reference — is computed with
  ``math.atan2`` exactly as the scalar walker does (``np.arctan2``
  rounds some inputs a ulp apart), and GPSR's resume test compares
  squared distances built from the same op sequence on both sides
  (never a rounded root squared back, which could resume on a tie).

Parity contract: paths, hop counts, and terminal reasons are
hop-for-hop identical to the scalar reference.  Engine path lengths
accumulate per hop in the same order the scalar ``RouteResult.length``
folds them, but each hop is ``np.hypot`` where the scalar fold uses
``math.hypot`` — CPython's implementation and libm's may round a given
hop differently by one ulp, so lengths agree to ~1e-15 relative, not
bit for bit.  *Stitched* backbone lengths (:class:`BackboneRouter`)
additionally regroup the float summation at the entry/core/exit
seams.

Budget-boundary asymmetry (inherited from the scalar code, replicated
deliberately): greedy and compass check delivery *before* the hop
budget — a packet arriving on its last allowed hop is delivered — while
face recovery checks the budget first, so the same arrival reports
``hop-limit``.

Without numpy every entry point falls back to looping the scalar
routers, so results are identical across environments.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.compat import HAVE_SCIPY, get_numpy
from repro.core.soa import DegreeClasses, SoaSnapshot, snapshot_for, sorted_member
from repro.graphs.graph import Graph
from repro.routing.compass import compass_route
from repro.routing.gpsr import gpsr_route
from repro.routing.greedy import RouteResult, greedy_route

__all__ = [
    "METHODS",
    "REASON_STRINGS",
    "BatchRouteResult",
    "RouteEngine",
    "BackboneRouter",
    "component_labels_for",
    "replay_failures",
]

#: Terminal reason codes shared by every kernel (indices into
#: :data:`REASON_STRINGS`, matching the scalar reason strings).
DELIVERED, STUCK, LOOP, HOP_LIMIT = 0, 1, 2, 3
REASON_STRINGS = ("delivered", "stuck", "loop", "hop-limit")
_REASON_CODES = {s: i for i, s in enumerate(REASON_STRINGS)}

#: Batch methods answered by :meth:`RouteEngine.route_pairs`.
METHODS = ("greedy", "compass", "gpsr")

#: Queries advanced per kernel invocation (bounds peak memory).
DEFAULT_CHUNK = 1 << 18

#: Budget for the compass departure bitset per chunk (bytes); the
#: chunk shrinks so ``chunk * ceil(n / 8)`` stays under this.
_COMPASS_BITSET_BYTES = 48 << 20

#: Straggler bailout: when at most ``max(_BAIL_ACTIVE, k / 256)``
#: queries are still active after ``_BAIL_ROUNDS`` frontier rounds,
#: the kernel stops and the stragglers re-route through the scalar
#: reference (identical paths, by the parity contract).  A handful of
#: pathological walks — GPSR burning its whole budget on a non-planar
#: graph — would otherwise pin thousands of near-empty vectorized
#: rounds on fixed per-round overhead.
_BAIL_ACTIVE = 32
_BAIL_ROUNDS = 192

#: Table slots one step gathers at a time.  A dense UDG round over 10k
#: queries gathers ~280k padded slots; a dozen temporaries of that size
#: can fall outside the allocator's reused heap (whether they do
#: depends on the largest blocks freed earlier in the process) and then
#: cost fresh zeroed pages every round.  Slices of this many slots stay
#: in the reused heap and in cache, whatever ran before.
_STEP_ENTRIES = 1 << 15

_TWO_PI = 2.0 * math.pi


def _atan2_exact(np: Any, ys: Any, xs: Any) -> Any:
    """Elementwise ``math.atan2`` over arrays.

    ``np.arctan2`` (numpy's SIMD routine) and ``math.atan2`` (libm) can
    round the same input a ulp apart, which flips right-hand-rule
    winners on mathematically tied sweeps — e.g. two neighbors in the
    exact same direction at different ranges.  The parity contract pins
    angle tables to the scalar walker's ``math.atan2``; the loop runs
    once per snapshot (and on the small face-entry frontier), not per
    hop.
    """
    out = np.empty(ys.shape[0], dtype=np.float64)
    atan2 = math.atan2
    for i in range(out.shape[0]):
        out[i] = atan2(ys[i], xs[i])
    return out


# -- shared array helpers -----------------------------------------------------


def _class_spans(
    np: Any, dc: DegreeClasses, cur: Any
) -> Tuple[Any, Any, List[Tuple[int, int, int]]]:
    """The queries standing at ``cur``, sorted by degree class.

    Returns ``(order, rows, spans)``: ``order`` sorts the queries by
    the class of their node, ``rows`` is each sorted query's row in its
    class's tables, and every ``(c, lo, hi)`` in ``spans`` covers
    ``order[lo:hi]``, queries of class ``c`` filling at most
    :data:`_STEP_ENTRIES` table slots.  Queries at isolated nodes sort
    first and are in no span.  A step permutes its per-query inputs by
    ``order`` once, so every span reads them as plain slices.
    """
    cls = dc.node_class[cur]
    order = np.argsort(cls, kind="stable")
    bounds = np.cumsum(np.bincount(cls + 1, minlength=len(dc.entries) + 1)).tolist()
    spans = []
    for c in range(len(dc.entries)):
        step = max(1, _STEP_ENTRIES >> c)
        for lo in range(bounds[c], bounds[c + 1], step):
            spans.append((c, lo, min(lo + step, bounds[c + 1])))
    return order, dc.node_row[cur[order]], spans


def _first_min(np: Any, key: Any, table: Any, rows: Any) -> Tuple[Any, Any]:
    """Per row of ``key``: the entry id at its first minimum, and the minimum.

    ``key`` holds one value per slot of ``table[rows]``.  Over ascending
    slots the first minimum is the lowest neighbour id, the scalar
    scans' tie-break.
    """
    slot = key.argmin(axis=1)
    return table[rows, slot], key[np.arange(key.shape[0]), slot]


def _on_segment_batch(
    np: Any, px: Any, py: Any, qx: Any, qy: Any, rx: Any, ry: Any
) -> Any:
    """Elementwise :func:`repro.geometry.predicates.on_segment`."""
    return (
        (np.minimum(px, qx) - 1e-12 <= rx)
        & (rx <= np.maximum(px, qx) + 1e-12)
        & (np.minimum(py, qy) - 1e-12 <= ry)
        & (ry <= np.maximum(py, qy) + 1e-12)
    )


def _crossing_points_batch(
    np: Any, ax: Any, ay: Any, bx: Any, by: Any, cx: Any, cy: Any, dx: Any, dy: Any
) -> Tuple[Any, Any, Any]:
    """Elementwise ``face._segment_crossing_point`` over coordinate arrays.

    Replicates the hardened scalar function branch for branch — the
    collinear/degenerate contacts go through the same snapped
    orientation predicate and return endpoint coordinates exactly, the
    general-position rows take the identical parametric formula — so
    face-change decisions agree with the scalar walker bit for bit.
    Returns ``(has_crossing, px, py)``.
    """
    from repro.geometry.predicates import orientation_codes_batch

    o1 = orientation_codes_batch(ax, ay, bx, by, cx, cy)
    o2 = orientation_codes_batch(ax, ay, bx, by, dx, dy)
    o3 = orientation_codes_batch(cx, cy, dx, dy, ax, ay)
    o4 = orientation_codes_batch(cx, cy, dx, dy, bx, by)
    m = ax.shape[0]
    has = np.zeros(m, dtype=bool)
    px = np.zeros(m, dtype=np.float64)
    py = np.zeros(m, dtype=np.float64)
    # ab collinear with the cd line: no single crossing (scalar returns
    # None before any endpoint branch).
    decided = (o3 == 0) & (o4 == 0)
    # Endpoint-contact branches in scalar priority order; a collinear
    # code whose endpoint misses the segment does NOT decide the row.
    for oc, ex, ey, sx1, sy1, sx2, sy2 in (
        (o3, ax, ay, cx, cy, dx, dy),
        (o4, bx, by, cx, cy, dx, dy),
        (o1, cx, cy, ax, ay, bx, by),
        (o2, dx, dy, ax, ay, bx, by),
    ):
        hit = (
            ~decided
            & (oc == 0)
            & _on_segment_batch(np, sx1, sy1, sx2, sy2, ex, ey)
        )
        if hit.any():
            px[hit] = ex[hit]
            py[hit] = ey[hit]
            has[hit] = True
            decided |= hit
    gen = ~decided & (o1 != o2) & (o3 != o4)
    if gen.any():
        rx = bx - ax
        ry = by - ay
        sx = dx - cx
        sy = dy - cy
        denom = rx * sy - ry * sx
        ok = gen & (np.abs(denom) >= 1e-15)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((cx - ax) * sy - (cy - ay) * sx) / denom
        px[ok] = ax[ok] + t[ok] * rx[ok]
        py[ok] = ay[ok] + t[ok] * ry[ok]
        has[ok] = True
    return has, px, py


def _assemble_paths(
    np: Any, sources: Any, hops: Any, steps_q: List[Any], steps_v: List[Any]
) -> Tuple[Any, Any]:
    """Flat CSR path arrays from per-iteration (query, next-node) records.

    ``steps_q``/``steps_v`` hold, for every kernel iteration, the
    queries that moved and the node each moved to; a stable sort by
    query id preserves the per-query chronological order, after which
    the nodes scatter into one flat array at offsets derived from the
    per-query hop counts.
    """
    k = sources.shape[0]
    counts = hops
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts + 1, out=indptr[1:])
    nodes = np.empty(int(indptr[-1]), dtype=np.int64)
    nodes[indptr[:-1]] = sources
    if steps_q:
        qs = np.concatenate(steps_q)
        vs = np.concatenate(steps_v)
        order = np.argsort(qs, kind="stable")
        total = qs.shape[0]
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        nodes[np.repeat(indptr[:-1] + 1, counts) + within] = vs[order]
    return indptr, nodes


def component_labels_for(graph: Graph) -> Sequence[int]:
    """Connected-component label per node (scipy when present).

    Used for the ``unreachable_pairs`` accounting that mirrors
    ``StretchStats`` semantics: a pair whose endpoints sit in different
    UDG components can never be delivered and is reported separately
    from routing failures.
    """
    np = get_numpy()
    snap = snapshot_for(graph) if np is not None else None
    if np is not None and snap is not None and HAVE_SCIPY:
        try:
            from scipy.sparse import csr_matrix as _csr
            from scipy.sparse.csgraph import connected_components as _cc

            mat = _csr(
                (
                    np.ones(snap.indices.shape[0], dtype=np.int8),
                    snap.indices,
                    snap.indptr,
                ),
                shape=(snap.n, snap.n),
            )
            _, labels = _cc(mat, directed=False)
            return labels.astype(np.int64)
        except Exception:  # pragma: no cover - scipy edge cases
            pass
    n = graph.node_count
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in graph.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    labels = [find(v) for v in range(n)]
    if np is not None:
        return np.asarray(labels, dtype=np.int64)
    return labels


# -- batch result -------------------------------------------------------------


@dataclass
class BatchRouteResult:
    """Outcome arrays for one batch of routing queries.

    ``reasons`` holds per-pair codes indexing :data:`REASON_STRINGS`;
    ``hops``/``lengths`` are per-pair totals.  ``path_indptr`` /
    ``path_nodes`` form a flat CSR over the per-pair paths and are
    ``None`` when the batch ran with ``keep_paths=False`` (the
    million-pair regime).  ``unreachable`` marks pairs whose endpoints
    lie in different components of the routed graph — the same
    semantics as ``StretchStats.unreachable_pairs``.  All fields are
    numpy arrays on the vectorized path and plain lists on the
    no-numpy fallback.
    """

    method: str
    sources: Any
    targets: Any
    reasons: Any
    hops: Any
    lengths: Any
    path_indptr: Any = None
    path_nodes: Any = None
    unreachable: Any = None

    @property
    def pairs(self) -> int:
        return len(self.sources)

    @property
    def delivered_count(self) -> int:
        if hasattr(self.reasons, "dtype"):
            return int((self.reasons == DELIVERED).sum())
        return sum(1 for r in self.reasons if r == DELIVERED)

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction over *all* pairs (unreachable included)."""
        return self.delivered_count / self.pairs if self.pairs else 0.0

    @property
    def unreachable_pairs(self) -> int:
        if self.unreachable is None:
            return 0
        if hasattr(self.unreachable, "dtype"):
            return int(self.unreachable.sum())
        return sum(1 for u in self.unreachable if u)

    @property
    def reachable_delivery_rate(self) -> float:
        """Delivered fraction over the pairs that *can* be delivered."""
        reachable = self.pairs - self.unreachable_pairs
        return self.delivered_count / reachable if reachable else 0.0

    def reason(self, i: int) -> str:
        return REASON_STRINGS[int(self.reasons[i])]

    def reason_counts(self) -> Dict[str, int]:
        out = {name: 0 for name in REASON_STRINGS}
        for r in self.reasons:
            out[REASON_STRINGS[int(r)]] += 1
        return out

    def path(self, i: int) -> Tuple[int, ...]:
        if self.path_indptr is None:
            raise ValueError("batch ran with keep_paths=False; no paths kept")
        lo, hi = int(self.path_indptr[i]), int(self.path_indptr[i + 1])
        return tuple(int(v) for v in self.path_nodes[lo:hi])

    def result(self, i: int) -> RouteResult:
        """The i-th query as a scalar-compatible :class:`RouteResult`."""
        return RouteResult(
            self.path(i), int(self.reasons[i]) == DELIVERED, self.reason(i)
        )

    def results(self) -> Iterator[RouteResult]:
        for i in range(self.pairs):
            yield self.result(i)

    def hops_avg(self) -> float:
        """Mean hop count over delivered pairs (0.0 when none)."""
        delivered = self.delivered_count
        if not delivered:
            return 0.0
        if hasattr(self.reasons, "dtype"):
            total = int(self.hops[self.reasons == DELIVERED].sum())
        else:
            total = sum(
                h for h, r in zip(self.hops, self.reasons) if r == DELIVERED
            )
        return total / delivered

    def length_avg(self) -> float:
        """Mean Euclidean path length over delivered pairs."""
        delivered = self.delivered_count
        if not delivered:
            return 0.0
        if hasattr(self.reasons, "dtype"):
            total = float(self.lengths[self.reasons == DELIVERED].sum())
        else:
            total = sum(
                ln for ln, r in zip(self.lengths, self.reasons) if r == DELIVERED
            )
        return total / delivered

    def summary(self) -> Dict[str, Any]:
        """JSON-ready aggregate view (what the service returns)."""
        out: Dict[str, Any] = {
            "method": self.method,
            "pairs": self.pairs,
            "delivered": self.delivered_count,
            "delivery_rate": self.delivery_rate,
            "hops_avg": self.hops_avg(),
            "length_avg": self.length_avg(),
            "reasons": self.reason_counts(),
        }
        if self.unreachable is not None:
            out["unreachable_pairs"] = self.unreachable_pairs
            out["reachable_delivery_rate"] = self.reachable_delivery_rate
        return out


# -- the engine ---------------------------------------------------------------


class RouteEngine:
    """Frontier-synchronous batch router over one graph's CSR snapshot.

    Construct once per graph and reuse: the snapshot, the
    per-directed-edge angle tables (face recovery), and the component
    labels (unreachable accounting) are all built lazily and cached on
    the engine.  Concurrent calls may share it: lazy state built twice
    is identical, and the right-hand rule's per-edge memo only ever
    gains the one value an edge can have.
    """

    def __init__(self, graph: Graph, *, snapshot: Optional[SoaSnapshot] = None):
        self.graph = graph
        self._snapshot = snapshot
        self._tables: Optional[Tuple[Any, Tuple[Any, Any, Any, Any]]] = None
        self._labels: Optional[Sequence[int]] = None

    # -- cached derived state -------------------------------------------

    def _snap(self) -> Optional[SoaSnapshot]:
        if self._snapshot is not None:
            return self._snapshot
        return snapshot_for(self.graph)

    def _tables_for(self, np: Any, snap: SoaSnapshot) -> Tuple[Any, Any, Any, Any]:
        """Per-directed-edge ``(theta, dir_keys, coincident, rhr_next)`` tables.

        ``theta[e]`` is ``atan2`` of CSR entry ``e``'s direction,
        ``dir_keys[e] = u * n + v`` (globally strictly ascending, so
        ``searchsorted`` resolves any directed edge in O(log E)), and
        ``coincident[e]`` flags zero-length directions (skipped by the
        right-hand rule, mirroring the hardened scalar walker).
        ``theta`` and ``coincident`` carry one more entry for the
        degree-class sentinel (NaN and ``False``: the step masks it).
        ``rhr_next[e]`` memoizes the right-hand rule's hop at ``u`` after
        arriving over ``e = u -> v`` (``-1`` until first needed): it
        depends on nothing else.
        """
        cached = self._tables
        if cached is not None and cached[0] is snap:
            return cached[1]
        dir_keys = snap.directed_keys()
        rep_u = dir_keys // snap.n
        dxs = snap.xs[snap.indices] - snap.xs[rep_u]
        dys = snap.ys[snap.indices] - snap.ys[rep_u]
        theta = np.append(_atan2_exact(np, dys, dxs), np.nan)
        coincident = np.append((dxs == 0.0) & (dys == 0.0), False)
        rhr_next = np.full(dir_keys.shape[0], -1, dtype=np.int64)
        tables = (theta, dir_keys, coincident, rhr_next)
        self._tables = (snap, tables)
        return tables

    def component_labels(self) -> Sequence[int]:
        """Component label per node of the routed graph (cached)."""
        if self._labels is None:
            self._labels = component_labels_for(self.graph)
        return self._labels

    # -- public API ------------------------------------------------------

    def route_pairs(
        self,
        pairs: Any,
        *,
        method: str = "gpsr",
        max_hops: Optional[int] = None,
        keep_paths: bool = True,
        chunk: Optional[int] = None,
        count_unreachable: bool = True,
    ) -> BatchRouteResult:
        """Route every ``(source, target)`` pair; returns batch arrays.

        ``method`` is one of :data:`METHODS`.  ``keep_paths=False``
        skips path materialization (hops/lengths/reasons only) — the
        mode for million-pair batches.  ``chunk`` bounds how many
        queries advance per kernel round (default
        :data:`DEFAULT_CHUNK`; compass shrinks it further so its
        departure bitset stays small).
        """
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; known: {METHODS}")
        np = get_numpy()
        snap = self._snap() if np is not None else None
        if np is None or snap is None:
            return self._route_pairs_scalar(
                pairs,
                method=method,
                max_hops=max_hops,
                keep_paths=keep_paths,
                count_unreachable=count_unreachable,
            )
        q = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        k = q.shape[0]
        n = snap.n
        if k and (int(q.min()) < 0 or int(q.max()) >= n):
            raise ValueError("pair endpoint out of range")
        if max_hops is None:
            max_hops = (8 * n + 64) if method == "gpsr" else (4 * n + 16)
        if chunk is None:
            chunk = DEFAULT_CHUNK
        chunk = max(1, int(chunk))
        if method == "compass":
            row_bytes = max(1, (n + 7) >> 3)
            chunk = min(chunk, max(1024, _COMPASS_BITSET_BYTES // row_bytes))
        src = np.ascontiguousarray(q[:, 0])
        tgt = np.ascontiguousarray(q[:, 1])
        reasons = np.zeros(k, dtype=np.int8)
        hops = np.zeros(k, dtype=np.int64)
        lengths = np.zeros(k, dtype=np.float64)
        chunk_paths: List[Tuple[Any, Any]] = []
        for lo in range(0, k, chunk):
            hi = min(k, lo + chunk)
            cs, ct = src[lo:hi], tgt[lo:hi]
            if method == "greedy":
                r, h, ln, sq, sv, left = _greedy_kernel(
                    np, snap, cs, ct, max_hops, keep_paths
                )
            elif method == "compass":
                r, h, ln, sq, sv, left = _compass_kernel(
                    np, snap, cs, ct, max_hops, keep_paths
                )
            else:
                tables = self._tables_for(np, snap)
                r, h, ln, sq, sv, left = _gpsr_kernel(
                    np, snap, tables, cs, ct, max_hops, keep_paths
                )
            if left.shape[0]:
                _drain_stragglers(
                    np, self.graph, method, cs, ct, max_hops,
                    keep_paths, left, r, h, ln, sq, sv,
                )
            reasons[lo:hi] = r
            hops[lo:hi] = h
            lengths[lo:hi] = ln
            if keep_paths:
                chunk_paths.append(_assemble_paths(np, cs, h, sq, sv))
        path_indptr = path_nodes = None
        if keep_paths:
            path_indptr, path_nodes = _merge_paths(np, k, chunk_paths)
        unreachable = None
        if count_unreachable:
            labels = self.component_labels()
            unreachable = labels[src] != labels[tgt]
        return BatchRouteResult(
            method=method,
            sources=src,
            targets=tgt,
            reasons=reasons,
            hops=hops,
            lengths=lengths,
            path_indptr=path_indptr,
            path_nodes=path_nodes,
            unreachable=unreachable,
        )

    # -- no-numpy fallback ----------------------------------------------

    def _route_pairs_scalar(
        self,
        pairs: Any,
        *,
        method: str,
        max_hops: Optional[int],
        keep_paths: bool,
        count_unreachable: bool,
    ) -> BatchRouteResult:
        """Loop the scalar routers; identical results, list-backed."""
        router = {
            "greedy": greedy_route,
            "compass": compass_route,
            "gpsr": gpsr_route,
        }[method]
        n = self.graph.node_count
        norm = [(int(s), int(t)) for s, t in pairs]
        for s, t in norm:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError("pair endpoint out of range")
        reasons: List[int] = []
        hops: List[int] = []
        lengths: List[float] = []
        indptr: List[int] = [0]
        nodes: List[int] = []
        for s, t in norm:
            res = router(self.graph, s, t, max_hops=max_hops)
            reasons.append(_REASON_CODES[res.reason])
            hops.append(res.hops)
            lengths.append(res.length(self.graph))
            if keep_paths:
                nodes.extend(res.path)
                indptr.append(len(nodes))
        unreachable: Optional[List[bool]] = None
        if count_unreachable:
            labels = self.component_labels()
            unreachable = [labels[s] != labels[t] for s, t in norm]
        return BatchRouteResult(
            method=method,
            sources=[s for s, _ in norm],
            targets=[t for _, t in norm],
            reasons=reasons,
            hops=hops,
            lengths=lengths,
            path_indptr=indptr if keep_paths else None,
            path_nodes=nodes if keep_paths else None,
            unreachable=unreachable,
        )


def _merge_paths(
    np: Any, k: int, chunk_paths: List[Tuple[Any, Any]]
) -> Tuple[Any, Any]:
    """Concatenate per-chunk CSR path arrays into one flat pair."""
    if not chunk_paths:
        return np.zeros(k + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if len(chunk_paths) == 1:
        return chunk_paths[0]
    parts = []
    offset = 0
    for ip, _ in chunk_paths:
        parts.append(ip[:-1] + offset)
        offset += int(ip[-1])
    parts.append(np.asarray([offset], dtype=np.int64))
    indptr = np.concatenate(parts)
    nodes = np.concatenate([nd for _, nd in chunk_paths])
    return indptr, nodes


# -- frontier kernels ---------------------------------------------------------


def _greedy_step(np: Any, snap: SoaSnapshot, cur: Any, tx: Any, ty: Any) -> Any:
    """Greedy next hop per query (-1 = local minimum).

    Exactly the scalar scan: minimum squared distance among neighbors
    strictly closer than the current node, ties to the lowest id.  The
    row minimum qualifies exactly when any neighbor does, and then its
    first slot is the scan's winner, so the step takes the plain
    ``argmin`` and tests it once.  The key is a plain squared distance:
    the sentinel slots (at infinity) never win and need no mask.
    """
    dc = snap.degree_classes()
    order, rows, spans = _class_spans(np, dc, cur)
    q = np.empty(order.shape[0], dtype=np.complex128)
    q.real = tx[order]
    q.imag = ty[order]
    here = cur[order]
    dxc = snap.xs[here] - q.real
    dyc = snap.ys[here] - q.imag
    cur_d = dxc * dxc + dyc * dyc
    pick = np.full(order.shape[0], dc.pad, dtype=np.int64)
    for c, lo, hi in spans:
        # Complex subtraction is two exact float subtractions.
        at = dc.coords[c][rows[lo:hi]]
        at -= q[lo:hi, None]
        d = at.real * at.real
        d += at.imag * at.imag
        won, best = _first_min(np, d, dc.entries[c], rows[lo:hi])
        pick[lo:hi] = np.where(best < cur_d[lo:hi], won, dc.pad)
    nxt = np.empty_like(pick)
    nxt[order] = dc.neighbor[pick]
    return nxt


def _greedy_kernel(
    np: Any,
    snap: SoaSnapshot,
    src: Any,
    tgt: Any,
    max_hops: int,
    record: bool,
) -> Tuple[Any, Any, Any, List[Any], List[Any]]:
    """All queries advance one greedy hop per round until settled."""
    xs, ys = snap.xs, snap.ys
    k = src.shape[0]
    cur = src.copy()
    reasons = np.zeros(k, dtype=np.int8)
    hops = np.zeros(k, dtype=np.int64)
    lengths = np.zeros(k, dtype=np.float64)
    tx, ty = xs[tgt], ys[tgt]
    active = np.arange(k)
    leftover = np.zeros(0, dtype=np.int64)
    rounds = 0
    steps_q: List[Any] = []
    steps_v: List[Any] = []
    while active.shape[0]:
        if rounds >= _BAIL_ROUNDS and active.shape[0] <= max(
            _BAIL_ACTIVE, k >> 8
        ):
            leftover = active
            break
        rounds += 1
        done = cur[active] == tgt[active]
        if done.any():
            reasons[active[done]] = DELIVERED
            active = active[~done]
            if not active.shape[0]:
                break
        over = hops[active] >= max_hops
        if over.any():
            reasons[active[over]] = HOP_LIMIT
            active = active[~over]
            if not active.shape[0]:
                break
        nxt = _greedy_step(np, snap, cur[active], tx[active], ty[active])
        stuck = nxt < 0
        if stuck.any():
            reasons[active[stuck]] = STUCK
            active = active[~stuck]
            nxt = nxt[~stuck]
            if not active.shape[0]:
                break
        mc = cur[active]
        lengths[active] += np.hypot(xs[mc] - xs[nxt], ys[mc] - ys[nxt])
        hops[active] += 1
        cur[active] = nxt
        if record:
            steps_q.append(active.copy())
            steps_v.append(nxt)
    return reasons, hops, lengths, steps_q, steps_v, leftover


def _compass_step(
    np: Any, snap: SoaSnapshot, cur: Any, tgt: Any, tx: Any, ty: Any
) -> Any:
    """Compass next hop per query (-1 = no usable neighbor).

    The scalar scan exactly: a neighbor equal to the target wins
    outright, zero-length arms are skipped, otherwise the minimum
    angular deviation at the current node wins with ties to the lowest
    id.  The key is the scalar's negated cosine
    ``-(dot / sqrt(na2 * nb2))`` — sqrt and division are correctly
    rounded, so the key is bit-identical to the scalar's (``arccos``
    would not be: numpy's and libm's round a ulp apart and flip
    mathematically tied neighbors).  Sentinel slots are masked: their
    infinite coordinates make the key NaN.
    """
    dc = snap.degree_classes()
    order, rows, spans = _class_spans(np, dc, cur)
    here = cur[order]
    hx, hy = snap.xs[here], snap.ys[here]
    axv = tx[order] - hx
    ayv = ty[order] - hy
    na2 = axv * axv + ayv * ayv
    tgt = tgt[order]
    pick = np.full(order.shape[0], dc.pad, dtype=np.int64)
    for c, lo, hi in spans:
        part = slice(lo, hi)
        at = dc.coords[c][rows[part]]
        bxv = at.real - hx[part, None]
        byv = at.imag - hy[part, None]
        nb2 = bxv * bxv + byv * byv
        with np.errstate(invalid="ignore"):  # inf * 0 at sentinel slots
            denom = np.sqrt(na2[part, None] * nb2)
            dot = axv[part, None] * bxv + ayv[part, None] * byv
        ent = dc.entries[c][rows[part]]
        ok = (denom > 0.0) & (ent != dc.pad)
        key = np.full(denom.shape, np.inf, dtype=np.float64)
        np.divide(-dot, denom, out=key, where=ok)
        key[dc.neighbor[ent] == tgt[part, None]] = -2.0
        won, best = _first_min(np, key, dc.entries[c], rows[part])
        pick[part] = np.where(best < np.inf, won, dc.pad)
    nxt = np.empty_like(pick)
    nxt[order] = dc.neighbor[pick]
    return nxt


def _compass_kernel(
    np: Any,
    snap: SoaSnapshot,
    src: Any,
    tgt: Any,
    max_hops: int,
    record: bool,
) -> Tuple[Any, Any, Any, List[Any], List[Any]]:
    """Compass rounds with per-query departure bitsets for loop checks.

    The scalar router detects loops by revisiting a *directed edge*;
    since the compass next hop is a deterministic function of
    (current, target), an edge revisit happens exactly when a query
    departs the same node twice — so one bit per (query, node) is the
    whole loop state.
    """
    xs, ys = snap.xs, snap.ys
    k = src.shape[0]
    n = snap.n
    cur = src.copy()
    reasons = np.zeros(k, dtype=np.int8)
    hops = np.zeros(k, dtype=np.int64)
    lengths = np.zeros(k, dtype=np.float64)
    visited = np.zeros((k, max(1, (n + 7) >> 3)), dtype=np.uint8)
    tx, ty = xs[tgt], ys[tgt]
    active = np.arange(k)
    leftover = np.zeros(0, dtype=np.int64)
    rounds = 0
    steps_q: List[Any] = []
    steps_v: List[Any] = []
    while active.shape[0]:
        if rounds >= _BAIL_ROUNDS and active.shape[0] <= max(
            _BAIL_ACTIVE, k >> 8
        ):
            leftover = active
            break
        rounds += 1
        done = cur[active] == tgt[active]
        if done.any():
            reasons[active[done]] = DELIVERED
            active = active[~done]
            if not active.shape[0]:
                break
        over = hops[active] >= max_hops
        if over.any():
            reasons[active[over]] = HOP_LIMIT
            active = active[~over]
            if not active.shape[0]:
                break
        nxt = _compass_step(
            np, snap, cur[active], tgt[active], tx[active], ty[active]
        )
        stuck = nxt < 0
        if stuck.any():
            reasons[active[stuck]] = STUCK
            active = active[~stuck]
            nxt = nxt[~stuck]
            if not active.shape[0]:
                break
        mc = cur[active]
        bidx = mc >> 3
        bit = (1 << (mc & 7)).astype(np.uint8)
        seen = (visited[active, bidx] & bit) != 0
        if seen.any():
            reasons[active[seen]] = LOOP
            active = active[~seen]
            nxt = nxt[~seen]
            if not active.shape[0]:
                break
            mc = cur[active]
            bidx = mc >> 3
            bit = (1 << (mc & 7)).astype(np.uint8)
        visited[active, bidx] |= bit
        lengths[active] += np.hypot(xs[mc] - xs[nxt], ys[mc] - ys[nxt])
        hops[active] += 1
        cur[active] = nxt
        if record:
            steps_q.append(active.copy())
            steps_v.append(nxt)
    return reasons, hops, lengths, steps_q, steps_v, leftover


def _rhr_step(
    np: Any,
    snap: SoaSnapshot,
    tables: Tuple[Any, Any, Any, Any],
    cur: Any,
    came: Any,
    tx: Any,
    ty: Any,
) -> Any:
    """Right-hand-rule next hop per query (-1 = stuck).

    Reference direction is toward the target on face entry
    (``came < 0``) and toward the arrival node otherwise; the minimum
    counterclockwise sweep in ``(0, 2*pi]`` wins (sweeps <= 1e-12
    snap to a full turn), excluding the arrival edge and coincident
    neighbors, ties to the lowest id; an emptied row bounces back
    along the arrival edge when there is one.  A hop after an arrival
    depends on the arrival edge alone, so it is computed once per edge
    and memoized in ``rhr_next``; face walks retrace edges across
    rounds and batches.
    """
    theta, dir_keys, coincident, rhr_next = tables
    nxt = np.full(cur.shape[0], -1, dtype=np.int64)
    em = np.nonzero(came < 0)[0]
    if em.shape[0]:
        here = cur[em]
        ref = _atan2_exact(np, ty[em] - snap.ys[here], tx[em] - snap.xs[here])
        nxt[em] = _rhr_choice(np, snap, theta, coincident, here, ref, np.full(em.shape[0], -1))
    bm = np.nonzero(came >= 0)[0]
    if bm.shape[0]:
        # The arrival edge cur -> came via the globally ascending keys.
        arrived = np.searchsorted(dir_keys, cur[bm] * snap.n + came[bm])
        hop = rhr_next[arrived]
        new = np.nonzero(hop < 0)[0]
        if new.shape[0]:
            e = arrived[new]
            got = _rhr_choice(np, snap, theta, coincident, cur[bm[new]], theta[e], e)
            # Dead-end bounce: nothing selectable, so walk back.
            got = np.where(got < 0, came[bm[new]], got)
            rhr_next[e] = got
            hop[new] = got
        nxt[bm] = hop
    return nxt


def _rhr_choice(
    np: Any,
    snap: SoaSnapshot,
    theta: Any,
    coincident: Any,
    cur: Any,
    ref: Any,
    skip_ent: Any,
) -> Any:
    """Minimum counterclockwise sweep from ``ref`` at each ``cur`` (-1 = none).

    Skips entry ``skip_ent`` (the arrival edge, or -1), coincident
    neighbors and the sentinel slots, whose NaN angle would otherwise
    win ``argmin``.
    """
    dc = snap.degree_classes()
    order, rows, spans = _class_spans(np, dc, cur)
    ref, skip_ent = ref[order], skip_ent[order]
    pick = np.full(order.shape[0], dc.pad, dtype=np.int64)
    for c, lo, hi in spans:
        part = slice(lo, hi)
        ent = dc.entries[c][rows[part]]
        # (theta - ref) mod 2*pi as the scalar's float ``%`` rounds it:
        # both angles are atan2 values, so the difference lies in
        # [-2*pi, 2*pi], where ``%`` adds 2*pi to a negative difference
        # and returns the rest unchanged.  It maps +-2*pi and -0.0 to 0
        # where this gives 2*pi, 0 and -0.0; all of them snap to a full
        # turn below.
        sweep = theta[ent] - ref[part, None]
        np.add(sweep, _TWO_PI, out=sweep, where=sweep < 0.0)
        sweep[sweep <= 1e-12] = _TWO_PI
        skip = coincident[ent] | (ent == skip_ent[part, None]) | (ent == dc.pad)
        sweep[skip] = np.inf
        won, best = _first_min(np, sweep, dc.entries[c], rows[part])
        pick[part] = np.where(best < np.inf, won, dc.pad)
    nxt = np.empty_like(pick)
    nxt[order] = dc.neighbor[pick]
    return nxt


def _gpsr_kernel(
    np: Any,
    snap: SoaSnapshot,
    tables: Tuple[Any, Any, Any, Any],
    src: Any,
    tgt: Any,
    max_hops: int,
    record: bool,
) -> Tuple[Any, Any, Any, List[Any], List[Any]]:
    """GPSR as a two-mode state machine advanced in lockstep.

    Per query: greedy until a local minimum, then face recovery
    (right-hand rule with face changes at crossings of the
    face-entry -> target segment) until a node strictly closer than
    the stuck point, then greedy again — exactly the scalar
    ``gpsr_route``/``face_route`` pair, including its check ordering
    and budget-boundary asymmetry (see module docstring).  Mode
    transitions consume no hop; the per-leg face state (face entry
    point, arrival edge, first walked edge, switch count, switch cap,
    resume distance) lives in flat arrays.
    """
    xs, ys = snap.xs, snap.ys
    k = src.shape[0]
    cur = src.copy()
    settled = np.zeros(k, dtype=bool)
    reasons = np.zeros(k, dtype=np.int8)
    hops = np.zeros(k, dtype=np.int64)
    lengths = np.zeros(k, dtype=np.float64)
    budget = np.full(k, max_hops, dtype=np.int64)
    mode = np.zeros(k, dtype=np.int8)  # 0 = greedy, 1 = face
    came = np.full(k, -1, dtype=np.int64)
    fe_x = np.zeros(k, dtype=np.float64)
    fe_y = np.zeros(k, dtype=np.float64)
    first_u = np.full(k, -1, dtype=np.int64)
    first_v = np.full(k, -1, dtype=np.int64)
    switches = np.zeros(k, dtype=np.int64)
    leg_cap = np.zeros(k, dtype=np.int64)
    leg_src = np.full(k, -1, dtype=np.int64)
    resume_d2 = np.zeros(k, dtype=np.float64)
    tx, ty = xs[tgt], ys[tgt]
    leftover = np.zeros(0, dtype=np.int64)
    rounds = 0
    steps_q: List[Any] = []
    steps_v: List[Any] = []

    def finish(idx: Any, code: int) -> None:
        reasons[idx] = code
        settled[idx] = True

    while True:
        live = np.nonzero(~settled)[0]
        if not live.shape[0]:
            break
        if rounds >= _BAIL_ROUNDS and live.shape[0] <= max(
            _BAIL_ACTIVE, k >> 8
        ):
            leftover = live
            break
        rounds += 1
        g = live[mode[live] == 0]
        f = live[mode[live] == 1]

        # ---- greedy legs (delivery checked before the budget) ----
        if g.shape[0]:
            done = cur[g] == tgt[g]
            if done.any():
                finish(g[done], DELIVERED)
                g = g[~done]
        if g.shape[0]:
            over = budget[g] <= 0
            if over.any():
                finish(g[over], HOP_LIMIT)
                g = g[~over]
        if g.shape[0]:
            nxt = _greedy_step(np, snap, cur[g], tx[g], ty[g])
            stuck = nxt < 0
            if stuck.any():
                # Local minimum: enter perimeter mode (no hop).
                sidx = g[stuck]
                sc = cur[sidx]
                mode[sidx] = 1
                leg_src[sidx] = sc
                fe_x[sidx] = xs[sc]
                fe_y[sidx] = ys[sc]
                came[sidx] = -1
                first_u[sidx] = -1
                first_v[sidx] = -1
                switches[sidx] = 0
                leg_cap[sidx] = budget[sidx]
                rdx = xs[sc] - tx[sidx]
                rdy = ys[sc] - ty[sidx]
                resume_d2[sidx] = rdx * rdx + rdy * rdy
                g = g[~stuck]
                nxt = nxt[~stuck]
            if g.shape[0]:
                mc = cur[g]
                lengths[g] += np.hypot(xs[mc] - xs[nxt], ys[mc] - ys[nxt])
                hops[g] += 1
                budget[g] -= 1
                cur[g] = nxt
                if record:
                    steps_q.append(g.copy())
                    steps_v.append(nxt)

        # ---- face legs (budget checked before delivery) ----
        if f.shape[0]:
            over = budget[f] <= 0
            if over.any():
                finish(f[over], HOP_LIMIT)
                f = f[~over]
        if f.shape[0]:
            done = cur[f] == tgt[f]
            if done.any():
                finish(f[done], DELIVERED)
                f = f[~done]
        if f.shape[0]:
            dxr = xs[cur[f]] - tx[f]
            dyr = ys[cur[f]] - ty[f]
            resume = (cur[f] != leg_src[f]) & (
                dxr * dxr + dyr * dyr < resume_d2[f]
            )
            if resume.any():
                mode[f[resume]] = 0  # greedy resumes next round, no hop
                f = f[~resume]
        if f.shape[0]:
            nxt = _rhr_step(np, snap, tables, cur[f], came[f], tx[f], ty[f])
            stuck = nxt < 0
            if stuck.any():
                finish(f[stuck], STUCK)
                f = f[~stuck]
                nxt = nxt[~stuck]
        if f.shape[0]:
            fc = cur[f]
            has, px, py = _crossing_points_batch(
                np,
                xs[fc], ys[fc], xs[nxt], ys[nxt],
                fe_x[f], fe_y[f], tx[f], ty[f],
            )
            dxp = px - tx[f]
            dyp = py - ty[f]
            dxe = fe_x[f] - tx[f]
            dye = fe_y[f] - ty[f]
            change = has & (
                dxp * dxp + dyp * dyp < dxe * dxe + dye * dye - 1e-12
            )
            if change.any():
                cidx = f[change]
                fe_x[cidx] = px[change]
                fe_y[cidx] = py[change]
                came[cidx] = -1
                first_u[cidx] = -1
                first_v[cidx] = -1
                switches[cidx] += 1
                loops = switches[cidx] > leg_cap[cidx]
                if loops.any():
                    finish(cidx[loops], LOOP)
                f = f[~change]  # face change consumes no hop
                nxt = nxt[~change]
            if f.shape[0]:
                fresh = first_u[f] < 0
                if fresh.any():
                    first_u[f[fresh]] = cur[f[fresh]]
                    first_v[f[fresh]] = nxt[fresh]
                repeat = ~fresh & (first_u[f] == cur[f]) & (first_v[f] == nxt)
                if repeat.any():
                    # Full face tour without a change: unreachable.
                    finish(f[repeat], LOOP)
                    f = f[~repeat]
                    nxt = nxt[~repeat]
            if f.shape[0]:
                mc = cur[f]
                lengths[f] += np.hypot(xs[mc] - xs[nxt], ys[mc] - ys[nxt])
                hops[f] += 1
                budget[f] -= 1
                came[f] = mc
                cur[f] = nxt
                if record:
                    steps_q.append(f.copy())
                    steps_v.append(nxt)
    return reasons, hops, lengths, steps_q, steps_v, leftover


def _drain_stragglers(
    np: Any,
    graph: Graph,
    method: str,
    src: Any,
    tgt: Any,
    max_hops: int,
    record: bool,
    leftover: Any,
    reasons: Any,
    hops: Any,
    lengths: Any,
    steps_q: List[Any],
    steps_v: List[Any],
) -> None:
    """Finish bailed-out queries through the scalar reference router.

    The kernels hand over once a handful of stragglers would pin
    near-empty vectorized rounds; re-routing each from its original
    source through the scalar router yields the identical path by the
    parity contract.  Their partial step records are stripped so the
    reassembled paths contain exactly the scalar walk.
    """
    router = {
        "greedy": greedy_route,
        "compass": compass_route,
        "gpsr": gpsr_route,
    }[method]
    if record and steps_q:
        for i in range(len(steps_q)):
            keep = ~np.isin(steps_q[i], leftover)
            if not keep.all():
                steps_q[i] = steps_q[i][keep]
                steps_v[i] = steps_v[i][keep]
    for qi in leftover.tolist():
        res = router(graph, int(src[qi]), int(tgt[qi]), max_hops=max_hops)
        reasons[qi] = _REASON_CODES[res.reason]
        hops[qi] = res.hops
        lengths[qi] = res.length(graph)
        if record and res.hops:
            steps_q.append(np.full(res.hops, qi, dtype=np.int64))
            steps_v.append(np.asarray(res.path[1:], dtype=np.int64))


# -- backbone routing ---------------------------------------------------------


def _extract_backbone_parts(
    result: Any,
) -> Tuple[Graph, Graph, frozenset, Dict[int, frozenset]]:
    """Duck-typed extraction of (udg, backbone, nodes, dominator map).

    Accepts both backbone result shapes in the codebase — the
    construction-facing ``core.spanner.BackboneResult`` (``pipeline``
    attribute) and the protocol-facing ``BackbonePipelineResult``
    (``family`` attribute) — without importing either, so the engine
    stays below both layers.
    """
    udg = result.udg
    backbone = result.ldel_icds
    backbone_nodes = frozenset(result.backbone_nodes)
    fam = getattr(result, "family", None)
    if fam is None:
        fam = getattr(getattr(result, "pipeline", None), "family", None)
    if fam is not None:
        dom_map = {
            int(node): frozenset(doms)
            for node, doms in fam.clustering.dominators_of.items()
        }
    else:  # pragma: no cover - exotic result shapes
        dom_map = {
            v: frozenset(result.dominators_of(v)) for v in range(udg.node_count)
        }
    return udg, backbone, backbone_nodes, dom_map


class _CoreMemo:
    """Routed backbone cores of one traversal mode, keyed ``entry * n + exit``.

    Sorted int64 keys with parallel reason/hop/length arrays: a batch
    looks its cores up with one ``searchsorted`` and merges the new
    ones in linear time.  Paths are kept by key, and only for cores
    routed with paths on; ``has_path`` says which.  Holding more than
    ``bound`` cores drops the memo and starts over.  A lock makes each
    lookup and each store atomic, since the service shares one router
    between concurrent requests.
    """

    def __init__(self, np: Any, bound: int) -> None:
        self.bound = bound
        self._lock = threading.Lock()
        self._clear(np)

    def _clear(self, np: Any) -> None:
        self.keys = np.zeros(0, dtype=np.int64)
        self.reasons = np.zeros(0, dtype=np.int8)
        self.hops = np.zeros(0, dtype=np.int64)
        self.lengths = np.zeros(0, dtype=np.float64)
        self.has_path = np.zeros(0, dtype=bool)
        self.paths: Dict[int, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def _find(self, np: Any, keys: Any) -> Tuple[Any, Any]:
        """``(pos, held)``: where each key sits, and whether it is held."""
        if not len(self):
            return np.zeros(keys.shape[0], dtype=np.int64), np.zeros(keys.shape[0], dtype=bool)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self) - 1)
        return pos, self.keys[pos] == keys

    def lookup(
        self, np: Any, keys: Any, need_paths: bool
    ) -> Tuple[Any, Any, Any, Any, List[Tuple[int, ...]]]:
        """``(hit, reasons, hops, lengths, paths)`` of the usable held cores.

        ``hit`` marks the ``keys`` held (with a path, if
        ``need_paths``); the rest describe the hits in order, ``paths``
        empty unless ``need_paths``.
        """
        with self._lock:
            pos, hit = self._find(np, keys)
            if need_paths and len(self):
                hit &= self.has_path[pos]
            got = pos[hit]
            paths = [self.paths[key] for key in keys[hit].tolist()] if need_paths else []
            return hit, self.reasons[got], self.hops[got], self.lengths[got], paths

    def store(
        self, np: Any, keys: Any, reasons: Any, hops: Any, lengths: Any,
        paths: Optional[List[Tuple[int, ...]]],
    ) -> None:
        """Add ascending ``keys``; a key already held only gains its path."""
        with self._lock:
            pos, held = self._find(np, keys)
            if paths is not None:
                again = np.nonzero(held)[0]
                self.has_path[pos[again]] = True
                for j, key in zip(again.tolist(), keys[again].tolist()):
                    self.paths[key] = paths[j]
            new = np.nonzero(~held)[0]
            if len(self) + new.shape[0] > self.bound:
                self._clear(np)
                new = new[: self.bound]
            if not new.shape[0]:
                return
            keys = keys[new]
            if paths is not None:
                for key, j in zip(keys.tolist(), new.tolist()):
                    self.paths[key] = paths[j]
            # Linear merge: new key i lands after the held keys below it.
            at = np.searchsorted(self.keys, keys) + np.arange(new.shape[0])
            old = np.ones(len(self) + new.shape[0], dtype=bool)
            old[at] = False
            for name, fresh in (
                ("keys", keys),
                ("reasons", reasons[new]),
                ("hops", hops[new]),
                ("lengths", lengths[new]),
                ("has_path", np.full(new.shape[0], paths is not None)),
            ):
                held_arr = getattr(self, name)
                merged = np.empty(old.shape[0], dtype=held_arr.dtype)
                merged[old] = held_arr
                merged[at] = fresh
                setattr(self, name, merged)


class BackboneRouter:
    """Batch version of the paper's dominating-set routing procedure.

    Per pair: deliver in place (``s == t``), in one hop over a UDG
    edge, or via entry dominator -> backbone traversal -> exit
    dominator, exactly as ``backbone_route`` does it — but the
    backbone cores are deduplicated across the batch (many pairs share
    an (entry, exit)), answered by a :class:`RouteEngine` over the
    backbone CSR, and memoized per traversal mode, so repeat batches
    are near-free.  ``mode="shortest"`` answers cores with true
    shortest paths (Dijkstra over the backbone, reusing the
    :class:`~repro.core.oracle.DistanceOracle` snapshot when one is
    supplied) — the stretch-bounded reference the ``route-stretch``
    invariant measures the paper's Lemma 5/6 bounds against.

    Construct from a backbone build result, or from explicit parts
    (the failure-replay path, which feeds degraded graphs).
    """

    MODES = ("gpsr", "greedy", "shortest")

    def __init__(
        self,
        result: Any = None,
        *,
        udg: Optional[Graph] = None,
        backbone: Optional[Graph] = None,
        backbone_nodes: Any = None,
        dominators_of: Optional[Dict[int, Any]] = None,
        oracle: Any = None,
        cache_entries: int = 1_000_000,
    ) -> None:
        if result is not None:
            r_udg, r_bb, r_nodes, r_doms = _extract_backbone_parts(result)
            udg = udg if udg is not None else r_udg
            backbone = backbone if backbone is not None else r_bb
            backbone_nodes = (
                backbone_nodes if backbone_nodes is not None else r_nodes
            )
            dominators_of = (
                dominators_of if dominators_of is not None else r_doms
            )
        if udg is None or backbone is None or backbone_nodes is None:
            raise ValueError(
                "BackboneRouter needs a backbone result or explicit parts"
            )
        self.udg = udg
        self.backbone = backbone
        self.backbone_nodes = frozenset(backbone_nodes)
        self.dominators = dict(dominators_of or {})
        self.oracle = oracle
        self.engine = RouteEngine(backbone)
        # Entry map, the scalar `_entry_point` for every node at once:
        # itself for backbone nodes, else the lowest dominator, -1 none.
        entry: List[int] = []
        for v in range(udg.node_count):
            if v in self.backbone_nodes:
                entry.append(v)
            else:
                doms = self.dominators.get(v)
                entry.append(min(doms) if doms else -1)
        self._entry = entry
        self._entry_arr: Any = None
        self._udg_keys: Any = None
        self._labels: Optional[Sequence[int]] = None
        self._bb_snap: Any = None
        self._memos: Dict[str, _CoreMemo] = {}
        self._cache_entries = cache_entries

    # -- cached derived state -------------------------------------------

    def _entry_array(self, np: Any) -> Any:
        if self._entry_arr is None:
            self._entry_arr = np.asarray(self._entry, dtype=np.int64)
        return self._entry_arr

    def _udg_dir_keys(self, usnap: SoaSnapshot) -> Any:
        """Globally ascending ``u * n + v`` directed UDG edge keys."""
        if self._udg_keys is None:
            self._udg_keys = usnap.directed_keys()
        return self._udg_keys

    def component_labels(self) -> Sequence[int]:
        """UDG component label per node (unreachable accounting)."""
        if self._labels is None:
            self._labels = component_labels_for(self.udg)
        return self._labels

    def _backbone_snapshot(self) -> Any:
        if self._bb_snap is None:
            from repro.core.oracle import GraphSnapshot

            if self.oracle is not None:
                self._bb_snap = self.oracle.snapshot_of(self.backbone)
            else:
                self._bb_snap = GraphSnapshot.from_graph(self.backbone)
        return self._bb_snap

    # -- public API ------------------------------------------------------

    def route_pairs(
        self,
        pairs: Any,
        *,
        mode: str = "gpsr",
        max_hops: Optional[int] = None,
        keep_paths: bool = True,
        count_unreachable: bool = True,
    ) -> BatchRouteResult:
        """Batch backbone routing; scalar-identical paths for gpsr/greedy.

        Stitched lengths can differ from the scalar left-to-right fold
        by float summation order only (paths, hops and reasons are
        exact).
        """
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; known: {self.MODES}")
        np = get_numpy()
        usnap = snapshot_for(self.udg) if np is not None else None
        if np is None or usnap is None:
            return self._route_pairs_scalar(
                pairs,
                mode=mode,
                max_hops=max_hops,
                keep_paths=keep_paths,
                count_unreachable=count_unreachable,
            )
        q = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        k = q.shape[0]
        n = usnap.n
        if k and (int(q.min()) < 0 or int(q.max()) >= n):
            raise ValueError("pair endpoint out of range")
        s = np.ascontiguousarray(q[:, 0])
        t = np.ascontiguousarray(q[:, 1])
        xs, ys = usnap.xs, usnap.ys
        reasons = np.zeros(k, dtype=np.int8)
        hops = np.zeros(k, dtype=np.int64)
        lengths = np.zeros(k, dtype=np.float64)
        same = s == t
        direct = ~same & sorted_member(np, self._udg_dir_keys(usnap), s * n + t)
        hops[direct] = 1
        lengths[direct] = np.hypot(
            xs[s[direct]] - xs[t[direct]], ys[s[direct]] - ys[t[direct]]
        )
        entry_arr = self._entry_array(np)
        es = entry_arr[s]
        et = entry_arr[t]
        routed = ~same & ~direct
        noent = routed & ((es < 0) | (et < 0))
        reasons[noent] = STUCK
        corey = routed & ~noent
        triv = corey & (es == et)
        core_hops = np.zeros(k, dtype=np.int64)
        core_len = np.zeros(k, dtype=np.float64)
        core_reason = np.zeros(k, dtype=np.int8)
        core_delivered = np.zeros(k, dtype=bool)
        core_delivered[triv] = True
        u_idx = np.nonzero(corey & ~triv)[0]
        core_path_of: Dict[int, Tuple[int, ...]] = {}
        if u_idx.shape[0]:
            ukeys = es[u_idx] * n + et[u_idx]
            uniq, inv = np.unique(ukeys, return_inverse=True)
            ur, uh, ul, up = self._resolve_cores(
                np, uniq, n, mode=mode, max_hops=max_hops, keep_paths=keep_paths
            )
            core_reason[u_idx] = ur[inv]
            core_hops[u_idx] = uh[inv]
            core_len[u_idx] = ul[inv]
            core_delivered[u_idx] = ur[inv] == DELIVERED
            if keep_paths:
                for j, qi in enumerate(u_idx.tolist()):
                    core_path_of[qi] = up[int(inv[j])]
        head = corey & (s != es)
        tail = corey & core_delivered & (t != et)
        hops[corey] = core_hops[corey] + head[corey] + tail[corey]
        lengths[head] += np.hypot(
            xs[s[head]] - xs[es[head]], ys[s[head]] - ys[es[head]]
        )
        lengths[corey] += core_len[corey]
        lengths[tail] += np.hypot(
            xs[et[tail]] - xs[t[tail]], ys[et[tail]] - ys[t[tail]]
        )
        reasons[corey] = core_reason[corey]
        path_indptr = path_nodes = None
        if keep_paths:
            path_indptr, path_nodes = self._stitch_paths(
                np, s, t, es, same, direct, noent, triv, reasons, core_path_of
            )
        unreachable = None
        if count_unreachable:
            labels = self.component_labels()
            unreachable = labels[s] != labels[t]
        return BatchRouteResult(
            method=f"backbone-{mode}",
            sources=s,
            targets=t,
            reasons=reasons,
            hops=hops,
            lengths=lengths,
            path_indptr=path_indptr,
            path_nodes=path_nodes,
            unreachable=unreachable,
        )

    def _stitch_paths(
        self,
        np: Any,
        s: Any,
        t: Any,
        es: Any,
        same: Any,
        direct: Any,
        noent: Any,
        triv: Any,
        reasons: Any,
        core_path_of: Dict[int, Tuple[int, ...]],
    ) -> Tuple[Any, Any]:
        """Materialize stitched paths, replicating scalar ``_stitch``."""
        k = s.shape[0]
        sl, tl, esl = s.tolist(), t.tolist(), es.tolist()
        same_l, direct_l = same.tolist(), direct.tolist()
        noent_l, triv_l = noent.tolist(), triv.tolist()
        deliv_l = (reasons == DELIVERED).tolist()
        nodes: List[int] = []
        indptr: List[int] = [0]
        for i in range(k):
            if same_l[i] or noent_l[i]:
                nodes.append(sl[i])
            elif direct_l[i]:
                nodes.extend((sl[i], tl[i]))
            else:
                core = (esl[i],) if triv_l[i] else core_path_of[i]
                path = [sl[i]]
                for v in core:
                    if v != path[-1]:
                        path.append(int(v))
                if deliv_l[i] and path[-1] != tl[i]:
                    path.append(tl[i])
                nodes.extend(path)
            indptr.append(len(nodes))
        return (
            np.asarray(indptr, dtype=np.int64),
            np.asarray(nodes, dtype=np.int64),
        )

    def _resolve_cores(
        self,
        np: Any,
        ukeys: Any,
        n: int,
        *,
        mode: str,
        max_hops: Optional[int],
        keep_paths: bool,
    ) -> Tuple[Any, Any, Any, List[Any]]:
        """Route the deduplicated cores ``entry * n + exit``, memoized per mode.

        ``ukeys`` is ascending.  Returns per-core reasons, hops, lengths
        and (with ``keep_paths``) paths.
        """
        memo = self._memos.get(mode)
        if memo is None:
            memo = self._memos.setdefault(mode, _CoreMemo(np, self._cache_entries))
        m = ukeys.shape[0]
        hit, hr, hh, hl, hp = memo.lookup(np, ukeys, keep_paths)
        ur = np.empty(m, dtype=np.int8)
        uh = np.empty(m, dtype=np.int64)
        ul = np.empty(m, dtype=np.float64)
        ur[hit] = hr
        uh[hit] = hh
        ul[hit] = hl
        up: List[Any] = [None] * m
        for j, path in zip(np.nonzero(hit)[0].tolist(), hp):
            up[j] = path
        miss = np.nonzero(~hit)[0]
        if miss.shape[0]:
            mk = ukeys[miss]
            if mode == "shortest":
                rr, rh, rl, rp = self._shortest_cores(np, mk // n, mk % n)
            else:
                res = self.engine.route_pairs(
                    np.stack([mk // n, mk % n], axis=1),
                    method=mode,
                    max_hops=max_hops,
                    keep_paths=keep_paths,
                    count_unreachable=False,
                )
                rr, rh, rl = res.reasons, res.hops, res.lengths
                rp = [res.path(j) for j in range(miss.shape[0])] if keep_paths else None
            ur[miss] = rr
            uh[miss] = rh
            ul[miss] = rl
            if keep_paths:
                for j, path in zip(miss.tolist(), rp):
                    up[j] = path
            memo.store(np, mk, rr, rh, rl, rp if keep_paths else None)
        return ur, uh, ul, up

    def _shortest_cores(
        self, np: Any, usrc: Any, udst: Any
    ) -> Tuple[Any, Any, Any, List[Any]]:
        """True shortest-path cores over the backbone (Dijkstra).

        An unreachable core is ``stuck`` at its entry, path ``(entry,)``,
        as the scalar reference reports it.
        """
        m = usrc.shape[0]
        rr = np.full(m, STUCK, dtype=np.int8)
        rh = np.zeros(m, dtype=np.int64)
        rl = np.zeros(m, dtype=np.float64)
        rp: List[Any] = [(v,) for v in usrc.tolist()]
        snap = self._backbone_snapshot()
        srcs = np.unique(usrc)
        if HAVE_SCIPY:
            from repro.core.compat import scipy_dijkstra

            dmat, pred = scipy_dijkstra(
                snap.csgraph("length"),
                directed=False,
                indices=srcs,
                return_predecessors=True,
            )
            row_of = {int(v): i for i, v in enumerate(srcs.tolist())}
            for j in range(m):
                si = row_of[int(usrc[j])]
                dn = int(udst[j])
                dval = float(dmat[si, dn])
                if not math.isfinite(dval):
                    continue
                path = [dn]
                while path[-1] != int(usrc[j]):
                    p = int(pred[si, path[-1]])
                    if p < 0:  # pragma: no cover - defensive
                        break
                    path.append(p)
                path.reverse()
                rr[j] = DELIVERED
                rh[j] = len(path) - 1
                rl[j] = dval
                rp[j] = tuple(path)
            return rr, rh, rl, rp
        # scipy-less fallback: heap Dijkstra per unique source over the
        # snapshot CSR (deterministic: lowest-id tie-break via the heap).
        import heapq

        indptr, indices, lens = snap.indptr, snap.indices, snap.lengths
        nn = snap.node_count
        for sv in srcs.tolist():
            sv = int(sv)
            distv = [math.inf] * nn
            parent = [-1] * nn
            distv[sv] = 0.0
            heap: List[Tuple[float, int]] = [(0.0, sv)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > distv[u]:
                    continue
                for ei in range(indptr[u], indptr[u + 1]):
                    v = indices[ei]
                    nd = d + lens[ei]
                    if nd < distv[v]:
                        distv[v] = nd
                        parent[v] = u
                        heapq.heappush(heap, (nd, v))
            for j in range(m):
                if int(usrc[j]) != sv:
                    continue
                dn = int(udst[j])
                if not math.isfinite(distv[dn]):
                    continue
                path = [dn]
                while path[-1] != sv:
                    path.append(parent[path[-1]])
                path.reverse()
                rr[j] = DELIVERED
                rh[j] = len(path) - 1
                rl[j] = distv[dn]
                rp[j] = tuple(path)
        return rr, rh, rl, rp

    # -- no-numpy fallback ----------------------------------------------

    def _route_pairs_scalar(
        self,
        pairs: Any,
        *,
        mode: str,
        max_hops: Optional[int],
        keep_paths: bool,
        count_unreachable: bool,
    ) -> BatchRouteResult:
        """Scalar per-pair backbone routing (identical semantics)."""
        from repro.graphs.paths import shortest_path
        from repro.routing.backbone_routing import _stitch

        n = self.udg.node_count
        norm = [(int(s), int(t)) for s, t in pairs]
        for s, t in norm:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError("pair endpoint out of range")
        reasons: List[int] = []
        hops: List[int] = []
        lengths: List[float] = []
        indptr: List[int] = [0]
        nodes: List[int] = []
        for s, t in norm:
            res = self._route_one_scalar(
                s, t, mode=mode, max_hops=max_hops, shortest=shortest_path,
                stitch=_stitch,
            )
            reasons.append(_REASON_CODES[res.reason])
            hops.append(res.hops)
            lengths.append(res.length(self.udg))
            if keep_paths:
                nodes.extend(res.path)
                indptr.append(len(nodes))
        unreachable: Optional[List[bool]] = None
        if count_unreachable:
            labels = self.component_labels()
            unreachable = [labels[s] != labels[t] for s, t in norm]
        return BatchRouteResult(
            method=f"backbone-{mode}",
            sources=[s for s, _ in norm],
            targets=[t for _, t in norm],
            reasons=reasons,
            hops=hops,
            lengths=lengths,
            path_indptr=indptr if keep_paths else None,
            path_nodes=nodes if keep_paths else None,
            unreachable=unreachable,
        )

    def _route_one_scalar(
        self,
        s: int,
        t: int,
        *,
        mode: str,
        max_hops: Optional[int],
        shortest: Any,
        stitch: Any,
    ) -> RouteResult:
        if s == t:
            return RouteResult((s,), True, "delivered")
        if self.udg.has_edge(s, t):
            return RouteResult((s, t), True, "delivered")
        entry, exit_ = self._entry[s], self._entry[t]
        if entry < 0 or exit_ < 0:
            return RouteResult((s,), False, "stuck")
        if entry == exit_:
            core = RouteResult((entry,), True, "delivered")
        elif mode == "gpsr":
            core = gpsr_route(self.backbone, entry, exit_, max_hops=max_hops)
        elif mode == "greedy":
            core = greedy_route(self.backbone, entry, exit_, max_hops=max_hops)
        else:
            found = shortest(self.backbone, entry, exit_)
            if found.found:
                core = RouteResult(found.nodes, True, "delivered")
            else:
                core = RouteResult((entry,), False, "stuck")
        if not core.delivered:
            return RouteResult(
                stitch(s, core.path, t, include_target=False),
                False,
                core.reason,
            )
        return RouteResult(
            stitch(s, core.path, t, include_target=True), True, "delivered"
        )


# -- failure replay -----------------------------------------------------------


def _as_list(values: Any) -> List[Any]:
    return values.tolist() if hasattr(values, "tolist") else list(values)


def replay_failures(
    result: Any,
    pairs: Any,
    *,
    node_loss: float = 0.0,
    link_loss: float = 0.0,
    seed: int = 0,
    mode: str = "gpsr",
    max_hops: Optional[int] = None,
    with_stretch: bool = True,
    oracle: Any = None,
) -> Dict[str, Any]:
    """Replay a failure scenario against a live backbone build.

    ``node_loss`` removes each node independently with that
    probability (the failed set is a deterministic function of
    ``seed``): failed nodes drop out of the UDG, the backbone, and the
    dominator sets — a node whose lowest dominator died enters the
    backbone at its lowest *surviving* dominator, modelling the
    protocol's local re-affiliation without a full re-election.  Pairs
    with a failed endpoint are tallied as ``endpoint_failed`` and not
    routed.  ``link_loss`` is a per-hop Bernoulli packet-loss
    probability applied to each delivered route as one draw with
    success probability ``(1 - p) ** hops`` (statistically identical
    to independent per-hop draws).

    Delivered-and-surviving routes are compared against shortest paths
    on the *intact* UDG, so the reported stretch shows what the
    degradation costs end to end.  Returns a JSON-ready summary:
    delivery rates (overall / among routed), failure tallies, and the
    stretch distribution of surviving routes.
    """
    udg, backbone, backbone_nodes, dom_map = _extract_backbone_parts(result)
    n = udg.node_count
    rng = random.Random(seed)
    failed = (
        frozenset(v for v in range(n) if rng.random() < node_loss)
        if node_loss > 0.0
        else frozenset()
    )
    if failed:
        alive_udg = Graph(
            udg.positions,
            (
                (u, v)
                for u, v in udg.edges()
                if u not in failed and v not in failed
            ),
            name=f"{udg.name}[degraded]",
        )
        alive_backbone = Graph(
            backbone.positions,
            (
                (u, v)
                for u, v in backbone.edges()
                if u not in failed and v not in failed
            ),
            name=f"{backbone.name}[degraded]",
        )
        alive_nodes = frozenset(backbone_nodes - failed)
        alive_doms = {
            node: frozenset(d for d in doms if d not in failed)
            for node, doms in dom_map.items()
            if node not in failed
        }
    else:
        alive_udg, alive_backbone = udg, backbone
        alive_nodes, alive_doms = backbone_nodes, dom_map

    norm = [(int(s), int(t)) for s, t in pairs]
    endpoint_failed = sum(1 for s, t in norm if s in failed or t in failed)
    routed_pairs = [(s, t) for s, t in norm if s not in failed and t not in failed]

    router = BackboneRouter(
        udg=alive_udg,
        backbone=alive_backbone,
        backbone_nodes=alive_nodes,
        dominators_of=alive_doms,
    )
    batch = router.route_pairs(
        routed_pairs,
        mode=mode,
        max_hops=max_hops,
        keep_paths=False,
        count_unreachable=True,
    )
    reasons = _as_list(batch.reasons)
    hops = _as_list(batch.hops)
    lengths = _as_list(batch.lengths)

    # Per-link loss: one Bernoulli draw per delivered route.
    link_rng = random.Random(seed + 1)
    survive = 1.0 - link_loss
    survived: List[int] = []
    dropped = 0
    for i, code in enumerate(reasons):
        if code != DELIVERED:
            continue
        if link_loss > 0.0 and link_rng.random() >= survive ** hops[i]:
            dropped += 1
        else:
            survived.append(i)

    stretch_vals: List[float] = []
    if with_stretch and survived:
        base = _intact_shortest_lengths(
            udg, [routed_pairs[i] for i in survived], oracle=oracle
        )
        for i, d_udg in zip(survived, base):
            if math.isfinite(d_udg) and d_udg > 0.0:
                stretch_vals.append(lengths[i] / d_udg)

    total = len(norm)
    delivered = batch.delivered_count
    return {
        "pairs": total,
        "mode": mode,
        "seed": seed,
        "node_loss": node_loss,
        "link_loss": link_loss,
        "failed_nodes": len(failed),
        "endpoint_failed": endpoint_failed,
        "routed": len(routed_pairs),
        "delivered": delivered,
        "link_dropped": dropped,
        "survived": len(survived),
        "unreachable_pairs": batch.unreachable_pairs,
        "delivery_rate": len(survived) / total if total else 0.0,
        "routed_delivery_rate": (
            delivered / len(routed_pairs) if routed_pairs else 0.0
        ),
        "stretch_samples": len(stretch_vals),
        "stretch_avg": (
            sum(stretch_vals) / len(stretch_vals) if stretch_vals else 0.0
        ),
        "stretch_max": max(stretch_vals) if stretch_vals else 0.0,
    }


def _intact_shortest_lengths(
    udg: Graph, pairs: Sequence[Tuple[int, int]], *, oracle: Any = None
) -> List[float]:
    """Shortest-path length on the intact UDG for each pair.

    Grouped by unique source; scipy Dijkstra over the oracle snapshot
    when available, the pure-Python Dijkstra otherwise.
    """
    sources = sorted({s for s, _ in pairs})
    rows: Dict[int, Any] = {}
    np = get_numpy()
    if np is not None and HAVE_SCIPY:
        from repro.core.compat import scipy_dijkstra
        from repro.core.oracle import GraphSnapshot

        if oracle is not None and oracle.matches(udg):
            snap = oracle.snapshot_of(udg)
        else:
            snap = GraphSnapshot.from_graph(udg)
        dmat = scipy_dijkstra(
            snap.csgraph("length"),
            directed=False,
            indices=np.asarray(sources, dtype=np.int64),
        )
        for i, s in enumerate(sources):
            rows[s] = dmat[i]
    else:
        from repro.graphs.paths import dijkstra_lengths

        for s in sources:
            rows[s] = dijkstra_lengths(udg, s)
    return [float(rows[s][t]) for s, t in pairs]
