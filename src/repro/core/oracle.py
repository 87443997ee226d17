"""Per-deployment distance oracle: cached APSP + vectorized stretch kernels.

The paper's measurement side — average/maximum length, hop, and power
stretch for Table I and Figures 8–12 — needs all-pairs shortest
distances on the UDG *and* on every measured topology, once per weight
kind.  Recomputing the UDG matrices for every stretch call (as the
straightforward implementation does) costs ~21 redundant APSPs per
deployment across the full topology family; reducing all n² pairs in a
pure-Python loop then dwarfs even that.

:class:`DistanceOracle` fixes both ends:

* each graph is **snapshotted once** into CSR-style flat adjacency +
  positions arrays (:class:`GraphSnapshot`);
* APSP matrices are **memoized** per (graph fingerprint, weight kind:
  hops / length / power-α) with hit/miss counters, so the UDG
  baseline matrices are shared across all three stretch kinds and
  every topology family row;
* the n²-pair reduction is a **vectorized kernel** (numpy masked
  divide, with the skip-UDG-adjacent mask built from the adjacency
  snapshot) that matches the reference implementation
  (:func:`repro.core.metrics.stretch_reference`) to within
  ``PARITY_RTOL``; the pure-Python fallback (no numpy) is *exact* —
  bit-identical accumulation order.

APSP uses :mod:`scipy.sparse.csgraph` when available; the pure-Python
fallback runs one search per source.

Each counter bump is also counted as ``oracle.<name>`` and each stage
(snapshot / apsp / kernel) runs under an ``oracle.stage.<name>`` span
(:mod:`repro.obs`), which is how ``GET /metrics`` sees them.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro import obs
from repro.core.metrics import StretchStats, TopologyMetrics, measure_topology
from repro.geometry.primitives import dist
from repro.graphs.graph import Graph
from repro.graphs.paths import bfs_hops, dijkstra_lengths

# Optional-dependency guards live in repro.core.compat; the module
# attributes below stay because tests (and downstream users) patch
# them to force the pure-Python paths.
from repro.core.compat import HAVE_NUMPY as _HAVE_NUMPY
from repro.core.compat import HAVE_SCIPY as _HAVE_SCIPY
from repro.core.compat import csr_matrix as _csr_matrix
from repro.core.compat import np as _np
from repro.core.compat import scipy_dijkstra as _sp_dijkstra

#: The weight kinds the oracle understands (power is parameterized by
#: the path-loss exponent alpha).
WEIGHT_KINDS = ("hops", "length", "power")

#: Documented agreement between the vectorized kernel and the
#: pure-Python reference: relative on ``avg`` (summation order differs
#: between numpy's pairwise mean and the sequential loop), exact on
#: ``max`` / ``pairs`` / ``unreachable_pairs``.  The no-numpy fallback
#: path is exact on every field.
PARITY_RTOL = 1e-9


def weight_key(kind: str, alpha: float = 2.0) -> str:
    """Canonical memoization key for a weight kind (``power`` carries α)."""
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}; known: {WEIGHT_KINDS}")
    if kind == "power":
        return f"power-{alpha:g}"
    return kind


@dataclass
class GraphSnapshot:
    """CSR-style flat adjacency + positions snapshot of one graph.

    ``indptr``/``indices`` are the usual compressed-sparse-row layout
    over sorted adjacency lists; ``lengths`` carries the Euclidean
    length of each adjacency entry (computed once, with the same
    :func:`~repro.geometry.primitives.dist` the graphs use, so weights
    agree bit-for-bit with the reference path).  ``xs``/``ys`` are the
    flat position arrays.
    """

    node_count: int
    edge_count: int
    indptr: List[int]
    indices: List[int]
    lengths: List[float]
    xs: List[float]
    ys: List[float]

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphSnapshot":
        """Snapshot ``graph`` (O(V + E log E), done once per graph).

        When the graph carries a shared SoA snapshot (see
        :mod:`repro.core.soa`) its CSR arrays are adopted directly;
        edge lengths still go through scalar :func:`dist` either way,
        so weights agree bit-for-bit with the reference path.
        """
        from repro.core.soa import snapshot_for

        n = graph.node_count
        positions = graph.positions
        soa = snapshot_for(graph)
        if soa is not None:
            indptr = soa.indptr.tolist()
            indices = soa.indices.tolist()
            lengths = [
                dist(positions[u], positions[v])
                for u in range(n)
                for v in indices[indptr[u] : indptr[u + 1]]
            ]
        else:
            indptr = [0]
            indices = []
            lengths = []
            for u in range(n):
                pu = positions[u]
                for v in sorted(graph.neighbors(u)):
                    indices.append(v)
                    lengths.append(dist(pu, positions[v]))
                indptr.append(len(indices))
        return cls(
            node_count=n,
            edge_count=graph.edge_count,
            indptr=indptr,
            indices=indices,
            lengths=lengths,
            xs=[p[0] for p in positions],
            ys=[p[1] for p in positions],
        )

    def weights(self, kind: str, alpha: float = 2.0) -> List[float]:
        """Edge data array for one weight kind, aligned with ``indices``.

        Power weights are computed with scalar Python ``**`` so they
        are bit-identical to the reference path's weight callable.
        """
        if kind == "hops":
            return [1.0] * len(self.indices)
        if kind == "length":
            return self.lengths
        return [length ** alpha for length in self.lengths]

    def csgraph(self, kind: str, alpha: float = 2.0) -> Any:
        """The scipy CSR matrix for one weight kind (requires scipy)."""
        return _csr_matrix(
            (self.weights(kind, alpha), self.indices, self.indptr),
            shape=(self.node_count, self.node_count),
        )


def _hop_rows(graph: Graph, sources: Sequence[int]) -> List[List[float]]:
    """BFS hop rows for ``sources``."""
    return [
        [(h if h >= 0 else math.inf) for h in bfs_hops(graph, s)]
        for s in sources
    ]


def _weighted_rows(
    graph: Graph, kind: str, alpha: float, sources: Sequence[int]
) -> List[List[float]]:
    """Dijkstra rows for ``sources``."""
    if kind == "power":
        def weight(u: int, v: int) -> float:
            return graph.edge_length(u, v) ** alpha

        return [dijkstra_lengths(graph, s, weight) for s in sources]
    return [dijkstra_lengths(graph, s, graph.edge_length) for s in sources]


class DistanceOracle:
    """Memoized all-pairs distances + stretch kernels for one deployment.

    Construct one per deployment with the UDG (or any baseline graph)
    and reuse it for every stretch query on that deployment: the
    baseline matrices are computed once per weight kind and shared
    across all measured topologies, and each measured topology's
    matrices are memoized by graph fingerprint.

    ``max_entries`` bounds the number of *non-baseline* matrices kept
    (LRU); baseline matrices are pinned.  ``use_numpy``/``use_scipy``
    force the pure-Python paths off their defaults — the no-numpy
    kernel is exact against :func:`repro.core.metrics.stretch_reference`,
    which is what the benchmark tripwires assert.
    """

    def __init__(
        self,
        baseline: Graph,
        *,
        max_entries: int = 6,
        use_numpy: Optional[bool] = None,
        use_scipy: Optional[bool] = None,
    ) -> None:
        self.baseline = baseline
        self.max_entries = max_entries
        self._use_numpy = _HAVE_NUMPY if use_numpy is None else (use_numpy and _HAVE_NUMPY)
        self._use_scipy = _HAVE_SCIPY if use_scipy is None else (use_scipy and _HAVE_SCIPY)
        self._matrices: "OrderedDict[tuple, Any]" = OrderedDict()
        self._snapshots: dict[tuple, GraphSnapshot] = {}
        self._adj_mask: Any = None
        self.counters: dict[str, int] = {
            "apsp_hits": 0,
            "apsp_misses": 0,
            "snapshot_hits": 0,
            "snapshot_misses": 0,
            "stretch_calls": 0,
            "evictions": 0,
        }
        self._baseline_fp = self.fingerprint(baseline)

    def _count(self, name: str) -> None:
        self.counters[name] += 1
        obs.count(f"oracle.{name}")

    # -- keying ----------------------------------------------------------

    @staticmethod
    def fingerprint(graph: Graph) -> tuple:
        """Cheap content key: (nodes, edges, hash of the edge set).

        O(E) per call — negligible next to the O(n² log n) APSP it
        guards — and content-addressed, so a rebuilt-but-identical
        graph hits the same cache entries.
        """
        return (graph.node_count, graph.edge_count, hash(graph.edge_set()))

    def matches(self, baseline: Graph) -> bool:
        """Whether ``baseline`` is this oracle's baseline graph."""
        return baseline is self.baseline or (
            baseline.node_count == self.baseline.node_count
            and self.fingerprint(baseline) == self._baseline_fp
        )

    # -- snapshots -------------------------------------------------------

    def snapshot_of(self, graph: Graph) -> GraphSnapshot:
        """The (memoized) CSR snapshot of ``graph``."""
        key = self.fingerprint(graph)
        snap = self._snapshots.get(key)
        if snap is not None:
            self._count("snapshot_hits")
            return snap
        self._count("snapshot_misses")
        with obs.span("oracle.stage.snapshot"):
            snap = GraphSnapshot.from_graph(graph)
        self._snapshots[key] = snap
        return snap

    # -- all-pairs matrices ----------------------------------------------

    def apsp(self, graph: Graph, kind: str, *, alpha: float = 2.0) -> Any:
        """The (memoized) all-pairs distance matrix of ``graph``.

        Returns a numpy ndarray on the scipy path, a list of row lists
        on the pure-Python fallback; both index as ``matrix[u][v]``
        with ``math.inf`` for unreachable pairs.
        """
        key = (self.fingerprint(graph), weight_key(kind, alpha))
        cached = self._matrices.get(key)
        if cached is not None:
            self._count("apsp_hits")
            self._matrices.move_to_end(key)
            return cached
        self._count("apsp_misses")
        with obs.span("oracle.stage.apsp"):
            matrix = self._compute_apsp(graph, kind, alpha)
        self._matrices[key] = matrix
        self._evict()
        return matrix

    def _compute_apsp(self, graph: Graph, kind: str, alpha: float) -> Any:
        n = graph.node_count
        if self._use_scipy and n > 0:
            snap = self.snapshot_of(graph)
            return _sp_dijkstra(
                snap.csgraph(kind, alpha), directed=False,
                unweighted=kind == "hops",
            )
        if kind == "hops":
            return _hop_rows(graph, range(n))
        return _weighted_rows(graph, kind, alpha, range(n))

    def _evict(self) -> None:
        """Drop least-recently-used non-baseline matrices over the cap."""
        def over() -> bool:
            return (
                sum(1 for fp, _ in self._matrices if fp != self._baseline_fp)
                > self.max_entries
            )

        while over():
            for key in self._matrices:
                if key[0] != self._baseline_fp:
                    del self._matrices[key]
                    self._count("evictions")
                    break

    # -- stretch ---------------------------------------------------------

    def stretch(
        self,
        graph: Graph,
        kind: str,
        *,
        skip_udg_adjacent: bool = False,
        alpha: float = 2.0,
    ) -> StretchStats:
        """Stretch of ``graph`` against the baseline under one weight kind.

        Pairs unreachable *in the baseline* are out of scope (as in the
        reference); pairs reachable in the baseline but not in
        ``graph`` are excluded from ``avg``/``max`` and counted in
        ``unreachable_pairs`` instead of poisoning the average with
        ``inf``.
        """
        if graph.node_count != self.baseline.node_count:
            raise ValueError("graph and baseline must share the node set")
        if kind == "power" and alpha < 1.0:
            raise ValueError("alpha below 1 is not a power-attenuation model")
        self._count("stretch_calls")
        d_graph = self.apsp(graph, kind, alpha=alpha)
        d_base = self.apsp(self.baseline, kind, alpha=alpha)
        with obs.span("oracle.stage.kernel"):
            if self._use_numpy:
                return self._kernel_numpy(d_graph, d_base, skip_udg_adjacent)
            return _kernel_python(d_graph, d_base, self.baseline, skip_udg_adjacent)

    def _adjacency_mask(self) -> Any:
        """Dense boolean baseline-adjacency matrix (numpy path only)."""
        if self._adj_mask is None:
            snap = self.snapshot_of(self.baseline)
            n = snap.node_count
            mask = _np.zeros((n, n), dtype=bool)
            if snap.indices:
                rows = _np.repeat(
                    _np.arange(n), _np.diff(_np.asarray(snap.indptr))
                )
                mask[rows, _np.asarray(snap.indices)] = True
            self._adj_mask = mask
        return self._adj_mask

    def _kernel_numpy(
        self, d_graph: Any, d_base: Any, skip_udg_adjacent: bool
    ) -> StretchStats:
        """Vectorized reduction: masked divide over the upper triangle."""
        d_g = _np.asarray(d_graph, dtype=float)
        d_b = _np.asarray(d_base, dtype=float)
        valid = _np.triu(_np.isfinite(d_b) & (d_b > 0.0), k=1)
        if skip_udg_adjacent:
            valid &= ~self._adjacency_mask()
        measured = valid & _np.isfinite(d_g)
        unreachable = int(_np.count_nonzero(valid)) - int(_np.count_nonzero(measured))
        ratios = d_g[measured] / d_b[measured]
        pairs = int(ratios.size)
        if pairs == 0:
            return StretchStats(0.0, 0.0, 0, unreachable_pairs=unreachable)
        return StretchStats(
            avg=float(ratios.mean()),
            max=float(ratios.max()),
            pairs=pairs,
            unreachable_pairs=unreachable,
        )

    # -- convenience and accounting --------------------------------------

    def measure(self, graph: Graph, **kwargs: Any) -> TopologyMetrics:
        """Shorthand for :func:`~repro.core.metrics.measure_topology`."""
        return measure_topology(graph, self.baseline, oracle=self, **kwargs)

    def snapshot(self) -> dict:
        """JSON-ready counters and cache occupancy (``/build`` extras)."""
        return {
            "counters": dict(self.counters),
            "entries": len(self._matrices),
        }


def _kernel_python(
    d_graph: Any, d_base: Any, baseline: Graph, skip_udg_adjacent: bool
) -> StretchStats:
    """Pure-Python reduction, bit-identical to ``stretch_reference``.

    Same iteration and accumulation order as the reference loop, so the
    no-numpy fallback is *exact*, not merely within tolerance.
    """
    n = baseline.node_count
    total = 0.0
    worst = 0.0
    pairs = 0
    unreachable = 0
    for u in range(n):
        row_g = d_graph[u]
        row_b = d_base[u]
        for v in range(u + 1, n):
            base = row_b[v]
            if not (0.0 < base < math.inf):
                continue  # same node or baseline-disconnected pair
            if skip_udg_adjacent and baseline.has_edge(u, v):
                continue
            value = row_g[v]
            if value == math.inf:
                unreachable += 1
                continue
            ratio = value / base
            total += ratio
            if ratio > worst:
                worst = ratio
            pairs += 1
    if pairs == 0:
        return StretchStats(0.0, 0.0, 0, unreachable_pairs=unreachable)
    return StretchStats(
        avg=float(total / pairs), max=float(worst), pairs=pairs,
        unreachable_pairs=unreachable,
    )
