"""A lightweight undirected graph embedded in the plane.

Every topology in this library (UDG, RNG, Gabriel, CDS, ICDS, the
localized Delaunay backbones, ...) is a :class:`Graph`: integer node
ids, a position per node, and an undirected edge set.  The class is
deliberately small — analysis lives in :mod:`repro.graphs.paths`,
:mod:`repro.graphs.planarity` and :mod:`repro.core.metrics`.

Two representations, one behaviour:

* **set-backed** — a set of sorted ``(u, v)`` pairs plus one adjacency
  set per node.  Graphs built from an edge iterable, and every graph
  under :func:`~repro.core.compat.numpy_disabled`, are set-backed.
* **array-backed** — :meth:`Graph.from_keys` adopts a sorted, unique
  int64 array of keys ``u * n + v`` (``u < v``) as the source of
  truth.  The construction kernels build graphs this way, by array
  concatenation, without one Python tuple per edge.  The pair set and
  the adjacency sets are built on the first scalar query
  (:meth:`has_edge`, :meth:`neighbors`, :meth:`degree`) or mutation;
  bulk queries (:meth:`edges`, :meth:`edge_count`, :meth:`degrees`,
  :meth:`subgraph`, ...) answer from the keys.  Any change to the edge
  set drops the keys and the cached SoA snapshot, so both always
  describe the current edges.

:meth:`edges` yields sorted pairs when the graph holds keys, and set
order otherwise; callers that need an order sort.

Positions are a :class:`Positions` list of :class:`Point`.  Every
graph built over another graph's ``positions`` shares that one object
instead of copying it, so a deployment's dozen graphs hold one list.
Positions are never mutated in place.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.core import compat
from repro.geometry.primitives import Point, dist


class Positions(list):
    """The node positions of a deployment, shared by all its graphs.

    A graph given a :class:`Positions` adopts it as is; any other
    sequence is copied into a fresh one, so a caller's own list is
    never aliased.
    """

    __slots__ = ()


def _as_positions(points: Sequence[Any]) -> Positions:
    """``points`` as a :class:`Positions` of :class:`Point` (shared if it is one)."""
    if type(points) is Positions:
        return points
    return Positions([p if type(p) is Point else Point(p[0], p[1]) for p in points])


class Graph:
    """Undirected graph over nodes ``0..n-1`` with planar positions."""

    #: The cached :class:`~repro.core.soa.SoaSnapshot` (see
    #: :func:`repro.core.soa.snapshot_for`); every edge-set change
    #: drops it, so a cached snapshot always describes the current edges.
    _soa_snapshot: Any = None
    #: Sorted unique int64 keys ``u * n + v`` (``u < v``), read-only;
    #: ``None`` while the graph is set-backed.
    _keys: Any = None
    #: The pair set and adjacency sets; ``None`` until materialized.
    _edge_pairs: Optional[set[tuple[int, int]]] = None
    _adj_sets: Optional[list[set[int]]] = None

    def __init__(
        self,
        positions: Sequence[Point],
        edges: Iterable[tuple[int, int]] = (),
        *,
        name: str = "graph",
    ) -> None:
        self.positions: Positions = _as_positions(positions)
        self.name = name
        self.add_edges_bulk(edges)

    @classmethod
    def from_keys(
        cls, positions: Sequence[Point], keys: Any, *, name: str = "graph"
    ) -> "Graph":
        """An array-backed graph over ``keys`` (see the module docstring).

        ``keys`` must be a sorted, unique int64 array of ``u * n + v``
        with ``u < v < n``; the graph keeps it read-only.
        """
        graph = cls.__new__(cls)
        graph.positions = _as_positions(positions)
        graph.name = name
        graph._adopt_keys(keys)
        return graph

    def __setstate__(self, state: dict) -> None:
        # Pickles from before the array-backed form hold the containers
        # under their old attribute names.
        if "_edges" in state:
            state["_edge_pairs"] = state.pop("_edges")
            state["_adj_sets"] = state.pop("_adj")
            state["positions"] = _as_positions(state["positions"])
        self.__dict__.update(state)

    # -- representation ------------------------------------------------

    def _materialize(self) -> None:
        """Build the pair set and adjacency sets (from the keys, if any)."""
        n = len(self.positions)
        keys = self._keys
        if keys is None or keys.shape[0] == 0:
            self._edge_pairs = set()
            self._adj_sets = [set() for _ in range(n)]
            return
        from repro.core.soa import _csr_from_edges

        np = compat.np
        us, vs = keys // n, keys % n
        self._edge_pairs = set(zip(us.tolist(), vs.tolist()))
        indptr, indices = _csr_from_edges(np, n, us, vs)
        ptr, ind = indptr.tolist(), indices.tolist()
        self._adj_sets = [set(ind[ptr[u] : ptr[u + 1]]) for u in range(n)]

    @property
    def _edges(self) -> set[tuple[int, int]]:
        if self._edge_pairs is None:
            self._materialize()
        return self._edge_pairs  # type: ignore[return-value]

    @property
    def _adj(self) -> list[set[int]]:
        if self._adj_sets is None:
            self._materialize()
        return self._adj_sets  # type: ignore[return-value]

    def _adopt_keys(self, keys: Any) -> None:
        """Make ``keys`` the edge set (read-only from now on)."""
        keys.flags.writeable = False
        self._keys = keys
        self._edge_pairs = self._adj_sets = None
        self._soa_snapshot = None

    def _changed(self) -> None:
        """The edge set changed: the keys and the snapshot are stale."""
        self._keys = None
        self._soa_snapshot = None

    def edge_keys(self) -> Any:
        """The sorted int64 keys ``u * n + v`` of the edge set (read-only).

        Computed from the pair set and kept when the graph is
        set-backed; ``None`` while numpy is absent or masked out, so
        callers take their set-backed reference path.
        """
        np = compat.get_numpy()
        if np is None:
            return None
        if self._keys is None:
            from repro.core.soa import pair_keys

            keys = pair_keys(np, len(self.positions), self._edges)
            keys.flags.writeable = False
            self._keys = keys
        return self._keys

    def _endpoints(self) -> tuple[Any, Any]:
        n = len(self.positions)
        return self._keys // n, self._keys % n

    # -- construction -------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Add undirected edge ``uv``.  Self-loops are rejected."""
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < len(self.positions) and 0 <= v < len(self.positions)):
            raise IndexError(f"edge ({u}, {v}) references a missing node")
        key = (u, v) if u < v else (v, u)
        edges = self._edges
        if key in edges:
            return
        edges.add(key)
        adj = self._adj_sets
        adj[u].add(v)  # type: ignore[index]
        adj[v].add(u)  # type: ignore[index]
        self._changed()

    def add_edges_bulk(self, edges: Iterable[tuple[int, int]]) -> None:
        """Add many edges at once; same validation as :meth:`add_edge`.

        Normalizes, deduplicates against the existing edge set, then
        updates adjacency in a single pass — the per-edge method-call
        and membership-test overhead of repeated :meth:`add_edge` calls
        dominates bulk construction of large topologies.  Every edge is
        validated before any is added, so a rejected batch leaves the
        graph unchanged.
        """
        fresh = {(u, v) if u < v else (v, u) for u, v in edges}
        if not fresh:
            return
        n = len(self.positions)
        for u, v in fresh:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u and v < n):
                raise IndexError(f"edge ({u}, {v}) references a missing node")
        fresh -= self._edges
        if not fresh:
            return
        adj = self._adj_sets
        for u, v in fresh:
            adj[u].add(v)  # type: ignore[index]
            adj[v].add(u)  # type: ignore[index]
        self._edges.update(fresh)
        self._changed()

    def remove_edge(self, u: int, v: int) -> None:
        """Remove undirected edge ``uv`` if present."""
        key = (u, v) if u < v else (v, u)
        edges = self._edges
        if key in edges:
            edges.discard(key)
            self._adj_sets[u].discard(v)  # type: ignore[index]
            self._adj_sets[v].discard(u)  # type: ignore[index]
            self._changed()

    def copy(self, *, name: str | None = None) -> "Graph":
        """Independent copy of the edge set; positions are shared."""
        if self._keys is not None:
            return Graph.from_keys(self.positions, self._keys, name=name or self.name)
        return Graph(self.positions, self._edges, name=name or self.name)

    def with_keys(self, extra: Any, *, name: str) -> "Graph":
        """A new array-backed graph: these edges plus those keyed ``extra``.

        Needs numpy; ``extra`` holds keys ``u * n + v`` (``u < v``), in
        any order and possibly repeated.
        """
        from repro.core.soa import sorted_unique

        np = compat.np
        keys = sorted_unique(np, np.concatenate([self.edge_keys(), extra]))
        return Graph.from_keys(self.positions, keys, name=name)

    # -- queries -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def edge_count(self) -> int:
        if self._keys is not None:
            return int(self._keys.shape[0])
        return len(self._edges)

    def nodes(self) -> range:
        """Iterable of node ids ``0..n-1``."""
        return range(len(self.positions))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterator over undirected edges as sorted ``(u, v)`` pairs.

        In ascending order when the graph holds keys; in set order
        otherwise.
        """
        if self._keys is not None:
            us, vs = self._endpoints()
            return zip(us.tolist(), vs.tolist())
        return iter(self._edges)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Immutable snapshot of the edge set."""
        if self._edge_pairs is not None:
            return frozenset(self._edge_pairs)
        return frozenset(self.edges())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether undirected edge ``uv`` is present."""
        key = (u, v) if u < v else (v, u)
        return key in self._edges

    def neighbors(self, u: int) -> frozenset[int]:
        """The adjacency set of ``u`` (immutable)."""
        return frozenset(self._adj[u])

    def degree(self, u: int) -> int:
        """Number of edges incident on ``u``."""
        return len(self._adj[u])

    def degrees(self) -> list[int]:
        """Degree of every node, indexed by node id."""
        if self._adj_sets is None and self._keys is not None:
            np = compat.np
            n = len(self.positions)
            us, vs = self._endpoints()
            return (np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)).tolist()
        return [len(adj) for adj in self._adj]

    def edge_length(self, u: int, v: int) -> float:
        """Euclidean length of the edge (or would-be edge) ``uv``."""
        return dist(self.positions[u], self.positions[v])

    def total_edge_length(self) -> float:
        """Sum of Euclidean lengths over all edges (exactly rounded)."""
        return math.fsum(self.edge_length(u, v) for u, v in self.edges())

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Whether this graph's edges are a subset of ``other``'s.

        Both graphs must be over the same node set for the comparison
        to be meaningful; positions are not compared.
        """
        if (self._keys is not None or other._keys is not None) and len(
            self.positions
        ) == len(other.positions):
            mine, theirs = self.edge_keys(), other.edge_keys()
            if mine is not None and theirs is not None:
                from repro.core.soa import sorted_member

                return bool(sorted_member(compat.np, theirs, mine).all())
        return self._edges <= other._edges

    def subgraph(self, keep: Iterable[int], *, name: str | None = None) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``keep``; returns (graph, old->new id map)."""
        kept = sorted(set(keep))
        remap = {old: new for new, old in enumerate(kept)}
        positions = [self.positions[old] for old in kept]
        name = name or f"{self.name}[sub]"
        if self._keys is not None:
            # Renumbering is monotone, so the kept keys stay sorted.
            np = compat.np
            new_id = np.full(len(self.positions), -1, dtype=np.int64)
            new_id[np.asarray(kept, dtype=np.int64)] = np.arange(len(kept))
            us, vs = self._endpoints()
            a, b = new_id[us], new_id[vs]
            inside = (a >= 0) & (b >= 0)
            return Graph.from_keys(positions, a[inside] * len(kept) + b[inside], name=name), remap
        sub = Graph(positions, name=name)
        sub.add_edges_bulk(
            (remap[u], remap[v]) for u, v in self._edges if u in remap and v in remap
        )
        return sub, remap

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(name={self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )
