"""A lightweight undirected graph embedded in the plane.

Every topology in this library (UDG, RNG, Gabriel, CDS, ICDS, the
localized Delaunay backbones, ...) is a :class:`Graph`: integer node
ids, a position per node, and an undirected edge set kept both as a set
of sorted pairs and as adjacency lists.  The class is deliberately
small — analysis lives in :mod:`repro.graphs.paths`,
:mod:`repro.graphs.planarity` and :mod:`repro.core.metrics`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.geometry.primitives import Point, dist


class Graph:
    """Undirected graph over nodes ``0..n-1`` with planar positions."""

    #: The cached :class:`~repro.core.soa.SoaSnapshot` (see
    #: :func:`repro.core.soa.snapshot_for`); every edge-set change
    #: drops it, so a cached snapshot always describes the current edges.
    _soa_snapshot: Any = None

    def __init__(
        self,
        positions: Sequence[Point],
        edges: Iterable[tuple[int, int]] = (),
        *,
        name: str = "graph",
    ) -> None:
        self.positions: list[Point] = [Point(p[0], p[1]) for p in positions]
        self.name = name
        self._adj: list[set[int]] = [set() for _ in self.positions]
        self._edges: set[tuple[int, int]] = set()
        self.add_edges_bulk(edges)

    # -- construction -------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Add undirected edge ``uv``.  Self-loops are rejected."""
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < len(self.positions) and 0 <= v < len(self.positions)):
            raise IndexError(f"edge ({u}, {v}) references a missing node")
        key = (u, v) if u < v else (v, u)
        if key in self._edges:
            return
        self._edges.add(key)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._soa_snapshot = None

    def add_edges_bulk(self, edges: Iterable[tuple[int, int]]) -> None:
        """Add many edges at once; same validation as :meth:`add_edge`.

        Normalizes, deduplicates against the existing edge set, then
        updates adjacency in a single pass — the per-edge method-call
        and membership-test overhead of repeated :meth:`add_edge` calls
        dominates bulk construction of large topologies.
        """
        fresh = {(u, v) if u < v else (v, u) for u, v in edges}
        fresh -= self._edges
        if not fresh:
            return
        n = len(self.positions)
        adj = self._adj
        for u, v in fresh:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u and v < n):
                raise IndexError(f"edge ({u}, {v}) references a missing node")
            adj[u].add(v)
            adj[v].add(u)
        self._edges |= fresh
        self._soa_snapshot = None

    def remove_edge(self, u: int, v: int) -> None:
        """Remove undirected edge ``uv`` if present."""
        key = (u, v) if u < v else (v, u)
        if key in self._edges:
            self._edges.discard(key)
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._soa_snapshot = None

    def copy(self, *, name: str | None = None) -> "Graph":
        """Deep copy (positions are shared immutable points)."""
        return Graph(self.positions, self._edges, name=name or self.name)

    # -- queries -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def nodes(self) -> range:
        """Iterable of node ids ``0..n-1``."""
        return range(len(self.positions))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterator over undirected edges as sorted ``(u, v)`` pairs."""
        return iter(self._edges)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Immutable snapshot of the edge set."""
        return frozenset(self._edges)

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
        return [len(adj) for adj in self._adj]

    def edge_length(self, u: int, v: int) -> float:
        """Euclidean length of the edge (or would-be edge) ``uv``."""
        return dist(self.positions[u], self.positions[v])

    def total_edge_length(self) -> float:
        """Sum of Euclidean lengths over all edges."""
        return sum(self.edge_length(u, v) for u, v in self._edges)

    def is_subgraph_of(self, other: "Graph") -> bool:
        """Whether this graph's edges are a subset of ``other``'s.

        Both graphs must be over the same node set for the comparison
        to be meaningful; positions are not compared.
        """
        return self._edges <= other._edges

    def subgraph(self, keep: Iterable[int], *, name: str | None = None) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``keep``; returns (graph, old->new id map)."""
        kept = sorted(set(keep))
        remap = {old: new for new, old in enumerate(kept)}
        sub = Graph(
            [self.positions[old] for old in kept],
            name=name or f"{self.name}[sub]",
        )
        for u, v in self._edges:
            if u in remap and v in remap:
                sub.add_edge(remap[u], remap[v])
        return sub, remap

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(name={self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )
