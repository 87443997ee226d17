"""Structure-of-arrays snapshot shared across the whole pipeline.

The object layer (:class:`~repro.graphs.graph.Graph` and friends) is
the semantic reference, but before this module every consumer that
wanted flat data built its own conversion: the UDG construction walked
grid buckets point by point, the oracle re-sorted every adjacency list
into CSR, and the incremental path re-derived grid cells per tile.
:class:`SoaSnapshot` is the one conversion all of them share —
positions, CSR adjacency, bulk edge arrays and per-node grid cells,
produced once per deployment and cached on the graph.

Snapshot format contract (see ``docs/performance.md``):

* ``xs`` / ``ys`` — ``(n,)`` float64 node coordinates, index = node id;
* ``indptr`` / ``indices`` — CSR adjacency over **sorted** neighbor
  lists (``indices[indptr[u]:indptr[u+1]]`` ascending), int64;
* ``edge_u`` / ``edge_v`` — the undirected edge list with
  ``edge_u < edge_v``, lexicographically sorted, int64;
* ``cell_x`` / ``cell_y`` — the node's uniform-grid cell at cell size
  ``radius`` (``floor(x / radius)``), matching
  :meth:`repro.graphs.udg.GridIndex._cell_of` bit for bit; ``None``
  when the snapshot has no radius (plain graphs);
* :meth:`SoaSnapshot.degree_classes` — the CSR rows regrouped into
  fixed-width padded tables, one per degree class (built on first use
  and cached on the snapshot, so they go when the snapshot does).

Everything here degrades to ``None`` without numpy — callers keep the
pure-Python reference path; :func:`repro.core.compat.get_numpy` is the
single switch.

The ragged-array helpers (:func:`gather_csr_rows`,
:func:`segment_any`, :func:`cross_join`, :func:`segment_pairs`,
:func:`sorted_unique`, :func:`sorted_member`, :func:`pair_keys`,
:func:`triangle_edge_keys`, :func:`coordinates`) are shared by the vectorized
Gabriel / LDel / planarization kernels in :mod:`repro.topology` and
the connector election in :mod:`repro.protocols.cds_fast`.

Every per-row construction kernel (Gabriel, the LDel^1 proposals and
verdicts, the Algorithm 3 contest, the crossing test) runs its rows in
blocks of at most :data:`BLOCK_ENTRIES` gathered entries
(:func:`row_blocks`), so its temporaries stay bounded whatever the
deployment's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.core.compat import get_numpy

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from repro.graphs.graph import Graph


# -- ragged helpers -----------------------------------------------------------

#: Gathered entries per block of a construction kernel (see
#: :func:`row_blocks`).  Each row's arithmetic is independent of every
#: other row's, so the block size changes the peak memory and nothing
#: else: outputs and ``construction.*`` counters are the same at any
#: budget.
BLOCK_ENTRIES = 1 << 16


def row_blocks(np: Any, counts: Any) -> list[slice]:
    """Consecutive row slices whose ``counts`` sum to at most the budget.

    ``counts[i]`` is the number of entries row ``i`` gathers (its CSR
    row lengths, its member count, or a fixed width per pair).  Rows are
    taken greedily in order; a row longer than :data:`BLOCK_ENTRIES`
    forms its own block.  Concatenating per-block results in block
    order therefore reproduces the whole-array result row for row.
    """
    ends = np.cumsum(counts)
    blocks: list[slice] = []
    start, rows = 0, ends.shape[0]
    while start < rows:
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + BLOCK_ENTRIES, side="right"))
        stop = max(stop, start + 1)
        blocks.append(slice(start, stop))
        start = stop
    return blocks


def gather_csr_rows(np: Any, indptr: Any, indices: Any, rows: Any) -> tuple[Any, Any]:
    """Concatenate the CSR rows ``rows``; returns ``(owner, values)``.

    ``owner[i]`` is the position *within ``rows``* that ``values[i]``
    came from, so per-row reductions are one ``bincount`` away.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    owner = np.repeat(np.arange(rows.shape[0]), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, indices[starts[owner] + offsets]


def segment_any(np: Any, owner: Any, flags: Any, segments: int) -> Any:
    """Per-segment logical OR of ``flags`` grouped by ``owner``."""
    return np.bincount(owner[flags], minlength=segments) > 0


def sorted_unique(np: Any, keys: Any) -> Any:
    """Sorted distinct values of an integer key array.

    Equivalent to ``np.unique(keys)`` but pinned to the sort-and-diff
    strategy — numpy's hash-based unique kernel costs noticeably more
    than an int64 sort on the key volumes the construction core emits.
    """
    if keys.shape[0] == 0:
        return keys
    k = np.sort(keys)
    keep = np.empty(k.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(k[1:], k[:-1], out=keep[1:])
    return k[keep]


def coordinates(np: Any, positions: Sequence) -> tuple[Any, Any]:
    """``(xs, ys)`` float64 arrays of a sequence of ``(x, y)`` points."""
    n = len(positions)
    xs = np.fromiter((p[0] for p in positions), dtype=np.float64, count=n)
    ys = np.fromiter((p[1] for p in positions), dtype=np.float64, count=n)
    return xs, ys


def pair_keys(np: Any, n: int, pairs: Any) -> Any:
    """Sorted unique keys ``u * n + v`` (``u < v``) of undirected pairs.

    ``pairs`` is a sized iterable of ``(u, v)`` (a set, frozenset or
    list; either orientation).
    """
    keys = np.fromiter(
        (u * n + v if u < v else v * n + u for u, v in pairs),
        dtype=np.int64,
        count=len(pairs),
    )
    return sorted_unique(np, keys)


def triangle_edge_keys(np: Any, n: int, triangles: Any) -> Any:
    """Keys ``u * n + v`` of the three sides of every triangle (with repeats)."""
    t = np.sort(np.asarray(triangles, dtype=np.int64).reshape(-1, 3), axis=1)
    return np.concatenate(
        [t[:, 0] * n + t[:, 1], t[:, 1] * n + t[:, 2], t[:, 0] * n + t[:, 2]]
    )


def sorted_member(np: Any, sorted_keys: Any, keys: Any) -> Any:
    """Elementwise ``keys in sorted_keys`` by binary search.

    The sort-based counterpart of ``np.isin`` (see
    :func:`sorted_unique` for why the construction core avoids the
    hash kernels); ``sorted_keys`` must be ascending.
    """
    if sorted_keys.shape[0] == 0:
        return np.zeros(keys.shape[0], dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.shape[0] - 1)
    return sorted_keys[pos] == keys


def cross_join(
    np: Any, a_start: Any, a_count: Any, b_start: Any, b_count: Any
) -> tuple[Any, Any]:
    """All (a, b) index pairs of matched ragged segments.

    For each matched segment pair k, emits ``a_count[k] * b_count[k]``
    rows ``(a_start[k] + i, b_start[k] + j)``.
    """
    pair_counts = a_count * b_count
    total = int(pair_counts.sum())
    seg = np.repeat(np.arange(pair_counts.shape[0]), pair_counts)
    local = np.arange(total) - np.repeat(
        np.cumsum(pair_counts) - pair_counts, pair_counts
    )
    bc = b_count[seg]
    ai = local // bc
    bi = local - ai * bc
    return a_start[seg] + ai, b_start[seg] + bi


def segment_pairs(np: Any, starts: Any, sizes: Any) -> tuple[Any, Any]:
    """All index pairs ``(a, b)``, ``a < b``, within each segment.

    Segment ``k`` covers ``starts[k] .. starts[k] + sizes[k] - 1``.
    Emits its ``sizes[k] * (sizes[k] - 1) / 2`` pairs in row-major
    order: what :func:`cross_join` of a segment with itself keeps
    after ``a < b``, without building the other half.
    """
    total = int(sizes.sum())
    pos = np.repeat(starts, sizes) + (
        np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    )
    after = np.repeat(starts + sizes - 1, sizes) - pos
    a = np.repeat(pos, after)
    b = a + 1 + (np.arange(a.shape[0]) - np.repeat(np.cumsum(after) - after, after))
    return a, b


def bbox_grid_pairs(
    np: Any, x0: Any, y0: Any, x1: Any, y1: Any, cell: float
) -> tuple[Any, Any]:
    """Unique index pairs ``(i, j)``, ``i < j``, of boxes sharing a grid cell.

    The array analogue of the bounding-box bucket grids in
    :mod:`repro.graphs.planarity` and the triangle-pair prefilter of
    Algorithm 3: each box ``[x0, x1] x [y0, y1]`` covers the integer
    cell range ``floor(lo/cell)..floor(hi/cell)``; two boxes pair up
    when any cell coincides.  Like the scalar grids, this is a
    *superset* filter — the cell size affects only how many pairs come
    out, never which pairs survive the exact tests downstream.
    """
    count = x0.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if count < 2:
        return empty, empty
    cx_lo = np.floor(x0 / cell).astype(np.int64)
    cx_hi = np.floor(x1 / cell).astype(np.int64)
    cy_lo = np.floor(y0 / cell).astype(np.int64)
    cy_hi = np.floor(y1 / cell).astype(np.int64)
    sx = cx_hi - cx_lo + 1
    sy = cy_hi - cy_lo + 1
    cnt = sx * sy
    total = int(cnt.sum())
    seg = np.repeat(np.arange(count), cnt)
    local = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    sy_seg = sy[seg]
    lx = local // sy_seg
    ly = local - lx * sy_seg
    cxs = cx_lo[seg] + lx
    cys = cy_lo[seg] + ly
    ky = cys - cys.min()
    key = (cxs - cxs.min()) * (int(ky.max()) + 1) + ky
    order = np.argsort(key, kind="stable")
    skey = key[order]
    sid = seg[order]
    run_start = np.empty(total, dtype=bool)
    run_start[0] = True
    np.not_equal(skey[1:], skey[:-1], out=run_start[1:])
    starts = np.nonzero(run_start)[0]
    counts = np.diff(np.append(starts, total))
    left, right = segment_pairs(np, starts, counts)
    a = sid[left]
    b = sid[right]
    pk = sorted_unique(np, np.minimum(a, b) * count + np.maximum(a, b))
    return pk // count, pk % count


def udg_edge_arrays(np: Any, xs: Any, ys: Any, radius: float) -> tuple[Any, Any]:
    """Bulk UDG edge enumeration: all pairs within ``radius``.

    The array analogue of :meth:`repro.graphs.udg.GridIndex.pairs_within`
    — same cell size, same inclusive ``dist_sq <= r**2`` test (the
    elementwise float arithmetic is IEEE-identical to the scalar
    reference, so the edge *set* is bit-identical).  Returns the
    lexicographically sorted ``(edge_u, edge_v)`` arrays, ``u < v``.
    """
    n = xs.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if n < 2:
        return empty, empty
    cell_x = np.floor(xs / radius).astype(np.int64)
    cell_y = np.floor(ys / radius).astype(np.int64)
    # Pack (cx, cy) into one collision-free key; the +1 shift keeps the
    # dy = -1 neighbor offsets inside the padded row range.
    sx = cell_x - cell_x.min() + 1
    sy = cell_y - cell_y.min() + 1
    span_y = int(sy.max()) + 2
    key = sx * span_y + sy
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_start[1:])
    starts = np.nonzero(run_start)[0]
    uniq = sorted_keys[starts]
    counts = np.diff(np.append(starts, n))

    # Forward half-window over cells, mirroring pairs_within: the cell
    # with itself, then the four lexicographically positive offsets.
    left_parts = []
    right_parts = []
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        target = uniq + dx * span_y + dy
        pos = np.searchsorted(uniq, target)
        pos_safe = np.minimum(pos, uniq.shape[0] - 1)
        valid = uniq[pos_safe] == target
        a_idx = np.nonzero(valid)[0]
        if a_idx.shape[0] == 0:
            continue
        b_idx = pos_safe[a_idx]
        if dx == 0 and dy == 0:
            left, right = segment_pairs(np, starts[a_idx], counts[a_idx])
        else:
            left, right = cross_join(
                np, starts[a_idx], counts[a_idx], starts[b_idx], counts[b_idx]
            )
        left_parts.append(left)
        right_parts.append(right)
    if not left_parts:
        return empty, empty
    i = order[np.concatenate(left_parts)]
    j = order[np.concatenate(right_parts)]
    dxs = xs[i] - xs[j]
    dys = ys[i] - ys[j]
    close = dxs * dxs + dys * dys <= radius * radius
    i, j = i[close], j[close]
    # Each pair comes out once, so sorting the keys u * n + v sorts
    # the edges by (u, v).
    keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    return keys // n, keys % n


def _csr_from_edges(np: Any, n: int, edge_u: Any, edge_v: Any) -> tuple[Any, Any]:
    """Sorted CSR adjacency from an undirected edge list.

    Precondition: ``edge_u < edge_v`` elementwise and the edges sorted
    by ``(u, v)``, as :func:`udg_edge_arrays` and ``Graph.edge_keys()``
    give them.  Then row ``x`` is its lower neighbours (the ``u`` of
    edges ending at ``x``, ascending after one stable argsort of
    ``edge_v``) followed by its upper neighbours (the ``v`` of edges
    starting at ``x``, already ascending and contiguous).
    """
    m = edge_u.shape[0]
    lower = np.bincount(edge_v, minlength=n)
    upper = np.bincount(edge_u, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lower + upper, out=indptr[1:])
    # Entry k of a group that starts at flat index s goes to row slot
    # k - s, so each group's offset is its row start minus s.
    lower_off = indptr[:-1] - (np.cumsum(lower) - lower)
    upper_off = indptr[:-1] + lower - (np.cumsum(upper) - upper)
    by_v = np.argsort(edge_v, kind="stable")
    ranks = np.arange(m)
    indices = np.empty(2 * m, dtype=np.int64)
    indices[lower_off[edge_v[by_v]] + ranks] = edge_u[by_v]
    indices[upper_off[edge_u] + ranks] = edge_v
    return indptr, indices


# -- degree-class neighbour tables -------------------------------------------


@dataclass
class DegreeClasses:
    """A snapshot's CSR rows as padded fixed-width tables.

    A node of degree ``d >= 1`` belongs to class ``c = ceil(log2 d)``;
    ``entries[c]`` holds one row per such node (``node_row`` gives its
    index there): the node's CSR entry ids in ascending order, padded
    to width ``2**c`` with the sentinel entry ``pad`` (one past the
    last real entry).  So a step over the queries of one class is a
    dense gather plus a reduction along ``axis=1``, and the first
    minimum over the ascending slots is the lowest neighbour id — the
    sliced-ELL layout of Kreutzer et al. (*SELL-C-sigma*, 2014) with
    power-of-two slice widths, which keeps the padding under 2x the
    CSR for any degree distribution.

    ``coords[c]`` is ``entries[c]``'s neighbour positions as
    ``x + 1j * y`` (the sentinel sits at ``inf + 1j * inf``), so a
    step's coordinates are one row gather; ``neighbor`` maps an entry
    id to its neighbour (``-1`` at ``pad``).  A key other than a plain
    squared distance must mask ``pad`` slots itself: an infinite
    coordinate turns angles and cosines into NaN, and ``argmin``
    returns the first NaN.
    """

    #: Class per node, ``-1`` for isolated nodes (int8).
    node_class: Any
    #: Row of each node in its class's tables.
    node_row: Any
    #: Per class ``c``: ``(count, 2**c)`` int64 entry ids (empty when
    #: no node has that class).
    entries: list
    #: Per class ``c``: ``(count, 2**c)`` complex128 neighbour positions.
    coords: list
    #: The sentinel entry id.
    pad: int
    #: ``(pad + 1,)`` neighbour id per entry id.
    neighbor: Any

    @classmethod
    def build(cls, np: Any, snap: "SoaSnapshot") -> "DegreeClasses":
        deg = snap.degrees()
        pad = int(snap.indices.shape[0])
        top = int(deg.max()) if deg.shape[0] else 0
        widths = 1 << np.arange(max(1, top.bit_length() + 1), dtype=np.int64)
        # ceil(log2 d): the first power of two that is >= d.
        node_class = np.searchsorted(widths, deg).astype(np.int8)
        node_class[deg == 0] = -1
        node_row = np.zeros(snap.n, dtype=np.int64)
        neighbor = np.append(snap.indices, -1)
        at = np.empty(pad + 1, dtype=np.complex128)
        at.real[:pad] = snap.xs[snap.indices]
        at.imag[:pad] = snap.ys[snap.indices]
        at[pad] = complex(np.inf, np.inf)
        entries, coords = [], []
        classes = int(node_class.max()) + 1 if pad else 0
        for c in range(classes):
            nodes = np.nonzero(node_class == c)[0]
            node_row[nodes] = np.arange(nodes.shape[0])
            slots = np.arange(1 << c, dtype=np.int64)
            table = snap.indptr[nodes][:, None] + slots
            table[slots >= deg[nodes][:, None]] = pad
            entries.append(table)
            coords.append(at[table])
        return cls(node_class, node_row, entries, coords, pad, neighbor)


# -- the snapshot -------------------------------------------------------------


@dataclass
class SoaSnapshot:
    """Flat arrays for one embedded graph (see module docstring)."""

    n: int
    radius: Optional[float]
    xs: Any
    ys: Any
    indptr: Any
    indices: Any
    edge_u: Any
    edge_v: Any
    cell_x: Any = None
    cell_y: Any = None
    _classes: Optional[DegreeClasses] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def edge_count(self) -> int:
        return int(self.edge_u.shape[0])

    def degree_classes(self) -> DegreeClasses:
        """The degree-class neighbour tables (built once, then cached)."""
        if self._classes is None:
            self._classes = DegreeClasses.build(get_numpy(), self)
        return self._classes

    def neighbors_of(self, u: int) -> Any:
        """The sorted neighbor ids of ``u`` (array view)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degrees(self) -> Any:
        return self.indptr[1:] - self.indptr[:-1]

    def directed_keys(self) -> Any:
        """``u * n + v`` for every CSR entry ``u -> v``.

        Globally ascending (rows in order, each row sorted), so
        :func:`sorted_member` answers "is ``uv`` an edge" in O(log E).
        """
        np = get_numpy()
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        return rows * self.n + self.indices

    @classmethod
    def from_points(
        cls, positions: Sequence, radius: float
    ) -> Optional["SoaSnapshot"]:
        """Build a snapshot (including the UDG edge set) from raw points.

        Returns ``None`` when numpy is unavailable or masked out.
        """
        np = get_numpy()
        if np is None:
            return None
        n = len(positions)
        xs, ys = coordinates(np, positions)
        edge_u, edge_v = udg_edge_arrays(np, xs, ys, radius)
        indptr, indices = _csr_from_edges(np, n, edge_u, edge_v)
        return cls(
            n=n,
            radius=radius,
            xs=xs,
            ys=ys,
            indptr=indptr,
            indices=indices,
            edge_u=edge_u,
            edge_v=edge_v,
            cell_x=np.floor(xs / radius).astype(np.int64) if radius else None,
            cell_y=np.floor(ys / radius).astype(np.int64) if radius else None,
        )

    @classmethod
    def from_graph(cls, graph: "Graph", radius: Optional[float] = None) -> Optional["SoaSnapshot"]:
        """Snapshot an already-built graph (adopts its edge keys)."""
        np = get_numpy()
        if np is None:
            return None
        n = graph.node_count
        xs, ys = coordinates(np, graph.positions)
        keys = graph.edge_keys()
        edge_u, edge_v = keys // n, keys % n
        indptr, indices = _csr_from_edges(np, n, edge_u, edge_v)
        has_r = radius is not None and radius > 0.0
        return cls(
            n=n,
            radius=radius,
            xs=xs,
            ys=ys,
            indptr=indptr,
            indices=indices,
            edge_u=edge_u,
            edge_v=edge_v,
            cell_x=np.floor(xs / radius).astype(np.int64) if has_r else None,
            cell_y=np.floor(ys / radius).astype(np.int64) if has_r else None,
        )


def snapshot_for(graph: "Graph") -> Optional[SoaSnapshot]:
    """The graph's cached :class:`SoaSnapshot`, built on first use.

    The cache rides on the instance (``graph._soa_snapshot``) so every
    consumer — construction kernels, the distance oracle, routing
    experiments — shares one conversion.  Every
    :class:`~repro.graphs.graph.Graph` method that changes the edge set
    drops the cached snapshot, so a cached one is always current.
    """
    if not numpy_ready():
        return None
    snap = getattr(graph, "_soa_snapshot", None)
    if snap is not None:
        return snap
    snap = SoaSnapshot.from_graph(graph, radius=getattr(graph, "radius", None))
    if snap is not None:
        graph._soa_snapshot = snap
    return snap


def numpy_ready() -> bool:
    """Shorthand for :func:`repro.core.compat.numpy_active`."""
    return get_numpy() is not None
