"""Planarity of *embedded* graphs: do any two edges properly cross?

The paper's planarity claim is geometric — LDel(ICDS) drawn with
straight-line edges at the node positions has no two crossing edges —
so we test exactly that, not abstract (Kuratowski) planarity.  A
uniform grid over edge bounding boxes keeps the test near-linear for
the sparse graphs this library produces.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.geometry.predicates import segments_cross
from repro.graphs.graph import Graph


def _candidate_pairs(graph: Graph) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Edge pairs whose bounding boxes share a grid cell."""
    edges = list(graph.edges())
    if not edges:
        return
    avg_len = max(
        sum(graph.edge_length(u, v) for u, v in edges) / len(edges), 1e-9
    )
    cell = avg_len
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, (u, v) in enumerate(edges):
        pu, pv = graph.positions[u], graph.positions[v]
        x_lo = math.floor(min(pu[0], pv[0]) / cell)
        x_hi = math.floor(max(pu[0], pv[0]) / cell)
        y_lo = math.floor(min(pu[1], pv[1]) / cell)
        y_hi = math.floor(max(pu[1], pv[1]) / cell)
        for cx in range(x_lo, x_hi + 1):
            for cy in range(y_lo, y_hi + 1):
                buckets.setdefault((cx, cy), []).append(idx)
    reported: set[tuple[int, int]] = set()
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                key = (min(i, j), max(i, j))
                if key in reported:
                    continue
                reported.add(key)
                yield edges[i], edges[j]


def _vector_crossing_pairs(
    graph: Graph,
) -> "list[tuple[tuple[int, int], tuple[int, int]]] | None":
    """Vectorized crossing enumeration; ``None`` when numpy is masked.

    The grid cell size only controls how many candidate pairs the
    exact test sees, never which pairs cross (two crossing edges share
    the cell containing their intersection point at any cell size), so
    this path is free to bin with array arithmetic while the scalar
    path keeps its incremental average — the crossing *set* is
    identical either way, which is all the deterministic resolution
    sweep consumes.
    """
    from repro.core.compat import get_numpy
    from repro.core.soa import bbox_grid_pairs, coordinates
    from repro.geometry.predicates import segments_cross_batch

    np = get_numpy()
    if np is None:
        return None
    keys = graph.edge_keys()
    if keys.shape[0] < 2:
        return []
    n = graph.node_count
    xs, ys = coordinates(np, graph.positions)
    eu, ev = keys // n, keys % n
    ux, uy, vx, vy = xs[eu], ys[eu], xs[ev], ys[ev]
    lengths = np.hypot(ux - vx, uy - vy)
    cell = max(float(lengths.sum()) / keys.shape[0], 1e-9)
    pi, pj = bbox_grid_pairs(
        np,
        np.minimum(ux, vx), np.minimum(uy, vy),
        np.maximum(ux, vx), np.maximum(uy, vy),
        cell,
    )
    share = (
        (eu[pi] == eu[pj])
        | (eu[pi] == ev[pj])
        | (ev[pi] == eu[pj])
        | (ev[pi] == ev[pj])
    )
    pi, pj = pi[~share], pj[~share]
    cross = segments_cross_batch(
        ux[pi], uy[pi], vx[pi], vy[pi], ux[pj], uy[pj], vx[pj], vy[pj]
    )
    pi, pj = pi[cross], pj[cross]
    return list(zip(
        zip(eu[pi].tolist(), ev[pi].tolist()), zip(eu[pj].tolist(), ev[pj].tolist())
    ))


def crossing_pairs(graph: Graph) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All pairs of edges that properly cross in the embedding."""
    fast = _vector_crossing_pairs(graph)
    if fast is not None:
        return fast
    crossings: list[tuple[tuple[int, int], tuple[int, int]]] = []
    pos = graph.positions
    for (u1, v1), (u2, v2) in _candidate_pairs(graph):
        if len({u1, v1, u2, v2}) < 4:
            continue  # edges sharing an endpoint never *cross*
        if segments_cross(pos[u1], pos[v1], pos[u2], pos[v2]):
            crossings.append(((u1, v1), (u2, v2)))
    return crossings


def is_planar_embedding(graph: Graph) -> bool:
    """Whether the straight-line embedding of ``graph`` is crossing-free."""
    fast = _vector_crossing_pairs(graph)
    if fast is not None:
        return not fast
    pos = graph.positions
    for (u1, v1), (u2, v2) in _candidate_pairs(graph):
        if len({u1, v1, u2, v2}) < 4:
            continue
        if segments_cross(pos[u1], pos[v1], pos[u2], pos[v2]):
            return False
    return True
