"""Planarity of *embedded* graphs: do any two edges properly cross?

The paper's planarity claim is geometric — LDel(ICDS) drawn with
straight-line edges at the node positions has no two crossing edges —
so we test exactly that, not abstract (Kuratowski) planarity.  A
uniform grid over edge bounding boxes keeps the test near-linear for
the sparse graphs this library produces.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from repro.geometry.predicates import segments_cross
from repro.graphs.graph import Graph


#: Absolute slack on per-edge bounding boxes, matching the 1e-12
#: tolerance of :func:`repro.geometry.predicates.on_segment` so the
#: box rejection can never contradict ``segments_cross`` (a proper
#: crossing implies exactly-overlapping boxes; the collinear-touch
#: branch implies overlap within the ``on_segment`` slack).
_EDGE_BBOX_SLACK = 1e-12


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


def crossing_index_pairs(
    np: Any, xs: Any, ys: Any, eu: Any, ev: Any
) -> tuple[Any, Any, int, int]:
    """Index pairs ``(i, j)``, ``i < j``, of segments that properly cross.

    Segment ``k`` runs from node ``eu[k]`` to node ``ev[k]`` (ids into
    ``xs, ys``).  Candidate pairs come from a uniform grid over the
    segments' bounding boxes, widened by :data:`_EDGE_BBOX_SLACK`,
    whose cell is the mean segment length.  Pairs sharing a node id are
    dropped, and so are pairs whose widened boxes miss each other (most
    of what the grid offers); the rest get the exact
    :func:`~repro.geometry.predicates.segments_cross` test in blocks
    (:func:`~repro.core.soa.row_blocks`).  The cell size only controls
    how many candidates the exact test sees, never which pairs cross
    (two crossing segments' widened boxes meet, so they share a cell),
    so this path is free to bin with array arithmetic while the scalar
    path keeps its incremental average.  Returns the crossing pairs,
    sorted, plus the number of pairs the grid offered and the number
    given the exact test.
    """
    from repro.core.soa import bbox_grid_pairs, row_blocks
    from repro.geometry.predicates import segments_cross_batch

    ux, uy, vx, vy = xs[eu], ys[eu], xs[ev], ys[ev]
    lengths = np.hypot(ux - vx, uy - vy)
    cell = max(float(lengths.sum()) / max(eu.shape[0], 1), 1e-9)
    slack = _EDGE_BBOX_SLACK
    x0, y0 = np.minimum(ux, vx), np.minimum(uy, vy)
    x1, y1 = np.maximum(ux, vx), np.maximum(uy, vy)
    pi, pj = bbox_grid_pairs(np, x0 - slack, y0 - slack, x1 + slack, y1 + slack, cell)
    offered = int(pi.shape[0])
    skip = (
        (eu[pi] == eu[pj])
        | (eu[pi] == ev[pj])
        | (ev[pi] == eu[pj])
        | (ev[pi] == ev[pj])
        | (x1[pi] + slack < x0[pj] - slack)
        | (x1[pj] + slack < x0[pi] - slack)
        | (y1[pi] + slack < y0[pj] - slack)
        | (y1[pj] + slack < y0[pi] - slack)
    )
    pi, pj = pi[~skip], pj[~skip]
    cross = np.zeros(pi.shape[0], dtype=bool)
    for block in row_blocks(np, np.ones(pi.shape[0], dtype=np.int64)):
        bi, bj = pi[block], pj[block]
        cross[block] = segments_cross_batch(
            ux[bi], uy[bi], vx[bi], vy[bi], ux[bj], uy[bj], vx[bj], vy[bj]
        )
    return pi[cross], pj[cross], offered, int(pi.shape[0])


def _vector_crossing_pairs(
    graph: Graph,
) -> "list[tuple[tuple[int, int], tuple[int, int]]] | None":
    """:func:`crossing_index_pairs` over the edge keys; ``None`` when
    numpy is masked."""
    from repro.core.compat import get_numpy
    from repro.core.soa import coordinates

    np = get_numpy()
    if np is None:
        return None
    keys = graph.edge_keys()
    if keys.shape[0] < 2:
        return []
    n = graph.node_count
    xs, ys = coordinates(np, graph.positions)
    eu, ev = keys // n, keys % n
    pi, pj, _, _ = crossing_index_pairs(np, xs, ys, eu, ev)
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
