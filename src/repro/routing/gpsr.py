"""GPSR — Greedy Perimeter Stateless Routing (Karp & Kung).

Greedy geographic forwarding with face-routing recovery: when greedy
hits a local minimum at node ``x``, the packet switches to perimeter
(face) mode and walks faces by the right-hand rule until it reaches a
node strictly closer to the destination than ``x``, where greedy
resumes.  Delivery is guaranteed on connected *planar* graphs — the
property the paper's LDel(ICDS) backbone provides and the bare CDS
does not.
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.primitives import dist_sq
from repro.graphs.graph import Graph
from repro.routing.face import face_route
from repro.routing.greedy import RouteResult, greedy_route


def gpsr_route(
    graph: Graph,
    source: int,
    target: int,
    *,
    max_hops: Optional[int] = None,
) -> RouteResult:
    """Route from ``source`` to ``target`` with GPSR on ``graph``."""
    if max_hops is None:
        max_hops = 8 * graph.node_count + 64
    pos = graph.positions
    path: list[int] = [source]
    current = source
    budget = max_hops

    while budget > 0:
        leg = greedy_route(graph, current, target, max_hops=budget)
        path.extend(leg.path[1:])
        budget -= leg.hops
        if leg.delivered:
            return RouteResult(tuple(path), True, "delivered")
        if leg.reason == "hop-limit":
            break
        # Local minimum: enter perimeter mode from the stuck node.
        current = leg.path[-1]
        recovery = face_route(
            graph,
            current,
            target,
            max_hops=budget,
            resume_distance_sq=dist_sq(pos[current], pos[target]),
        )
        path.extend(recovery.path[1:])
        budget -= recovery.hops
        if recovery.delivered:
            return RouteResult(tuple(path), True, "delivered")
        if recovery.reason != "greedy-resume":
            return RouteResult(tuple(path), False, recovery.reason)
        current = recovery.path[-1]

    return RouteResult(tuple(path), False, "hop-limit")
