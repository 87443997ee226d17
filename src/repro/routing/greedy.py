"""Greedy geographic forwarding.

Each node forwards the packet to its neighbor closest to the
destination, as long as that strictly decreases the distance; a *local
minimum* (no neighbor closer than the current node) stalls the route.
Greedy is the fast path of GPSR; the planar backbone exists so the
perimeter fallback can rescue exactly these stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.primitives import dist_sq
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class RouteResult:
    """Outcome of a routing attempt."""

    path: tuple[int, ...]
    delivered: bool
    #: Why the route ended: "delivered", "stuck" (local minimum),
    #: "loop" (face routing revisited a directed edge), "hop-limit".
    reason: str

    @property
    def hops(self) -> int:
        return max(len(self.path) - 1, 0)

    def _edge_metric_sum(self, graph: Graph, alpha: float) -> float:
        """Sum of per-edge ``length ** alpha`` along the path, cached.

        Computed once per ``(graph, alpha)`` from the graph's
        coordinate arrays (the shared SoA snapshot when numpy is up,
        the position list otherwise) with the same sequential
        ``math.hypot`` accumulation as ``graph.edge_length`` — so the
        cached value is bit-identical to the old per-call recomputation
        while repeated ``length()`` / ``as_dict()`` calls stop paying
        O(hops) graph lookups every time.
        """
        cache = self.__dict__.setdefault("_metric_cache", {})
        hit = cache.get(alpha)
        if hit is not None and hit[0] is graph:
            return hit[1]
        # Reuse the graph's SoA snapshot only when one is already
        # cached (edge changes drop it) — building one just for a
        # length query would cost O(E log E) on a cold graph.
        snap = getattr(graph, "_soa_snapshot", None)
        total = 0.0
        if snap is not None:
            xs, ys = snap.xs, snap.ys
            for a, b in zip(self.path, self.path[1:]):
                step = math.hypot(xs[a] - xs[b], ys[a] - ys[b])
                total += step if alpha == 1.0 else step ** alpha
        else:
            positions = graph.positions
            for a, b in zip(self.path, self.path[1:]):
                pa = positions[a]
                pb = positions[b]
                step = math.hypot(pa[0] - pb[0], pa[1] - pb[1])
                total += step if alpha == 1.0 else step ** alpha
        cache[alpha] = (graph, total)
        return total

    def length(self, graph: Graph) -> float:
        """Euclidean length of the path (cached per graph)."""
        return self._edge_metric_sum(graph, 1.0)

    def power_cost(self, graph: Graph, alpha: float = 2.0) -> float:
        """Total transmission energy ``sum(len(e) ** alpha)`` of the path.

        The routing ablation's energy metric: each hop costs the edge
        length raised to the path-loss exponent ``alpha`` (2 for free
        space, up to 4 indoors).  Cached per ``(graph, alpha)`` like
        :meth:`length`.
        """
        return self._edge_metric_sum(graph, alpha)

    def as_dict(self, graph: Graph | None = None) -> dict:
        """JSON-ready form; ``graph`` supplies edge lengths when given."""
        out: dict = {
            "delivered": self.delivered,
            "reason": self.reason,
            "hops": self.hops,
            "path": list(self.path),
        }
        out["length"] = (
            self.length(graph) if graph is not None and self.delivered else None
        )
        return out


def greedy_route(
    graph: Graph, source: int, target: int, *, max_hops: int | None = None
) -> RouteResult:
    """Route by always moving to the neighbor closest to ``target``.

    Purely local: each step uses only the current node's neighbor
    positions and the target position.
    """
    if max_hops is None:
        max_hops = 4 * graph.node_count + 16
    target_pos = graph.positions[target]
    path = [source]
    current = source
    for _ in range(max_hops):
        if current == target:
            return RouteResult(tuple(path), True, "delivered")
        current_d = dist_sq(graph.positions[current], target_pos)
        best = None
        best_d = current_d
        for v in sorted(graph.neighbors(current)):
            d = dist_sq(graph.positions[v], target_pos)
            if d < best_d:
                best = v
                best_d = d
        if best is None:
            return RouteResult(tuple(path), False, "stuck")
        current = best
        path.append(current)
    if current == target:
        return RouteResult(tuple(path), True, "delivered")
    return RouteResult(tuple(path), False, "hop-limit")
