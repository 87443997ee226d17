"""The paper's power-attenuation model, as topology-level energy metrics.

Section I: "the power required to support a link between two nodes
separated by distance d is d^alpha, where alpha is a real constant
between 2 and 5."  A topology assigns each node the transmission
power of its longest incident link; these functions compute the
resulting per-node and network-wide energy figures so topologies can
be compared on the axis the sparseness is ultimately *for*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.graphs.graph import Graph

#: The paper's admissible path-loss exponent range.
MIN_ALPHA = 2.0
MAX_ALPHA = 5.0


@dataclass(frozen=True)
class PowerProfile:
    """Energy summary of one topology under the d^alpha model."""

    alpha: float
    #: Transmission power per node (longest incident link ^ alpha).
    node_power: tuple[float, ...]
    #: Sum of link costs (each undirected link charged once).
    total_link_energy: float

    @property
    def total_assigned_power(self) -> float:
        """Sum of per-node transmission powers (the radio's knob)."""
        return sum(self.node_power)

    @property
    def max_node_power(self) -> float:
        return max(self.node_power, default=0.0)

    @property
    def avg_node_power(self) -> float:
        if not self.node_power:
            return 0.0
        return sum(self.node_power) / len(self.node_power)


def _validate_alpha(alpha: float) -> None:
    if not MIN_ALPHA <= alpha <= MAX_ALPHA:
        raise ValueError(
            f"alpha={alpha} outside the paper's model range "
            f"[{MIN_ALPHA}, {MAX_ALPHA}]"
        )


def link_energy(graph: Graph, u: int, v: int, *, alpha: float = 2.0) -> float:
    """Energy to drive one link: ``|uv| ** alpha``."""
    _validate_alpha(alpha)
    return graph.edge_length(u, v) ** alpha


def power_profile(graph: Graph, *, alpha: float = 2.0) -> PowerProfile:
    """Energy summary of ``graph`` under exponent ``alpha``.

    A node with no incident links is assigned zero power (it listens
    only) — dominatees in the bare backbone graphs are the common
    case.
    """
    _validate_alpha(alpha)
    node_power = []
    for u in graph.nodes():
        longest = max(
            (graph.edge_length(u, v) for v in graph.neighbors(u)), default=0.0
        )
        node_power.append(longest**alpha)
    # fsum: exactly rounded, so the total does not depend on the
    # order edges() yields them in (sorted or set order).
    total = math.fsum(
        graph.edge_length(u, v) ** alpha for u, v in graph.edges()
    )
    return PowerProfile(
        alpha=alpha,
        node_power=tuple(node_power),
        total_link_energy=total,
    )


def power_saving_ratio(
    sparse: Graph, dense: Graph, *, alpha: float = 2.0
) -> float:
    """Assigned-power ratio dense/sparse: how much the topology saves.

    Both graphs must share a node set.  A ratio above 1 means the
    sparse topology lets radios run at lower power.
    """
    if sparse.node_count != dense.node_count:
        raise ValueError("graphs must share the node set")
    sparse_total = power_profile(sparse, alpha=alpha).total_assigned_power
    dense_total = power_profile(dense, alpha=alpha).total_assigned_power
    if sparse_total == 0.0:
        return float("inf") if dense_total > 0.0 else 1.0
    return dense_total / sparse_total
