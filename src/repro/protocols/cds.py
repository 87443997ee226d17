"""The CDS family: CDS, CDS', ICDS, ICDS' from the two protocol phases.

Definitions (paper Section III-A/B):

* **CDS** — dominators plus connectors, with exactly the edges the
  connector elections certified (the backbone);
* **CDS'** — CDS plus every dominatee-to-dominator edge (the extended
  backbone every node can reach);
* **ICDS** — the radio graph *induced* on the CDS node set (every
  link between backbone nodes; for a plain UDG, every pair at most the
  radius apart);
* **ICDS'** — ICDS plus every dominatee-to-dominator edge.

Building ICDS/ICDS' after CDS costs one extra broadcast per node — the
``Status`` message telling neighbors whether the sender is a
dominator, dominatee or connector — which we charge explicitly so the
communication benchmarks reproduce the paper's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.compat import get_numpy
from repro.core.soa import pair_keys, sorted_unique
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.clustering import (
    ClusteringOutcome,
    PriorityFn,
    run_clustering,
)
from repro.protocols.cds_fast import dominator_pairs, fast_clustering, fast_connectors
from repro.protocols.connectors import ConnectorOutcome, run_connectors
from repro.sim.messages import STATUS
from repro.sim.stats import MessageStats

#: Construction modes: ``protocol`` replays the message-passing
#: reference implementation round by round; ``fast`` computes the same
#: fixed point directly (see :mod:`repro.protocols.cds_fast`) with
#: bit-identical output.
MODES = ("protocol", "fast")


@dataclass(frozen=True)
class CDSFamily:
    """All four CDS-derived graphs plus the roles and the ledger."""

    udg: UnitDiskGraph
    dominators: frozenset[int]
    connectors: frozenset[int]
    cds: Graph
    cds_prime: Graph
    icds: Graph
    icds_prime: Graph
    clustering: ClusteringOutcome
    connector_outcome: ConnectorOutcome
    #: Cumulative message ledger: clustering + connectors + Status.
    stats: MessageStats

    @property
    def backbone_nodes(self) -> frozenset[int]:
        return self.dominators | self.connectors

    @property
    def dominatees(self) -> frozenset[int]:
        return frozenset(self.udg.nodes()) - self.backbone_nodes


def _dominatee_edges(clustering: ClusteringOutcome) -> list[tuple[int, int]]:
    edges = []
    for dominatee, doms in clustering.dominators_of.items():
        for d in doms:
            edges.append((dominatee, d))
    return edges


def dominatee_edge_keys(np: Any, n: int, clustering: ClusteringOutcome) -> Any:
    """Sorted keys ``u * n + v`` of every dominatee-to-dominator edge."""
    holder, dom = dominator_pairs(np, clustering)
    return sorted_unique(np, np.minimum(holder, dom) * n + np.maximum(holder, dom))


def induced_udg_subgraph(udg: UnitDiskGraph, nodes: frozenset[int], name: str) -> Graph:
    """Radio links among ``nodes`` (original node ids, full vertex set).

    Filters the UDG's own links instead of re-testing the disk rule, so
    the gray-zone links a quasi-UDG dropped stay dropped.  With numpy
    this is a membership mask over the UDG's edge keys.
    """
    keys = udg.edge_keys()
    if keys is not None:
        np = get_numpy()  # edge_keys() is None while numpy is masked out
        n = udg.node_count
        member = np.zeros(n, dtype=bool)
        member[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
        return Graph.from_keys(
            udg.positions, keys[member[keys // n] & member[keys % n]], name=name
        )
    graph = Graph(udg.positions, name=name)
    members = set(nodes)
    graph.add_edges_bulk(
        (u, v) for u in members for v in udg.neighbors(u) if v > u and v in members
    )
    return graph


def build_cds_family(
    udg: UnitDiskGraph,
    *,
    priority: Optional[PriorityFn] = None,
    election: str = "smallest-id",
    clustering: Optional[ClusteringOutcome] = None,
    mode: str = "protocol",
) -> CDSFamily:
    """Run clustering + Algorithm 1 and materialize the CDS family.

    Pass a precomputed ``clustering`` outcome to reuse it (the ablation
    benchmarks sweep the connector rule against a fixed clustering).
    ``mode="fast"`` computes the protocols' fixed point directly with
    bit-identical output (same sets, rounds, and message ledgers).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    stats = MessageStats()
    if clustering is None:
        if mode == "fast":
            clustering = fast_clustering(udg, priority=priority)
        else:
            clustering = run_clustering(udg, priority=priority)
    stats.merge(clustering.stats)

    if mode == "fast":
        connector_outcome = fast_connectors(udg, clustering, election=election)
    else:
        connector_outcome = run_connectors(udg, clustering, election=election)
    stats.merge(connector_outcome.stats)

    # One Status broadcast per node announces its final role so that
    # every backbone node can locally assemble its ICDS links.
    stats.record_counts(STATUS, udg.nodes(), 1)

    backbone = clustering.dominators | connector_outcome.connectors
    icds = induced_udg_subgraph(udg, backbone, "ICDS")
    np = get_numpy()
    if np is None:
        attach = _dominatee_edges(clustering)
        cds = Graph(udg.positions, connector_outcome.cds_edges, name="CDS")
        cds_prime = Graph(udg.positions, connector_outcome.cds_edges, name="CDS'")
        cds_prime.add_edges_bulk(attach)
        icds_prime = Graph(udg.positions, icds.edges(), name="ICDS'")
        icds_prime.add_edges_bulk(attach)
    else:
        n = udg.node_count
        attach_keys = dominatee_edge_keys(np, n, clustering)
        cds = Graph.from_keys(
            udg.positions, pair_keys(np, n, connector_outcome.cds_edges), name="CDS"
        )
        cds_prime = cds.with_keys(attach_keys, name="CDS'")
        icds_prime = icds.with_keys(attach_keys, name="ICDS'")

    return CDSFamily(
        udg=udg,
        dominators=clustering.dominators,
        connectors=connector_outcome.connectors,
        cds=cds,
        cds_prime=cds_prime,
        icds=icds,
        icds_prime=icds_prime,
        clustering=clustering,
        connector_outcome=connector_outcome,
        stats=stats,
    )
