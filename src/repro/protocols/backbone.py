"""The full pipeline: points -> CDS family -> LDel(ICDS) / LDel(ICDS').

This is the paper's contribution end to end: cluster, elect
connectors, induce the backbone unit disk graph, and planarize it with
the distributed localized Delaunay protocol.  Every phase runs as a
message-passing protocol; the result carries the cumulative per-node
message ledger that the communication-cost figures are drawn from, and
separate per-structure ledgers (CDS / ICDS / LDel(ICDS)) matching the
paper's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro import obs
from repro.core.compat import get_numpy
from repro.protocols.cds import MODES, CDSFamily, build_cds_family, dominatee_edge_keys
from repro.protocols.clustering import PriorityFn
from repro.protocols.ldel_fast import fast_ldel_protocol
from repro.protocols.ldel_protocol import LDelProtocolOutcome, run_ldel_protocol
from repro.sim.stats import MessageStats

#: Connector election rules the pipeline understands (see
#: :mod:`repro.protocols.connectors`): collect rival IDs and let the
#: smallest win, or claim immediately without waiting.
ELECTIONS = ("smallest-id", "first-response")


@dataclass(frozen=True)
class BackbonePipelineResult:
    """Everything the pipeline produces."""

    family: CDSFamily
    ldel_icds: Graph
    ldel_icds_prime: Graph
    ldel_outcome: LDelProtocolOutcome
    #: Ledgers at each accounting boundary the paper reports:
    #: ``stats_cds`` (clustering + connectors), ``stats_icds`` (+ one
    #: Status per node), ``stats_ldel`` (+ the LDel protocol run on the
    #: backbone, charged to the backbone nodes' original ids).
    stats_cds: MessageStats
    stats_icds: MessageStats
    stats_ldel: MessageStats
    #: Which construction path produced this result (``protocol`` or
    #: ``fast``); the outputs are bit-identical either way.
    mode: str = "protocol"

    @property
    def udg(self) -> UnitDiskGraph:
        return self.family.udg


def run_backbone_pipeline(
    udg: UnitDiskGraph,
    *,
    priority: Optional[PriorityFn] = None,
    election: str = "smallest-id",
    clustering=None,
    mode: str = "protocol",
) -> BackbonePipelineResult:
    """Build the planar spanner backbone over ``udg``.

    ``clustering`` injects a precomputed (e.g. locally repaired)
    clustering outcome instead of running the election.  ``mode="fast"``
    swaps every protocol replay (election, connectors, LDel) for the
    direct fixed-point computation — bit-identical results, an order of
    magnitude faster at benchmark sizes.

    Spans ``backbone.phase.cds`` (clustering + connectors + family
    graphs) and ``backbone.phase.ldel`` (backbone planarization) time
    the two phases; see :mod:`repro.obs`.
    """
    if election not in ELECTIONS:
        raise ValueError(f"unknown election {election!r}; known: {ELECTIONS}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    with obs.span("backbone.phase.cds"):
        family = build_cds_family(
            udg, priority=priority, election=election, clustering=clustering, mode=mode
        )

        # Ledger boundaries: the Status broadcast belongs to the ICDS
        # stage, so subtract it for the CDS-only view.
        stats_icds = family.stats.copy()
        stats_cds = MessageStats()
        stats_cds.merge(family.clustering.stats)
        stats_cds.merge(family.connector_outcome.stats)

    backbone = sorted(family.backbone_nodes)
    # induced_radio_subgraph == a plain sub-UDG for the standard disk
    # model (bit-identical); for quasi-UDG deployments it keeps the
    # dropped gray-zone links dropped instead of resurrecting them.
    from repro.graphs.quasi import induced_radio_subgraph

    sub_udg = induced_radio_subgraph(udg, backbone, name="ICDS-sub")
    with obs.span("backbone.phase.ldel"):
        if mode == "fast":
            ldel_outcome = fast_ldel_protocol(sub_udg)
        else:
            ldel_outcome = run_ldel_protocol(sub_udg)

    # Map the protocol output back to original node ids.
    np = get_numpy()
    if np is None:
        ldel_icds = Graph(
            udg.positions,
            ((backbone[u], backbone[v]) for u, v in ldel_outcome.graph.edges()),
            name="LDel(ICDS)",
        )
        ldel_icds_prime = Graph(udg.positions, ldel_icds.edges(), name="LDel(ICDS')")
        ldel_icds_prime.add_edges_bulk(
            (dominatee, d)
            for dominatee, doms in family.clustering.dominators_of.items()
            for d in doms
        )
    else:
        # backbone is sorted, so the sub-id -> id map is monotone and
        # the mapped keys stay sorted.
        n, k = udg.node_count, len(backbone)
        ids = np.asarray(backbone, dtype=np.int64)
        sub_keys = ldel_outcome.graph.edge_keys()
        ldel_icds = Graph.from_keys(
            udg.positions, ids[sub_keys // k] * n + ids[sub_keys % k], name="LDel(ICDS)"
        )
        ldel_icds_prime = ldel_icds.with_keys(
            dominatee_edge_keys(np, n, family.clustering), name="LDel(ICDS')"
        )

    stats_ldel = stats_icds.copy().merge(ldel_outcome.stats, relabel=backbone)

    obs.count("backbone.builds")
    obs.count(f"backbone.mode.{mode}")
    obs.count("backbone.messages_total", stats_ldel.total)
    return BackbonePipelineResult(
        family=family,
        ldel_icds=ldel_icds,
        ldel_icds_prime=ldel_icds_prime,
        ldel_outcome=ldel_outcome,
        stats_cds=stats_cds,
        stats_icds=stats_icds,
        stats_ldel=stats_ldel,
        mode=mode,
    )
