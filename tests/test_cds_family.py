"""Tests for the CDS family builder and the paper's structural claims."""

import pytest

from repro.geometry.primitives import Point
from repro.graphs.graph import Graph
from repro.graphs.paths import is_connected
from repro.graphs.planarity import is_planar_embedding
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.cds import build_cds_family, induced_udg_subgraph
from repro.sim.messages import STATUS
from repro.workloads.corpus import get_instance


class TestFamilyStructure:
    def test_cds_subgraph_of_icds(self, small_deployments):
        # Every elected CDS edge is a UDG link between backbone nodes.
        for dep in small_deployments:
            family = build_cds_family(dep.udg())
            assert family.cds.is_subgraph_of(family.icds)

    def test_primes_extend_with_dominatee_edges(self, small_deployments):
        for dep in small_deployments:
            family = build_cds_family(dep.udg())
            assert family.cds.is_subgraph_of(family.cds_prime)
            assert family.icds.is_subgraph_of(family.icds_prime)
            extra = family.cds_prime.edge_set() - family.cds.edge_set()
            for u, v in extra:
                assert (
                    u in family.dominators or v in family.dominators
                ), "prime edges connect dominatees to dominators"

    def test_icds_prime_subset_relation(self, small_deployments):
        for dep in small_deployments:
            family = build_cds_family(dep.udg())
            assert family.cds_prime.is_subgraph_of(family.icds_prime)

    def test_partition_of_roles(self, small_deployments):
        for dep in small_deployments:
            udg = dep.udg()
            family = build_cds_family(udg)
            assert family.dominators | family.connectors | family.dominatees == set(
                udg.nodes()
            )
            assert not (family.dominators & family.connectors)
            assert not (family.backbone_nodes & family.dominatees)

    def test_primes_span_all_nodes(self, small_deployments):
        # CDS' and ICDS' connect every node (backbone + dominatee links).
        for dep in small_deployments:
            family = build_cds_family(dep.udg())
            assert is_connected_on_support(family.cds_prime)
            assert is_connected_on_support(family.icds_prime)

    def test_icds_edges_are_all_backbone_udg_links(self, small_deployments):
        for dep in small_deployments:
            udg = dep.udg()
            family = build_cds_family(udg)
            members = family.backbone_nodes
            for u in members:
                for v in members:
                    if u < v and udg.has_edge(u, v):
                        assert family.icds.has_edge(u, v)


class TestDegreeBounds:
    def test_cds_degree_constant(self, small_deployments):
        """Paper Lemma 4: CDS node degree bounded by a constant."""
        for dep in small_deployments:
            family = build_cds_family(dep.udg())
            assert max(family.cds.degrees(), default=0) <= 30

    def test_icds_degree_constant(self, small_deployments):
        """Paper Lemma 8: ICDS node degree bounded by a constant."""
        for dep in small_deployments:
            family = build_cds_family(dep.udg())
            assert max(family.icds.degrees(), default=0) <= 47


class TestStatusAccounting:
    def test_one_status_message_per_node(self, small_deployments):
        dep = small_deployments[0]
        udg = dep.udg()
        family = build_cds_family(udg)
        assert family.stats.per_kind[STATUS] == udg.node_count

    def test_family_stats_cumulative(self, small_deployments):
        dep = small_deployments[0]
        udg = dep.udg()
        family = build_cds_family(udg)
        expected = (
            family.clustering.stats.total
            + family.connector_outcome.stats.total
            + udg.node_count
        )
        assert family.stats.total == expected


class TestInducedSubgraph:
    def test_induced_udg_subgraph(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(0.5, 0.5)]
        udg = UnitDiskGraph(pts, 1.0)
        g = induced_udg_subgraph(udg, frozenset({0, 1, 2}), "test")
        assert g.has_edge(0, 1) and g.has_edge(1, 2)
        assert not g.has_edge(0, 2)
        assert g.degree(3) == 0

    @pytest.mark.parametrize("entry", ["quasi-field", "quasi-hotspots"])
    def test_quasi_icds_keeps_only_radio_links(self, entry):
        # The disk rule would resurrect the gray-zone links the
        # quasi-UDG dropped; ICDS and ICDS' may use radio links only.
        udg = get_instance(entry).udg()
        family = build_cds_family(udg, mode="fast")
        assert family.icds.edge_set() <= udg.edge_set()
        assert family.icds_prime.edge_set() <= udg.edge_set()


class TestFigure5Counterexample:
    """The paper's Figure 5: the CDS can be non-planar.

    Two dominator pairs (u1, u4) and (v1, v4), each with a *unique*
    3-hop path between them; the middle links of the two paths cross,
    so both crossing links are forced into the CDS.  IDs are assigned
    so the lowest-ID MIS elects exactly the four chain endpoints.
    """

    # ids 0..7 = u1, u4, v1, v4, u2, u3, v2, v3.  The middle quad is
    # deliberately *not* cocircular (the paper assumes no four
    # cocircular nodes; an exactly-cocircular quad makes both crossing
    # diagonals Gabriel edges, a measure-zero degeneracy).
    POINTS = [
        Point(-0.8, 0.85),    # u1 (dominator)
        Point(1.6, -0.85),    # u4 (dominator)
        Point(-0.75, -0.85),  # v1 (dominator)
        Point(1.55, 0.85),    # v4 (dominator)
        Point(0.0, 0.25),     # u2
        Point(0.8, -0.25),    # u3
        Point(0.05, -0.25),   # v2
        Point(0.75, 0.25),    # v3
    ]
    U1, U4, V1, V4, U2, U3, V2, V3 = range(8)

    def test_geometry_sanity(self):
        udg = UnitDiskGraph(self.POINTS, 1.0)
        # Each chain is a path; the two middle links cross at (0.4, 0).
        for a, b in [
            (self.U1, self.U2), (self.U2, self.U3), (self.U3, self.U4),
            (self.V1, self.V2), (self.V2, self.V3), (self.V3, self.V4),
        ]:
            assert udg.has_edge(a, b)
        # The unique-3-hop-path condition: u1/u4 have degree 1.
        assert udg.neighbors(self.U1) == {self.U2}
        assert udg.neighbors(self.U4) == {self.U3}
        assert udg.neighbors(self.V1) == {self.V2}
        assert udg.neighbors(self.V4) == {self.V3}

    def test_crossing_links_forced_into_cds(self):
        udg = UnitDiskGraph(self.POINTS, 1.0)
        from repro.protocols.clustering import run_clustering

        clustering = run_clustering(udg)
        assert clustering.dominators == {self.U1, self.U4, self.V1, self.V4}
        family = build_cds_family(udg)
        assert family.cds.has_edge(self.U2, self.U3)
        assert family.cds.has_edge(self.V2, self.V3)
        assert not is_planar_embedding(family.cds)

    def test_ldel_planarizes_this_instance(self):
        # The fix the paper proposes: LDel over ICDS is planar even here.
        from repro.protocols.backbone import run_backbone_pipeline

        udg = UnitDiskGraph(self.POINTS, 1.0)
        pipeline = run_backbone_pipeline(udg)
        assert is_planar_embedding(pipeline.ldel_icds)


def is_connected_on_support(graph: Graph) -> bool:
    """Connectivity ignoring isolated nodes (nodes with no edges)."""
    support = [u for u in graph.nodes() if graph.degree(u) > 0]
    if len(support) <= 1:
        return True
    sub, _ = graph.subgraph(support)
    return is_connected(sub)
