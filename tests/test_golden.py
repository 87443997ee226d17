"""Golden regression test: one fully pinned instance, exact expectations.

A single seeded deployment run through the whole pipeline with every
structural quantity asserted exactly.  Any behavioural change — a new
tie-break, a different election order, a geometry tweak — shows up
here first, with a precise diff.  Update the constants deliberately
when a change is intended, never to make the suite pass.

The per-stage edge counts of the larger deployment recipe the
benchmarks and scaling docs use are pinned the same way.
"""

import math
import random

import pytest

from repro.core.spanner import build_backbone
from repro.graphs.udg import UnitDiskGraph
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import local_delaunay_graph, planarize_ldel1
from repro.workloads.generators import connected_udg_instance

SEED = 20020701  # ICDCS 2002, July

#: Edge counts (udg, gabriel, ldel1, pldel, backbone LDel(ICDS)) on the
#: deployment recipe: uniform points in a 10·sqrt(n) square, radius 25,
#: ``random.Random(2002)``.
RECIPE_EDGES = {
    200: (1612, 359, 557, 557, 303),
    500: (4361, 959, 1425, 1425, 806),
    1000: (9179, 1901, 2866, 2866, 1568),
}


@pytest.fixture(scope="module")
def golden():
    deployment = connected_udg_instance(50, 200.0, 60.0, random.Random(SEED))
    return build_backbone(deployment.points, deployment.radius)


class TestGoldenStructure:
    def test_udg(self, golden):
        assert golden.udg.edge_count == 292

    def test_roles(self, golden):
        assert sorted(golden.dominators) == [0, 1, 3, 4, 8, 27, 35]
        assert len(golden.connectors) == 21

    def test_graph_sizes(self, golden):
        assert golden.cds.edge_count == 50
        assert golden.cds_prime.edge_count == 86
        assert golden.icds.edge_count == 97
        assert golden.icds_prime.edge_count == 127
        assert golden.ldel_icds.edge_count == 64
        assert golden.ldel_icds_prime.edge_count == 103

    def test_message_ledgers(self, golden):
        assert golden.stats_cds.total == 437
        assert golden.stats_icds.total == 487
        assert golden.stats_ldel.total == 676
        assert golden.stats_ldel.max_per_node() == 33

    def test_message_kinds(self, golden):
        kinds = golden.stats_ldel.by_kind()
        assert kinds["Hello"] == 50
        assert kinds["IamDominator"] == 7
        assert kinds["IamDominatee"] == 71
        assert kinds["TryConnector"] == 237
        assert kinds["IamConnector"] == 72
        assert kinds["Status"] == 50
        assert kinds["Location"] == 28  # one per backbone node
        assert kinds["Proposal"] == 51
        assert kinds["Accept"] == 53
        assert kinds["Reject"] == 1
        assert kinds["Structure"] == 28
        assert kinds["Kept"] == 28


@pytest.mark.parametrize("n", sorted(RECIPE_EDGES))
def test_recipe_edge_counts(n):
    dep = connected_udg_instance(n, 10.0 * math.sqrt(n), 25.0, random.Random(2002))
    udg = UnitDiskGraph(list(dep.points), dep.radius)
    ldel1 = local_delaunay_graph(udg, k=1)
    pldel = planarize_ldel1(udg, ldel1)
    backbone = build_backbone(dep.points, dep.radius)
    assert (
        udg.edge_count,
        gabriel_graph(udg).edge_count,
        ldel1.graph.edge_count,
        pldel.graph.edge_count,
        backbone.ldel_icds.edge_count,
    ) == RECIPE_EDGES[n]
