"""LDel under the quasi-UDG radio model: one radio rule in every path.

A corner accepts a triangle only when it hears both other corners, and
a Gabriel edge needs both endpoints' tests to pass.  The centralized
construction, the SoA kernels, the fast path and the message-passing
protocols all apply that rule, so on the Damian-Pemmaraju gray zone
they agree with each other and never emit a link the radio model
dropped.
"""

import pytest

from repro.core.compat import numpy_disabled
from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.backbone import run_backbone_pipeline
from repro.protocols.ldel2_protocol import run_ldel2_protocol
from repro.protocols.ldel_protocol import run_ldel_protocol
from repro.topology.ldel import (
    corner_verdicts,
    local_delaunay_graph,
    planar_local_delaunay_graph,
    triangle_tuples,
)
from repro.workloads.corpus import get_instance

ENTRIES = ["quasi-field", "quasi-hotspots"]


@pytest.fixture(params=ENTRIES, scope="module")
def udg(request):
    return get_instance(request.param).udg()


def _sides(triangles):
    return {pair for u, v, w in triangles for pair in ((u, v), (v, w), (u, w))}


def _assert_same_backbone(a, b):
    assert a.ldel_icds.edge_set() == b.ldel_icds.edge_set()
    assert a.ldel_icds_prime.edge_set() == b.ldel_icds_prime.edge_set()
    assert a.stats_ldel.per_node_kind == b.stats_ldel.per_node_kind


class TestRadioRule:
    def test_corner_rejects_unheard_corner(self):
        # Sides within the radius, but the link 1-2 was dropped: corner
        # 0 hears both others and accepts; corners 1 and 2 reject.
        pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 0.8)]
        udg = UnitDiskGraph(pts, 1.2)
        udg.remove_edge(1, 2)
        udg.adjacency_is_disk_rule = False
        # The kernel answers with a (1, 3) bool array, the scalar
        # reference with a list of tuples.
        assert triangle_tuples(corner_verdicts(udg, [(0, 1, 2)])) == [(True, False, False)]
        with numpy_disabled():
            assert corner_verdicts(udg, [(0, 1, 2)]) == [(True, False, False)]
        assert local_delaunay_graph(udg).triangles == ()

    def test_pldel_keeps_only_radio_links(self, udg):
        result = planar_local_delaunay_graph(udg)
        assert _sides(result.triangles) <= udg.edge_set()
        assert result.graph.edge_set() <= udg.edge_set()

    def test_ldel2_keeps_only_radio_links(self, udg):
        result = local_delaunay_graph(udg, k=2)
        assert result.graph.edge_set() <= udg.edge_set()

    def test_backbone_keeps_only_radio_links(self, udg):
        result = run_backbone_pipeline(udg, mode="fast")
        assert result.ldel_icds.edge_set() <= udg.edge_set()
        assert result.ldel_icds_prime.edge_set() <= udg.edge_set()


class TestPathsAgree:
    def test_soa_matches_reference(self, udg):
        soa = planar_local_delaunay_graph(udg)
        with numpy_disabled():
            ref = planar_local_delaunay_graph(udg)
        assert soa.triangles == ref.triangles
        assert soa.graph.edge_set() == ref.graph.edge_set()

    def test_ldel_protocol_matches_centralized(self, udg):
        protocol = run_ldel_protocol(udg)
        central = planar_local_delaunay_graph(udg)
        assert protocol.triangles == central.triangles
        # The centralized Gabriel test blocks on N(u) | N(v); the
        # protocol keeps an edge only when both endpoints' tests pass.
        assert protocol.gabriel_edges == central.gabriel_edges
        assert protocol.graph.edge_set() == central.graph.edge_set()

    def test_ldel2_protocol_matches_centralized(self, udg):
        protocol = run_ldel2_protocol(udg)
        central = local_delaunay_graph(udg, k=2)
        assert protocol.triangles == central.triangles
        assert protocol.graph.edge_set() == central.graph.edge_set()

    def test_backbone_protocol_matches_fast(self, udg):
        _assert_same_backbone(
            run_backbone_pipeline(udg, mode="protocol"),
            run_backbone_pipeline(udg, mode="fast"),
        )

    def test_backbone_soa_matches_reference(self, udg):
        # The backbone's radio subgraph drops gray-zone links too, so
        # the Gabriel kernel must scan both endpoints' neighborhoods.
        soa = run_backbone_pipeline(udg, mode="fast")
        with numpy_disabled():
            ref = run_backbone_pipeline(udg, mode="fast")
        _assert_same_backbone(soa, ref)
