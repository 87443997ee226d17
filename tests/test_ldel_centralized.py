"""Tests for the centralized LDel^k construction and planarization."""

import pytest

from repro.geometry.primitives import Point
from repro.graphs.paths import is_connected
from repro.graphs.planarity import is_planar_embedding
from repro.graphs.udg import UnitDiskGraph
from repro.topology.delaunay_udg import unit_delaunay_graph
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import (
    LDelResult,
    candidate_triangles,
    is_k_localized_delaunay,
    local_delaunay_graph,
    planar_local_delaunay_graph,
    planarize_ldel1,
)


class TestCandidateTriangles:
    def test_single_triangle(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]
        udg = UnitDiskGraph(pts, 1.2)
        assert candidate_triangles(udg) == {(0, 1, 2)}

    def test_long_edges_excluded(self):
        # Pairwise distances ~1.4 > radius 1.2: no valid triangle.
        pts = [Point(0, 0), Point(1.4, 0), Point(0.7, 1.2)]
        udg = UnitDiskGraph(pts, 1.3)
        assert candidate_triangles(udg) == set()


class TestKLocalizedProperty:
    def test_rejects_triangle_with_witness_inside(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.8), Point(0.5, 0.3)]
        udg = UnitDiskGraph(pts, 1.2)
        assert not is_k_localized_delaunay(udg, (0, 1, 2), 1)

    def test_accepts_clean_triangle(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]
        udg = UnitDiskGraph(pts, 1.2)
        assert is_k_localized_delaunay(udg, (0, 1, 2), 1)

    def test_k_must_be_positive(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.8)]
        udg = UnitDiskGraph(pts, 1.2)
        with pytest.raises(ValueError):
            local_delaunay_graph(udg, k=0)


class TestLDelStructure:
    def test_contains_gabriel_graph(self, small_deployments):
        for dep in small_deployments:
            udg = dep.udg()
            ldel = local_delaunay_graph(udg, k=1)
            assert gabriel_graph(udg).is_subgraph_of(ldel.graph)

    def test_contains_udel(self, small_deployments):
        # UDel triangles have globally empty circumcircles, so every
        # UDel edge survives in LDel^1.
        for dep in small_deployments:
            udg = dep.udg()
            ldel = local_delaunay_graph(udg, k=1)
            assert unit_delaunay_graph(udg).is_subgraph_of(ldel.graph)

    def test_ldel2_subset_of_ldel1(self, small_deployments):
        # Larger k means more witnesses, hence fewer triangles.
        for dep in small_deployments[:3]:
            udg = dep.udg()
            ldel1 = local_delaunay_graph(udg, k=1)
            ldel2 = local_delaunay_graph(udg, k=2)
            assert set(ldel2.triangles) <= set(ldel1.triangles)

    def test_ldel2_is_planar_without_planarization(self, small_deployments):
        # Li et al.: LDel^k is planar for k >= 2.
        for dep in small_deployments[:3]:
            udg = dep.udg()
            ldel2 = local_delaunay_graph(udg, k=2)
            assert is_planar_embedding(ldel2.graph)

    def test_connected(self, small_deployments):
        for dep in small_deployments:
            udg = dep.udg()
            assert is_connected(local_delaunay_graph(udg, k=1).graph)


class TestPlanarization:
    def test_planarize_requires_k1(self, small_deployments):
        udg = small_deployments[0].udg()
        ldel2 = local_delaunay_graph(udg, k=2)
        with pytest.raises(ValueError):
            planarize_ldel1(udg, ldel2)

    def test_pldel_is_planar(self, small_deployments):
        for dep in small_deployments:
            udg = dep.udg()
            pldel = planar_local_delaunay_graph(udg)
            assert is_planar_embedding(pldel.graph), crossing_report(pldel.graph)

    def test_pldel_is_connected(self, small_deployments):
        for dep in small_deployments:
            assert is_connected(planar_local_delaunay_graph(dep.udg()).graph)

    def test_pldel_still_contains_udel(self, small_deployments):
        # Globally-Delaunay triangles never lose the crossing contest.
        for dep in small_deployments:
            udg = dep.udg()
            pldel = planar_local_delaunay_graph(udg)
            assert unit_delaunay_graph(udg).is_subgraph_of(pldel.graph)

    def test_pldel_subset_of_ldel1(self, small_deployments):
        for dep in small_deployments:
            udg = dep.udg()
            ldel1 = local_delaunay_graph(udg, k=1)
            pldel = planarize_ldel1(udg, ldel1)
            assert pldel.graph.is_subgraph_of(ldel1.graph)
            assert set(pldel.triangles) <= set(ldel1.triangles)

    def test_gabriel_edges_survive_planarization(self, small_deployments):
        for dep in small_deployments:
            udg = dep.udg()
            pldel = planar_local_delaunay_graph(udg)
            for u, v in pldel.gabriel_edges:
                assert pldel.graph.has_edge(u, v)


class TestResultForms:
    def test_lazy_forms_and_pickles(self, small_deployments):
        import pickle

        udg = small_deployments[0].udg()
        pldel = planar_local_delaunay_graph(udg)
        triangles, gabriel = pldel.triangles, pldel.gabriel_edges
        assert triangles == tuple(sorted(triangles))
        assert all(type(x) is int for t in triangles for x in t)
        assert gabriel == gabriel_graph(udg).edge_set()
        revived = pickle.loads(pickle.dumps(pldel))
        assert revived.triangles == triangles and revived.gabriel_edges == gabriel
        # A pickle from before the lazy forms held the tuple fields.
        old = LDelResult.__new__(LDelResult)
        old.__setstate__({
            "graph": pldel.graph, "triangles": triangles,
            "gabriel_edges": gabriel, "k": 1,
        })
        assert old.triangles == triangles and old.gabriel_edges == gabriel
        assert old.circles is None
        assert planarize_ldel1(udg, old).graph.edge_set() == pldel.graph.edge_set()


def crossing_report(graph):
    from repro.graphs.planarity import crossing_pairs

    return f"crossings: {crossing_pairs(graph)[:5]}"
