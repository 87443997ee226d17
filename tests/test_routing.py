"""Tests for greedy, face, GPSR and backbone routing."""

import pytest

import repro.core.route_engine as route_engine
from repro.core.route_engine import RouteEngine
from repro.geometry.primitives import Point, dist_sq
from repro.graphs.graph import Graph
from repro.graphs.paths import breadth_first_path
from repro.routing.backbone_routing import backbone_route
from repro.routing.face import face_route
from repro.routing.gpsr import gpsr_route
from repro.routing.greedy import greedy_route


def void_graph():
    """A 'void': greedy from 0 toward 5 gets stuck at a local minimum.

    Node 1 is the closest to the target among 0's neighbors but has no
    neighbor closer than itself; the detour goes around via 2-3-4.
    """
    pts = [
        Point(0.0, 0.0),   # 0 source
        Point(1.0, 0.0),   # 1 dead-end lure (local minimum)
        Point(0.4, 0.9),   # 2 detour top
        Point(1.4, 1.0),   # 3
        Point(2.2, 0.6),   # 4
        Point(2.4, 0.0),   # 5 target
    ]
    edges = [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)]
    return Graph(pts, edges)


class TestGreedyRoute:
    def test_delivers_on_straight_chain(self):
        pts = [Point(float(i), 0.0) for i in range(5)]
        g = Graph(pts, [(i, i + 1) for i in range(4)])
        result = greedy_route(g, 0, 4)
        assert result.delivered
        assert result.path == (0, 1, 2, 3, 4)
        assert result.hops == 4
        assert result.length(g) == pytest.approx(4.0)

    def test_source_is_target(self):
        g = void_graph()
        result = greedy_route(g, 3, 3)
        assert result.delivered and result.hops == 0

    def test_stuck_at_local_minimum(self):
        g = void_graph()
        result = greedy_route(g, 0, 5)
        assert not result.delivered
        assert result.reason == "stuck"
        assert result.path[-1] == 1

    def test_hop_limit(self):
        pts = [Point(float(i), 0.0) for i in range(5)]
        g = Graph(pts, [(i, i + 1) for i in range(4)])
        result = greedy_route(g, 0, 4, max_hops=2)
        assert not result.delivered and result.reason == "hop-limit"


class TestFaceRoute:
    def test_routes_around_the_void(self):
        g = void_graph()
        result = face_route(g, 0, 5)
        assert result.delivered

    def test_delivers_on_triangle(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.9)]
        g = Graph(pts, [(0, 1), (1, 2), (0, 2)])
        assert face_route(g, 0, 1).delivered

    def test_unreachable_target_loops_out(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.5, 0.9), Point(5, 5)]
        g = Graph(pts, [(0, 1), (1, 2), (0, 2)])
        result = face_route(g, 0, 3)
        assert not result.delivered
        assert result.reason in ("loop", "stuck", "hop-limit")

    def test_resume_distance_stops_early(self):
        g = void_graph()
        # Perimeter-mode contract: stop once closer than the stuck node.
        d2_stuck = dist_sq(g.positions[1], g.positions[5])
        result = face_route(g, 1, 5, resume_distance_sq=d2_stuck)
        assert not result.delivered
        assert result.reason == "greedy-resume"
        assert dist_sq(g.positions[result.path[-1]], g.positions[5]) < d2_stuck

    def test_isolated_source_is_stuck(self):
        pts = [Point(0, 0), Point(5, 5)]
        g = Graph(pts)
        assert face_route(g, 0, 1).reason == "stuck"


class TestGpsrRoute:
    def test_recovers_from_local_minimum(self):
        g = void_graph()
        result = gpsr_route(g, 0, 5)
        assert result.delivered

    def test_resume_tie_does_not_livelock(self, monkeypatch):
        # Greedy stalls at 2; its dead-end neighbour 3 is exactly as far
        # from the target (both 12.5 squared).  Squaring the rounded
        # root of 12.5 lands a ulp high, which used to resume greedy at
        # 3 and bounce 2 <-> 3 until the hop limit.
        pts = [
            Point(x / 2.0, y / 2.0)
            for x, y in [(3, 9), (6, 4), (7, 13), (9, 17), (11, 7), (14, 12)]
        ]
        g = Graph(pts, [(0, 1), (0, 2), (1, 4), (2, 3), (4, 5)])
        result = gpsr_route(g, 0, 5)
        assert result.delivered
        assert result.path == (0, 2, 3, 2, 0, 1, 4, 5)
        # The vectorized kernel must agree on its own, without handing
        # the query to the scalar router as a straggler.
        monkeypatch.setattr(route_engine, "_BAIL_ROUNDS", 1 << 30)
        batch = RouteEngine(g).route_pairs([(0, 5)], method="gpsr")
        assert batch.result(0).path == result.path
        assert batch.result(0).delivered

    def test_delivers_everywhere_on_planar_backbone(self, backbone):
        graph = backbone.ldel_icds
        nodes = sorted(backbone.backbone_nodes)
        failures = []
        for s in nodes:
            for t in nodes:
                if s != t and not gpsr_route(graph, s, t).delivered:
                    failures.append((s, t))
        assert not failures, f"GPSR failed on planar backbone: {failures[:5]}"

    def test_path_is_walk_in_graph(self, backbone):
        graph = backbone.ldel_icds
        nodes = sorted(backbone.backbone_nodes)
        result = gpsr_route(graph, nodes[0], nodes[-1])
        assert result.delivered
        for a, b in zip(result.path, result.path[1:]):
            assert graph.has_edge(a, b)


class TestBackboneRoute:
    def test_direct_delivery_within_range(self, backbone):
        udg = backbone.udg
        u, v = next(iter(udg.edges()))
        result = backbone_route(backbone, u, v)
        assert result.delivered and result.path == (u, v)

    def test_source_equals_target(self, backbone):
        result = backbone_route(backbone, 0, 0)
        assert result.delivered and result.hops == 0

    def test_all_pairs_delivered(self, backbone):
        udg = backbone.udg
        nodes = list(udg.nodes())
        for s in nodes[::7]:
            for t in nodes[::5]:
                if s == t:
                    continue
                result = backbone_route(backbone, s, t)
                assert result.delivered, f"failed {s}->{t}: {result.reason}"

    def test_path_uses_real_links(self, backbone):
        udg = backbone.udg
        nodes = list(udg.nodes())
        result = backbone_route(backbone, nodes[0], nodes[-1])
        assert result.delivered
        for a, b in zip(result.path, result.path[1:]):
            assert udg.has_edge(a, b), f"hop {a}->{b} is not a radio link"

    def test_rejects_unknown_mode(self, backbone):
        with pytest.raises(ValueError):
            backbone_route(backbone, 0, 1, mode="teleport")

    def test_greedy_mode_runs(self, backbone):
        nodes = sorted(backbone.udg.nodes())
        delivered = sum(
            backbone_route(backbone, nodes[0], t, mode="greedy").delivered
            for t in nodes[1:10]
        )
        assert delivered >= 1  # greedy works at least sometimes

    def test_hop_count_reasonable(self, backbone):
        # Backbone route should be within a constant factor of optimal.
        udg = backbone.udg
        nodes = list(udg.nodes())
        for s, t in [(nodes[0], nodes[-1]), (nodes[1], nodes[-2])]:
            if s == t:
                continue
            optimal = breadth_first_path(udg, s, t).hops
            routed = backbone_route(backbone, s, t).hops
            assert routed <= 3 * optimal + 4
