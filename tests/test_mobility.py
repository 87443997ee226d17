"""Tests for random-waypoint mobility and backbone maintenance."""

import random

import pytest

from repro.core.spanner import build_backbone
from repro.geometry.primitives import Point, dist
from repro.mobility.maintenance import BackboneMaintainer
from repro.mobility.waypoint import RandomWaypointModel


class TestRandomWaypoint:
    def make_model(self, n=10, side=100.0, seed=1, **kwargs):
        rng = random.Random(seed)
        initial = [
            Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)
        ]
        return RandomWaypointModel(initial, side, rng, **kwargs)

    def test_positions_stay_in_region(self):
        model = self.make_model()
        for _ in range(50):
            for p in model.step(1.0):
                assert 0.0 <= p.x <= 100.0
                assert 0.0 <= p.y <= 100.0

    def test_speed_bound_respected(self):
        model = self.make_model(speed_range=(2.0, 4.0), pause_range=(0.0, 0.0))
        before = model.positions()
        after = model.step(1.0)
        for p, q in zip(before, after):
            assert dist(p, q) <= 4.0 + 1e-9

    def test_zero_dt_is_identity(self):
        model = self.make_model()
        before = model.positions()
        assert model.step(0.0) == before

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            self.make_model().step(-1.0)

    def test_nodes_actually_move(self):
        model = self.make_model(pause_range=(0.0, 0.0))
        before = model.positions()
        after = model.step(5.0)
        moved = sum(1 for p, q in zip(before, after) if dist(p, q) > 1e-9)
        assert moved == len(before)

    def test_pause_halts_motion(self):
        # Pause long enough that every node is mid-pause after its
        # first trip (max trip time: diagonal/speed ~ 29 time units).
        model = self.make_model(pause_range=(1e6, 1e6), speed_range=(5.0, 5.0))
        model.step(200.0)
        before = model.positions()
        after = model.step(1.0)
        assert before == after

    def test_invalid_ranges_rejected(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            RandomWaypointModel([Point(0, 0)], 10.0, rng, speed_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypointModel([Point(0, 0)], 10.0, rng, pause_range=(-1.0, 0.0))

    def test_clock_advances(self):
        model = self.make_model()
        model.step(2.5)
        assert model.time == pytest.approx(2.5)


class TestBackboneMaintainer:
    def test_no_rebuild_when_links_hold(self, deployment, backbone):
        maintainer = BackboneMaintainer(backbone)
        # Tiny jiggle: far below what breaks a link.
        rng = random.Random(2)
        positions = [
            Point(p.x + rng.uniform(-0.01, 0.01), p.y + rng.uniform(-0.01, 0.01))
            for p in deployment.points
        ]
        report = maintainer.update(positions)
        assert not report.rebuilt
        assert report.edge_retention == 1.0
        assert maintainer.rebuild_count == 0

    def test_rebuild_when_link_breaks(self, deployment, backbone):
        maintainer = BackboneMaintainer(backbone)
        # Drag one backbone endpoint far away.
        u, v = next(iter(backbone.ldel_icds.edges()))
        positions = list(deployment.points)
        positions[u] = Point(positions[u].x + 500.0, positions[u].y)
        report = maintainer.update(positions)
        assert report.rebuilt
        assert report.broken_links
        assert any(u in link for link in report.broken_links)
        assert maintainer.rebuild_count == 1

    def test_check_reports_exact_broken_links(self, deployment, backbone):
        maintainer = BackboneMaintainer(backbone)
        u, v = next(iter(backbone.ldel_icds.edges()))
        positions = list(deployment.points)
        positions[u] = Point(positions[u].x + 500.0, positions[u].y)
        broken = maintainer.check(positions)
        for a, b in broken:
            assert dist(positions[a], positions[b]) > backbone.udg.radius

    def test_wrong_position_count_rejected(self, backbone):
        maintainer = BackboneMaintainer(backbone)
        with pytest.raises(ValueError):
            maintainer.update([Point(0, 0)])

    def test_retention_between_zero_and_one(self, deployment, backbone):
        maintainer = BackboneMaintainer(backbone)
        rng = random.Random(3)
        positions = [
            Point(p.x + rng.uniform(-15, 15), p.y + rng.uniform(-15, 15))
            for p in deployment.points
        ]
        report = maintainer.update(positions)
        assert 0.0 <= report.edge_retention <= 1.0
        if report.rebuilt:
            assert report.result is maintainer.result
            assert report.result is not backbone

    def test_rebuild_when_new_link_crosses_structural_edge(self):
        # Node 0 dominates everyone; the prime backbone carries the
        # dominatee links (0,1), (0,2), (0,3).  Nodes 2 and 3 face each
        # other across the (0,0)-(8,0) segment, just out of range.
        points = [
            Point(0.0, 0.0),
            Point(8.0, 0.0),
            Point(4.0, 5.2),
            Point(4.0, -5.2),
        ]
        maintainer = BackboneMaintainer(build_backbone(points, 10.0))
        moved = list(points)
        moved[2] = Point(4.0, 4.8)  # 2-3 comes into range, crossing 0-1
        # No structural link broke — the old policy would do nothing —
        # but the new 2-3 link physically crosses a structural link.
        assert maintainer.check(moved) == ()
        assert (2, 3) in maintainer.new_links(moved)
        assert (2, 3) in maintainer.invalidating_links(moved)
        report = maintainer.update(moved)
        assert report.rebuilt
        assert report.broken_links == ()
        assert (2, 3) in report.invalidating_links
        assert maintainer.rebuild_count == 1

    def test_rebuild_when_backbone_nodes_gain_a_link(self):
        # Two isolated dominators drift into range: the induced
        # backbone subgraph gains an edge, so the cached PLDel/ICDS
        # membership is stale even though nothing broke.
        points = [Point(0.0, 0.0), Point(10.5, 0.0)]
        maintainer = BackboneMaintainer(build_backbone(points, 10.0))
        moved = [points[0], Point(9.5, 0.0)]
        assert maintainer.check(moved) == ()
        assert maintainer.invalidating_links(moved) == ((0, 1),)
        report = maintainer.update(moved)
        assert report.rebuilt
        assert report.invalidating_links == ((0, 1),)

    def test_benign_gain_ignored(self):
        # A fresh dominatee-dominatee link with no crossing does not
        # invalidate the maintained structure: the break-only policy
        # stands.
        points = [Point(0.0, 0.0), Point(6.0, 5.2), Point(6.0, -5.2)]
        maintainer = BackboneMaintainer(build_backbone(points, 10.0))
        moved = [points[0], Point(6.0, 4.7), points[2]]
        assert (1, 2) in maintainer.new_links(moved)
        assert maintainer.invalidating_links(moved) == ()
        report = maintainer.update(moved)
        assert not report.rebuilt
        assert report.invalidating_links == ()

    def test_waypoint_driven_session(self, deployment, backbone):
        # Integration: run mobility + maintenance together; the
        # maintainer's result must always be structurally valid.
        from repro.graphs.planarity import is_planar_embedding

        rng = random.Random(11)
        model = RandomWaypointModel(
            list(deployment.points), deployment.side, rng,
            speed_range=(1.0, 3.0),
        )
        maintainer = BackboneMaintainer(backbone)
        for _ in range(5):
            report = maintainer.update(model.step(1.0))
            assert is_planar_embedding(report.result.ldel_icds)
        assert maintainer.update_count == 5
