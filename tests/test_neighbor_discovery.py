"""Tests for beacon-based neighbor discovery."""

import random

import pytest

from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.neighbor_discovery import BEACON, detect_changes


def tables_of(udg):
    return {u: frozenset(udg.neighbors(u)) for u in udg.nodes()}


class TestStableNetwork:
    def test_no_churn_detected(self, deployment):
        udg = deployment.udg()
        outcome = detect_changes(
            list(deployment.points), deployment.radius, tables_of(udg)
        )
        assert not outcome.any_change
        assert outcome.lost_links() == frozenset()

    def test_beacon_cost(self, deployment):
        udg = deployment.udg()
        outcome = detect_changes(
            list(deployment.points), deployment.radius, tables_of(udg),
            beacon_rounds=3,
        )
        assert outcome.stats.per_kind[BEACON] == 3 * udg.node_count
        assert outcome.stats.max_per_node() == 3


class TestChurnDetection:
    def setup_world(self):
        pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
        udg = UnitDiskGraph(pts, 1.2)
        return pts, udg

    def test_lost_neighbor(self):
        pts, udg = self.setup_world()
        moved = [pts[0], Point(5.0, 0.0), pts[2]]  # node 1 walks away
        outcome = detect_changes(moved, 1.2, tables_of(udg))
        assert 1 in outcome.changes[0].lost
        assert 1 in outcome.changes[2].lost
        assert (0, 1) in outcome.lost_links()
        assert (1, 2) in outcome.lost_links()

    def test_gained_neighbor(self):
        pts, udg = self.setup_world()
        moved = [pts[0], pts[1], Point(1.0, 0.5)]  # node 2 moves near 0
        outcome = detect_changes(moved, 1.2, tables_of(udg))
        assert 2 in outcome.changes[0].gained
        assert 0 in outcome.changes[2].gained

    def test_matches_omniscient_diff(self, deployment):
        # The distributed detection equals the global neighborhood diff.
        rng = random.Random(9)
        moved = [
            Point(p.x + rng.uniform(-20, 20), p.y + rng.uniform(-20, 20))
            for p in deployment.points
        ]
        old_udg = deployment.udg()
        new_udg = UnitDiskGraph(moved, deployment.radius)
        outcome = detect_changes(moved, deployment.radius, tables_of(old_udg))
        omniscient = frozenset(
            u
            for u in old_udg.nodes()
            if old_udg.neighbors(u) != new_udg.neighbors(u)
        )
        detected = frozenset(
            node for node, change in outcome.changes.items() if change.changed
        )
        assert detected == omniscient


class TestValidation:
    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            detect_changes([Point(0, 0)], 1.0, {}, beacon_rounds=0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            detect_changes(
                [Point(0, 0)], 1.0, {}, beacon_rounds=2, miss_threshold=3
            )

    def test_unknown_node_table_defaults_empty(self):
        # A brand-new node (no previous table) gains all its neighbors.
        pts = [Point(0, 0), Point(0.5, 0)]
        outcome = detect_changes(pts, 1.0, {0: frozenset({1})})
        assert outcome.changes[1].gained == frozenset({0})
        assert not outcome.changes[0].changed
