"""Tests for the incremental spanner maintenance engine.

Every test here leans on the non-negotiable tripwire: after any event
batch, the maintained UDG, roles, and backbone graphs must be
**bit-identical** to a from-scratch rebuild at the current positions
(`IncrementalMaintainer.verify`).
"""

import contextlib
import json
import math
import random
from collections import Counter

import pytest

from repro import obs
from repro.geometry.primitives import Point
from repro.incremental.connectors import IncrementalConnectors
from repro.incremental.engine import IncrementalMaintainer
from repro.incremental.events import (
    Event,
    InvalidBatch,
    check_batch,
    parse_event,
    parse_events,
)
from repro.incremental.session import IncrementalSession
from repro.incremental.tiles import (
    ACCEPTANCE_HALO,
    ELECTION_HALO,
    DynamicTileGrid,
    box_distance,
)
from repro.mobility.session import run_mobility_session
from repro.workloads.generators import connected_udg_instance


def make_deployment(n=90, seed=5, radius=25.0):
    """The bench deployment recipe at test scale (constant density)."""
    side = 10.0 * math.sqrt(n)
    return connected_udg_instance(n, side, radius, random.Random(seed))


def make_maintainer(n=90, seed=5):
    dep = make_deployment(n, seed)
    return dep, IncrementalMaintainer(list(dep.points), dep.radius)


def assert_identical(maintainer):
    outcome = maintainer.verify()
    assert outcome["identical"], f"mismatches: {outcome['mismatches']}"


class TestEvents:
    def test_move_needs_node_and_point(self):
        with pytest.raises(ValueError):
            Event("move", x=1.0, y=2.0)
        with pytest.raises(ValueError):
            Event("move", node=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Event("teleport", node=0, x=1.0, y=2.0)

    def test_parse_round_trip(self):
        specs = [
            {"kind": "move", "node": 3, "x": 1.5, "y": 2.5},
            {"kind": "join", "x": 0.0, "y": 0.0},
            {"kind": "leave", "node": 7},
        ]
        events = parse_events(specs)
        assert [e.as_dict() for e in events] == specs

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            parse_event({"kind": 7})
        with pytest.raises(ValueError):
            parse_event({"kind": "move", "node": "three", "x": 1, "y": 2})
        with pytest.raises(ValueError):
            parse_event({"kind": "move", "node": 3, "x": "east", "y": 2})

    def test_parse_rejects_non_finite_coordinates(self):
        # json.loads accepts NaN / Infinity / 1e999; none is a position.
        for spec in json.loads(
            '[{"kind": "move", "node": 3, "x": NaN, "y": 2},'
            ' {"kind": "join", "x": 1, "y": -Infinity},'
            ' {"kind": "join", "x": 1e999, "y": 0}]'
        ) + [{"kind": "join", "x": 10**400, "y": 0}]:
            with pytest.raises(ValueError, match="finite"):
                parse_event(spec)

    def test_check_batch_counts_through_joins_and_leaves(self):
        check_batch([Event("join", x=0.0, y=0.0), Event("move", node=5, x=0, y=0)], 5)
        check_batch([Event("leave", node=4), Event("leave", node=3)], 5)
        for batch in (
            [Event("leave", node=4), Event("move", node=4, x=0.0, y=0.0)],
            [Event("move", node=-1, x=0.0, y=0.0)],
            [Event("join", x=0.0, y=0.0), Event("leave", node=6)],
        ):
            with pytest.raises(InvalidBatch):
                check_batch(batch, 5)


class TestAtomicBatches:
    def test_rejected_batch_changes_nothing(self):
        # The later event is invalid: the earlier move must not land.
        _, maintainer = make_maintainer(n=60, seed=3)
        before = maintainer.snapshot()
        p = maintainer.udg.positions[3]
        with pytest.raises(InvalidBatch, match="9999"):
            maintainer.apply(
                [
                    Event("move", node=3, x=p.x + 10.0, y=p.y),
                    Event("move", node=9999, x=p.x, y=p.y),
                ]
            )
        assert maintainer.snapshot() == before
        assert maintainer.steps == 0
        assert_identical(maintainer)
        maintainer.apply([Event("move", node=3, x=p.x + 10.0, y=p.y)])
        assert_identical(maintainer)

    def test_id_left_earlier_in_the_batch_is_unknown(self):
        _, maintainer = make_maintainer(n=60, seed=3)
        last = maintainer.udg.node_count - 1
        with pytest.raises(InvalidBatch):
            maintainer.apply([Event("leave", node=0), Event("leave", node=last)])
        assert maintainer.udg.node_count == last + 1
        assert_identical(maintainer)


class TestMaintainerEquivalence:
    def test_initial_state_matches_rebuild(self):
        _, maintainer = make_maintainer()
        assert_identical(maintainer)

    def test_single_moves_stay_bit_identical(self):
        dep, maintainer = make_maintainer(n=120, seed=9)
        n = len(dep.points)
        rng = random.Random(17)
        for step in range(20):
            mover = rng.randrange(n)
            p = maintainer.udg.positions[mover]
            q = Point(
                min(max(p.x + rng.uniform(-12, 12), 0.0), dep.side),
                min(max(p.y + rng.uniform(-12, 12), 0.0), dep.side),
            )
            report = maintainer.apply([Event("move", node=mover, x=q.x, y=q.y)])
            assert report.events == 1
            if step % 4 == 3:
                assert_identical(maintainer)
        assert_identical(maintainer)

    def test_move_batches_stay_bit_identical(self):
        dep, maintainer = make_maintainer(n=120, seed=3)
        n = len(dep.points)
        rng = random.Random(23)
        for step in range(8):
            movers = rng.sample(range(n), 5)
            events = []
            for mover in movers:
                p = maintainer.udg.positions[mover]
                events.append(
                    Event(
                        "move",
                        node=mover,
                        x=min(max(p.x + rng.uniform(-15, 15), 0.0), dep.side),
                        y=min(max(p.y + rng.uniform(-15, 15), 0.0), dep.side),
                    )
                )
            maintainer.apply(events)
            assert_identical(maintainer)

    def test_joins_and_leaves_stay_bit_identical(self):
        dep, maintainer = make_maintainer(n=80, seed=11)
        rng = random.Random(31)
        for _ in range(10):
            n = maintainer.udg.node_count
            roll = rng.random()
            if roll < 0.4:
                anchor = maintainer.udg.positions[rng.randrange(n)]
                events = [
                    Event(
                        "join",
                        x=min(max(anchor.x + rng.uniform(-10, 10), 0.0), dep.side),
                        y=min(max(anchor.y + rng.uniform(-10, 10), 0.0), dep.side),
                    )
                ]
            elif roll < 0.8:
                events = [Event("leave", node=rng.randrange(n))]
            else:
                mover = rng.randrange(n)
                p = maintainer.udg.positions[mover]
                events = [
                    Event(
                        "move",
                        node=mover,
                        x=min(max(p.x + rng.uniform(-12, 12), 0.0), dep.side),
                        y=min(max(p.y + rng.uniform(-12, 12), 0.0), dep.side),
                    )
                ]
            maintainer.apply(events)
            assert_identical(maintainer)

    def test_leave_of_last_id_stays_bit_identical(self):
        _, maintainer = make_maintainer(n=60, seed=2)
        last = maintainer.udg.node_count - 1
        maintainer.apply([Event("leave", node=last)])
        assert maintainer.udg.node_count == last
        assert_identical(maintainer)

    def test_leave_counts_the_departed_links(self):
        # Node 5 has ten links; a leave takes all of them, and the
        # session totals follow the step report.
        _, maintainer = make_maintainer(n=60, seed=3)
        assert len(maintainer.udg.adjacency[5]) == 10
        session = IncrementalSession(maintainer)
        report = session.step([Event("leave", node=5)])
        assert report.vanished_links == 10
        assert report.appeared_links == 0
        assert session.counters()["vanished_links"] == 10
        assert_identical(maintainer)

    def test_mixed_batch_with_rename_chain(self):
        # A batch whose later events refer to ids recycled earlier in
        # the same batch (the swap-remove convention).
        _, maintainer = make_maintainer(n=60, seed=8)
        n = maintainer.udg.node_count
        p = maintainer.udg.positions[0]
        events = [
            Event("leave", node=0),        # renames n-1 -> 0
            Event("move", node=0, x=p.x + 5.0, y=p.y),  # moves old n-1
            Event("join", x=p.x, y=p.y),   # new node takes id n-1
        ]
        maintainer.apply(events)
        assert maintainer.udg.node_count == n
        assert_identical(maintainer)

    def test_quiet_step_skips_planarizer_work(self):
        _, maintainer = make_maintainer(n=90, seed=5)
        backbone = maintainer.snapshot().backbone_nodes
        free = next(
            u for u in range(maintainer.udg.node_count) if u not in backbone
        )
        p = maintainer.udg.positions[free]
        report = maintainer.apply(
            [Event("move", node=free, x=p.x + 1e-6, y=p.y)]
        )
        # No adjacency, role, or membership change: the planarizer sees
        # no dirt and the connector election is skipped outright.
        assert report.dirty_nodes == 0
        assert report.role_changes == 0
        assert report.edges_added == ()
        assert report.edges_removed == ()
        assert_identical(maintainer)

    def test_report_shape(self):
        dep, maintainer = make_maintainer(n=60, seed=4)
        p = maintainer.udg.positions[10]
        with obs.recording() as record:
            report = maintainer.apply(
                [Event("move", node=10, x=p.x + 20.0, y=p.y)]
            )
        data = report.as_dict()
        for key in (
            "events", "node_count", "appeared_links", "vanished_links",
            "role_changes", "repairs_certified", "repairs_fallback",
            "dirty_tiles", "contest_triangles", "dirty_nodes", "dirty_fraction",
            "edges_added", "edges_removed",
        ):
            assert key in data
        assert data["events"] == 1
        spans = {name for name, _ in record["spans"]}
        for phase in ("udg", "election", "roles", "pldel", "assemble"):
            assert f"incremental.phase.{phase}" in spans
        assert 0.0 <= data["dirty_fraction"] <= 1.0


class TestDynamicTileGrid:
    def test_points_on_tile_lines_belong_to_one_tile(self):
        grid = DynamicTileGrid(25.0, tile_cells=2)
        # Half-open cores: a point on a line belongs to the tile on its
        # right / top, also past the origin and at any distance.
        assert grid.key_of(Point(50.0, 0.0)) == (1, 0)
        assert grid.key_of(Point(49.999, 50.0)) == (0, 1)
        assert grid.key_of(Point(-50.0, -0.001)) == (-1, -1)
        assert grid.key_of(Point(5000.0, -5000.0)) == (100, -100)
        assert grid.box((1, -1)) == (50.0, -50.0, 100.0, 0.0)

    @pytest.mark.parametrize("tile_cells", [1, 2, 3])
    def test_keys_within_is_exactly_the_halo(self, tile_cells):
        grid = DynamicTileGrid(25.0, tile_cells=tile_cells)
        rng = random.Random(tile_cells)
        for _ in range(50):
            p = Point(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0))
            halo = rng.choice([ACCEPTANCE_HALO, ELECTION_HALO]) * 25.0
            window = range(-20, 21)
            brute = {
                (ix, iy)
                for ix in window
                for iy in window
                if box_distance(grid.box((ix, iy)), p) <= halo
            }
            assert set(grid.keys_within(p, halo)) == brute

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DynamicTileGrid(0.0)
        with pytest.raises(ValueError):
            DynamicTileGrid(25.0, tile_cells=0)


def _planted_step(pldel, triangles, moves=()):
    """One contest-and-stitch step over planted accepted triangles.

    Uniform deployments almost never accept intersecting triangles, so
    these tests plant them: the planted set plays phase A's part
    (every triangle stays accepted wherever its vertices go), and moved
    vertices are the step's dirty ids.  Returns the step's added and
    removed edges and the number of triangles replayed.
    """
    before = {t for t in triangles if t in pldel._tris.boxes}
    for node, (x, y) in moves:
        pldel.udg.move(node, Point(x, y))
    return pldel._commit(
        before, set(triangles), Counter(), {node for node, _ in moves}
    )


def _assert_matches_global_contest(pldel, triangles):
    """Fates, partners and edges equal one contest over every triangle."""
    from repro.topology.ldel import contest_triangles

    removed, pairs = contest_triangles(
        pldel.udg.positions, triangles, pldel.udg.radius
    )
    assert pldel._losers == {t for t, gone in zip(triangles, removed) if gone}
    partners = {}
    for i, j in pairs:
        partners.setdefault(triangles[i], set()).add(triangles[j])
        partners.setdefault(triangles[j], set()).add(triangles[i])
    assert pldel._partners == partners
    survivors = [t for t in triangles if t not in pldel._losers]
    assert pldel.edges() == {
        e for u, v, w in survivors for e in ((u, v), (v, w), (u, w))
    }


class TestContestReplay:
    def test_one_contest_call_per_step(self, monkeypatch):
        # Locality tripwire: a single move replays the contest once,
        # over the triangles near what it changed; replaying whole tiles
        # around the move hands over most of the accepted set.
        import repro.incremental.pldel as pldel_module

        calls = []
        real = pldel_module.contest_triangles

        def counting(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(pldel_module, "contest_triangles", counting)
        _, maintainer = make_maintainer(n=1000, seed=5)
        rng = random.Random(3)
        contested = 0
        for _ in range(6):
            backbone = sorted(maintainer.snapshot().backbone_nodes)
            node = rng.choice(backbone)
            p = maintainer.udg.positions[node]
            calls.clear()
            report = maintainer.apply(
                [Event("move", node=node, x=p.x + rng.uniform(-15.0, 15.0),
                       y=p.y + rng.uniform(-15.0, 15.0))]
            )
            accepted = len(maintainer.pldel._tris.boxes)
            assert len(calls) == (1 if report.contest_triangles else 0)
            assert all(size <= 0.25 * accepted for size in calls)
            contested += bool(report.contest_triangles)
        assert contested
        assert_identical(maintainer)

    @pytest.mark.parametrize("scalar", [False, True])
    def test_sliver_loses_the_contest(self, scalar):
        # A crafted Algorithm 3 contest: the sliver's huge circumcircle
        # swallows a vertex of the crossing triangle, whose own
        # circumcircle holds no sliver vertex.  Uniform deployments
        # never accept such a pair, so the two triangles are planted
        # as accepted outputs of phase A.
        from repro.core import compat
        from repro.incremental.pldel import IncrementalPLDel
        from repro.incremental.udg import DynamicUdg

        radius = 25.0
        points = [(0.0, 0.0), (10.0, 0.0), (5.0, 0.5),
                  (5.0, -9.0), (6.0, -9.0), (5.5, 0.2)]
        pldel = IncrementalPLDel(DynamicUdg(points, radius))
        sliver, crossing = (0, 1, 2), (3, 4, 5)
        with compat.numpy_disabled() if scalar else contextlib.nullcontext():
            _planted_step(pldel, [sliver, crossing])
        assert pldel._losers == {sliver}
        assert pldel.edges() == {(3, 4), (4, 5), (3, 5)}

    @pytest.mark.parametrize("scalar", [False, True])
    def test_replay_follows_intersections_that_come_and_go(self, scalar):
        # The sliver pair again, with the crossing triangle's apex (5)
        # starting below the sliver.  Moving it up creates the
        # intersection: the untouched sliver must be found as a new
        # partner and lose.  Moving it back removes the intersection:
        # the sliver lost its only rival and must be restored.  A
        # bystander pair far away intersects throughout and keeps its
        # verdict without being replayed.
        from repro.core import compat
        from repro.incremental.pldel import IncrementalPLDel
        from repro.incremental.udg import DynamicUdg

        radius = 25.0
        points = [(0.0, 0.0), (10.0, 0.0), (5.0, 0.5),
                  (5.0, -9.0), (6.0, -9.0), (5.5, -3.0),
                  (200.0, 0.0), (210.0, 0.0), (205.0, 0.5),
                  (205.0, -9.0), (206.0, -9.0), (205.5, 0.2)]
        pldel = IncrementalPLDel(DynamicUdg(points, radius))
        sliver, crossing = (0, 1, 2), (3, 4, 5)
        triangles = [sliver, crossing, (6, 7, 8), (9, 10, 11)]
        with compat.numpy_disabled() if scalar else contextlib.nullcontext():
            added, removed, _ = _planted_step(pldel, triangles)
            _assert_matches_global_contest(pldel, triangles)
            assert pldel._losers == {(6, 7, 8)}
            assert removed == []

            added, removed, replayed = _planted_step(
                pldel, triangles, [(5, (5.5, 0.2))]
            )
            _assert_matches_global_contest(pldel, triangles)
            assert replayed == 2  # the moved triangle and the sliver
            assert pldel._losers == {sliver, (6, 7, 8)}
            assert removed == [(0, 1), (0, 2), (1, 2)]
            assert added == []

            added, removed, replayed = _planted_step(
                pldel, triangles, [(5, (5.5, -3.0))]
            )
            _assert_matches_global_contest(pldel, triangles)
            assert replayed == 2
            assert pldel._losers == {(6, 7, 8)}
            assert added == [(0, 1), (0, 2), (1, 2)]
            assert removed == []


def _step_with_stats(maintainer, events):
    """Apply ``events``; return the report and the planarizer's stats."""
    seen = []
    real = maintainer.pldel.step

    def recording(*args):
        out = real(*args)
        seen.append(out[2])
        return out

    maintainer.pldel.step = recording
    try:
        report = maintainer.apply(events)
    finally:
        del maintainer.pldel.step
    (stats,) = seen
    return report, stats


class TestCavityBoundaries:
    """Steps whose cavity sits on a tie: distance exactly ``r``,
    coincident points, cocircular quadruples and id churn."""

    def test_move_to_exactly_r_from_a_member(self):
        _, maintainer = make_maintainer(n=120, seed=9)
        members = sorted(maintainer.snapshot().backbone_nodes)
        mover, anchor = members[0], members[5]
        # Integral coordinates make the offset, so the distance, exact.
        p = maintainer.udg.positions[anchor]
        x, y = float(round(p.x)), float(round(p.y))
        maintainer.apply([Event("move", node=anchor, x=x, y=y)])
        assert_identical(maintainer)
        maintainer.apply([Event("move", node=mover, x=x + 25.0, y=y)])
        assert mover in maintainer.udg.adjacency[anchor]  # the link at dist == r
        assert_identical(maintainer)
        maintainer.apply([Event("move", node=mover, x=x + 25.0, y=y + 1.0)])
        assert mover not in maintainer.udg.adjacency[anchor]
        assert_identical(maintainer)

    def test_move_onto_another_members_position(self):
        _, maintainer = make_maintainer(n=120, seed=9)
        members = sorted(maintainer.snapshot().backbone_nodes)
        for mover, host in ((members[8], members[10]), (members[3], members[10])):
            p = maintainer.udg.positions[host]
            maintainer.apply([Event("move", node=mover, x=p.x, y=p.y)])
            assert maintainer.udg.positions[mover] == p
            assert_identical(maintainer)

    @pytest.mark.parametrize("scalar", [False, True])
    def test_moves_on_an_exact_cocircular_grid(self, scalar):
        from repro.core import compat

        with compat.numpy_disabled() if scalar else contextlib.nullcontext():
            grid = [(float(i), float(j)) for i in range(12) for j in range(12)]
            maintainer = IncrementalMaintainer(grid, 1.5)
            assert_identical(maintainer)
            members = sorted(maintainer.snapshot().backbone_nodes)
            # Whole-unit moves land on grid points: every circle through
            # a unit square's corners stays cocircular, and the mover
            # coincides with the node already there.
            for node, dx, dy in ((members[20], 1.0, 0.0), (members[40], 0.0, 1.0),
                                 (members[60], 1.0, 1.0), (7, 0.5, 0.5)):
                p = maintainer.udg.positions[node]
                maintainer.apply([Event("move", node=node, x=p.x + dx, y=p.y + dy)])
                assert_identical(maintainer)

    def test_leave_that_renames_a_member(self):
        _, maintainer = make_maintainer(n=120, seed=9)
        members = maintainer.snapshot().backbone_nodes
        last = maintainer.udg.node_count - 1
        # Retire last ids until a member holds the last one.
        while last not in members:
            maintainer.apply([Event("leave", node=last)])
            last -= 1
            members = maintainer.snapshot().backbone_nodes
        node = min(u for u in members if u != last)
        before = maintainer.udg.positions[last]
        report = maintainer.apply([Event("leave", node=node)])
        assert maintainer.udg.positions[node] == before  # renamed last -> node
        assert report.dirty_nodes > 0
        assert_identical(maintainer)

    def test_non_member_move_that_flips_a_membership(self):
        _, maintainer = make_maintainer(n=120, seed=9)
        rng = random.Random(5)
        for _ in range(200):
            before = maintainer.snapshot().backbone_nodes
            mover = rng.choice(
                [u for u in range(maintainer.udg.node_count) if u not in before]
            )
            p = maintainer.udg.positions[mover]
            maintainer.apply([Event(
                "move", node=mover,
                x=min(max(p.x + rng.uniform(-20, 20), 0.0), 109.5),
                y=min(max(p.y + rng.uniform(-20, 20), 0.0), 109.5),
            )])
            flipped = before.symmetric_difference(maintainer.snapshot().backbone_nodes)
            if flipped - {mover}:
                break
        else:
            pytest.fail("no non-member move flipped another node's membership")
        assert_identical(maintainer)


class TestCavityLocality:
    def test_stars_are_exactly_the_cavity(self):
        # The cavity, recomputed from adjacency: the mover (when it is a
        # member on either side) and every node whose membership
        # flipped, plus their neighbours in the member graph before or
        # after the move; stars are recomputed for its members only.
        _, maintainer = make_maintainer(n=400, seed=12)
        rng = random.Random(50)
        reached = 0
        for _ in range(50):
            before = maintainer.snapshot().backbone_nodes
            adjacency_before = [set(a) for a in maintainer.udg.adjacency]
            mover = rng.choice(sorted(before))
            p = maintainer.udg.positions[mover]
            report, stats = _step_with_stats(maintainer, [Event(
                "move", node=mover,
                x=min(max(p.x + rng.uniform(-15, 15), 0.0), 200.0),
                y=min(max(p.y + rng.uniform(-15, 15), 0.0), 200.0),
            )])
            after = maintainer.snapshot().backbone_nodes
            dirty = {mover} | before.symmetric_difference(after)
            cavity = set(dirty)
            for x in dirty:
                if x in before:
                    cavity.update(adjacency_before[x] & before)
                if x in after:
                    cavity.update(maintainer.udg.adjacency[x] & after)
            assert stats.stars == len(cavity & after)
            assert stats.dirty_members == report.dirty_nodes
            reached += stats.verdicts > 0
        assert reached
        assert_identical(maintainer)

    def test_quiet_non_member_move_recomputes_nothing(self):
        _, maintainer = make_maintainer(n=120, seed=9)
        rng = random.Random(8)
        checked = 0
        for _ in range(40):
            before = maintainer.snapshot().backbone_nodes
            ldel = maintainer.pldel.edges()
            mover = rng.choice(
                [u for u in range(maintainer.udg.node_count) if u not in before]
            )
            p = maintainer.udg.positions[mover]
            report, stats = _step_with_stats(maintainer, [Event(
                "move", node=mover,
                x=min(max(p.x + rng.uniform(-5, 5), 0.0), 109.5),
                y=min(max(p.y + rng.uniform(-5, 5), 0.0), 109.5),
            )])
            if maintainer.snapshot().backbone_nodes != before:
                continue
            # Links to members may come and go: the member graph, and so
            # every star, verdict and Gabriel test, stays as it was.
            checked += bool(report.appeared_links or report.vanished_links)
            assert (stats.stars, stats.verdicts, report.dirty_nodes) == (0, 0, 0)
            assert maintainer.pldel.edges() == ldel
        assert checked
        assert_identical(maintainer)


class TestIncrementalConnectors:
    def test_update_matches_fresh_rebuild(self):
        dep, maintainer = make_maintainer(n=120, seed=6)
        n = len(dep.points)
        rng = random.Random(77)
        for _ in range(12):
            mover = rng.randrange(n)
            p = maintainer.udg.positions[mover]
            maintainer.apply(
                [
                    Event(
                        "move",
                        node=mover,
                        x=min(max(p.x + rng.uniform(-15, 15), 0.0), dep.side),
                        y=min(max(p.y + rng.uniform(-15, 15), 0.0), dep.side),
                    )
                ]
            )
        fresh = IncrementalConnectors(maintainer.udg)
        fresh.rebuild(maintainer._status, maintainer._doms_of)
        assert fresh.connectors == maintainer._iconn.connectors
        assert fresh.cds_edges == maintainer._iconn.cds_edges


class TestIncrementalSession:
    def test_waypoint_session_all_verified(self):
        dep = make_deployment(n=100, seed=14)
        result = run_mobility_session(
            dep,
            policy="incremental",
            steps=12,
            move_fraction=0.05,
            seed=1,
            verify_every=3,
        )
        assert result.all_verified
        assert len(result.steps) == 12
        counters = result.counters
        assert counters["steps"] == 12
        assert counters["verifications"] == 4
        assert counters["verification_failures"] == 0
        assert counters["events"] == 12 * max(1, round(0.05 * 100))
        assert 0.0 <= result.mean_dirty_fraction <= 1.0

    def test_session_is_reproducible(self):
        dep = make_deployment(n=80, seed=21)
        a = run_mobility_session(dep, policy="incremental", steps=8, seed=5)
        b = run_mobility_session(dep, policy="incremental", steps=8, seed=5)
        assert a.steps == b.steps
        assert a.counters == b.counters

    def test_session_records_verification_failures(self):
        # A session whose maintainer is silently corrupted must report
        # the tripwire failure instead of hiding it.
        dep = make_deployment(n=60, seed=2)
        session = IncrementalSession(
            IncrementalMaintainer(list(dep.points), dep.radius)
        )
        session.maintainer._icds_edges = frozenset({(0, 1)})
        p = session.maintainer.udg.positions[3]
        session.step(
            [Event("move", node=3, x=p.x + 1e-7, y=p.y)], verify=True
        )
        assert session.counters()["verification_failures"] == 1

    def test_session_keeps_totals_not_reports(self):
        # A long-lived session must not grow with its step count, and
        # its counters must equal the sums over the step reports.
        from repro.incremental.session import SUMMED_FIELDS

        dep = make_deployment(n=80, seed=21)
        session = IncrementalSession(
            IncrementalMaintainer(list(dep.points), dep.radius)
        )
        rng = random.Random(9)
        sums = dict.fromkeys(SUMMED_FIELDS, 0)
        fractions = []
        sizes = None
        for _ in range(10):
            mover = rng.randrange(80)
            p = session.maintainer.udg.positions[mover]
            report = session.step(
                [Event("move", node=mover, x=p.x + rng.uniform(-10, 10),
                       y=p.y + rng.uniform(-10, 10))]
            )
            for name in SUMMED_FIELDS:
                sums[name] += getattr(report, name)
            fractions.append(report.dirty_fraction)
            state = {
                name: len(value)
                for name, value in vars(session).items()
                if isinstance(value, (list, dict, set, tuple))
            }
            sizes = sizes or state
            assert state == sizes
        counters = session.counters()
        assert counters["steps"] == session.steps == 10
        assert {name: counters[name] for name in SUMMED_FIELDS} == sums
        assert sums["contest_triangles"] > 0
        assert counters["mean_dirty_fraction"] == pytest.approx(
            sum(fractions) / 10
        )

    def test_bad_arguments_rejected(self):
        dep = make_deployment(n=60, seed=2)
        with pytest.raises(ValueError):
            run_mobility_session(dep, policy="incremental", steps=-1)
        with pytest.raises(ValueError):
            run_mobility_session(
                dep, policy="incremental", steps=1, move_fraction=0.0
            )
