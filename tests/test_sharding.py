"""Equivalence suite for the tiled sharded constructions.

The sharded builds promise *bit-identical* output to the serial
pipeline: the tile grid plus per-stage halos must reproduce every
decision exactly, including on the inputs where a sharding bug would
hide — exact grids (cocircular quadruples everywhere, many of them
straddling tile lines), collinear lines crossing tiles, nodes placed
exactly on tile boundaries, and deployments dense enough that
planarization contests straddle tiles.

Shard counts {1, 2, 4, 9} cover the degenerate single-tile case, an
uneven 1x2 split, and square grids whose interior lines cut through
the deployment.
"""

import math
import random

import pytest

from repro.core.spanner import build_backbone
from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.sharding import (
    STAGE_HALO,
    ShardingStats,
    TileGrid,
    sharded_backbone,
    sharded_gabriel,
    sharded_ldel,
    sharded_pldel,
    sharded_udg,
    stage_halo,
)
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import local_delaunay_graph, planar_local_delaunay_graph

RADIUS = 25.0
SHARD_COUNTS = (1, 2, 4, 9)


def _random_points(n=80, side=120.0, seed=7):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]


def _grid_points(rows=8, cols=8, spacing=12.5):
    # spacing = radius/2 puts every other column exactly on the
    # r-aligned tile lines, and every unit square is an exactly
    # cocircular quadruple.
    return [
        Point(c * spacing, r * spacing) for r in range(rows) for c in range(cols)
    ]


def _collinear_points(n=14, spacing=10.0):
    # A line crossing several 25-unit tiles, nodes at multiples of 10:
    # indices 5 and 10 sit exactly on tile boundaries (x=50, x=100).
    return [Point(i * spacing, 30.0) for i in range(n)]


def _boundary_points():
    """Nodes exactly on tile lines plus clusters straddling them.

    With radius 25 the grid lines sit at multiples of 25; this set
    places nodes *on* x=25/y=25 lines (including a corner), and tight
    clusters on both sides so Gabriel witnesses and LDel proposals
    cross the boundary.
    """
    pts = [
        Point(25.0, 10.0), Point(25.0, 25.0), Point(25.0, 40.0),  # on x=25
        Point(10.0, 25.0), Point(40.0, 25.0),                     # on y=25
        Point(50.0, 50.0),                                        # on a corner
    ]
    rng = random.Random(13)
    for _ in range(40):
        # Clusters hugging the x=25 line from both sides.
        pts.append(Point(25.0 + rng.uniform(-8.0, 8.0), rng.uniform(0.0, 60.0)))
    for _ in range(20):
        pts.append(Point(rng.uniform(0.0, 60.0), 25.0 + rng.uniform(-4.0, 4.0)))
    return pts


def _dense_points(n=150, side=70.0, seed=23):
    """Dense enough that LDel^1 accepts intersecting triangles."""
    rng = random.Random(seed)
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]


DEPLOYMENTS = {
    "random": _random_points,
    "grid": _grid_points,
    "collinear": _collinear_points,
    "boundary": _boundary_points,
    "dense": _dense_points,
}


@pytest.fixture(params=sorted(DEPLOYMENTS))
def points(request):
    return DEPLOYMENTS[request.param]()


@pytest.fixture(params=SHARD_COUNTS)
def shards(request):
    return request.param


class TestShardedEqualsSerial:
    """Every sharded construction is bit-identical to its serial twin."""

    def test_udg(self, points, shards):
        serial = UnitDiskGraph(points, RADIUS)
        graph, _ = sharded_udg(points, RADIUS, shards=shards, executor_mode="serial")
        assert graph.edge_set() == serial.edge_set()

    def test_gabriel(self, points, shards):
        serial = gabriel_graph(UnitDiskGraph(points, RADIUS))
        graph, _ = sharded_gabriel(
            points, RADIUS, shards=shards, executor_mode="serial"
        )
        assert graph.edge_set() == serial.edge_set()

    def test_ldel1(self, points, shards):
        serial = local_delaunay_graph(UnitDiskGraph(points, RADIUS), k=1)
        result, _ = sharded_ldel(
            points, RADIUS, k=1, shards=shards, executor_mode="serial"
        )
        assert result.graph.edge_set() == serial.graph.edge_set()
        assert result.triangles == serial.triangles
        assert result.gabriel_edges == serial.gabriel_edges

    def test_ldel2(self, points, shards):
        serial = local_delaunay_graph(UnitDiskGraph(points, RADIUS), k=2)
        result, _ = sharded_ldel(
            points, RADIUS, k=2, shards=shards, executor_mode="serial"
        )
        assert result.graph.edge_set() == serial.graph.edge_set()
        assert result.triangles == serial.triangles

    def test_pldel(self, points, shards):
        serial = planar_local_delaunay_graph(UnitDiskGraph(points, RADIUS))
        result, stats = sharded_pldel(
            points, RADIUS, shards=shards, executor_mode="serial"
        )
        assert result.graph.edge_set() == serial.graph.edge_set()
        assert result.triangles == serial.triangles
        assert isinstance(stats, ShardingStats)
        assert stats.counters["surviving_triangles"] == len(serial.triangles)

    def test_backbone(self, points, shards):
        serial = build_backbone(points, RADIUS)
        result, _ = sharded_backbone(
            points, RADIUS, shards=shards, executor_mode="serial"
        )
        assert result.dominators == serial.dominators
        assert result.connectors == serial.connectors
        for attr in ("cds", "icds", "ldel_icds", "ldel_icds_prime"):
            assert getattr(result, attr).edge_set() == getattr(serial, attr).edge_set(), attr


class TestThreadFanout:
    """The executor fan-out path yields the same stitch as serial mode."""

    def test_pldel_threaded(self):
        points = _dense_points()
        serial = planar_local_delaunay_graph(UnitDiskGraph(points, RADIUS))
        result, stats = sharded_pldel(
            points, RADIUS, shards=4, max_workers=2, executor_mode="thread"
        )
        assert result.graph.edge_set() == serial.graph.edge_set()
        assert result.triangles == serial.triangles
        assert stats.workers == 2


class TestShardingStats:
    def test_counters_and_phases(self):
        points = _dense_points()
        _, stats = sharded_pldel(points, RADIUS, shards=4, executor_mode="serial")
        assert stats.tiles >= 1
        assert stats.grid[0] * stats.grid[1] == stats.tiles
        assert stats.counters["accepted_triangles"] >= stats.counters[
            "surviving_triangles"
        ]
        for phase in ("assign", "build", "stitch"):
            assert phase in stats.phase_seconds
        assert len(stats.tile_seconds) == stats.tiles
        doc = stats.as_dict()
        assert doc["counters"] == stats.counters
        assert doc["grid"] == list(stats.grid)

    def test_contest_worker_replays_removal_rule(self):
        # Accepted LDel^1 triangles intersect only in adversarial
        # configurations that uniform sampling essentially never
        # produces (the >=60-degree proposal rule and the 1-hop
        # witness filter suppress them), so phase B is exercised
        # directly: a sliver triangle whose huge circumcircle swallows
        # a vertex of a second, crossing triangle must lose the
        # contest, exactly as in serial planarize_ldel1.
        from repro.geometry.circle import circumcircle
        from repro.sharding.build import _contest_worker

        t1 = ((0.0, 0.0), (10.0, 0.0), (5.0, 0.5))   # sliver, circle dips deep
        t2 = ((5.0, -9.0), (6.0, -9.0), (5.5, 0.2))  # edge crosses t1's base
        c1 = circumcircle(Point(*t1[0]), Point(*t1[1]), Point(*t1[2]))
        assert c1 is not None and c1.contains(Point(*t2[0]))

        payload = ((0, 0), [(0, 1, 2), (3, 4, 5)], [t1, t2], [True, True], 25.0)
        out = _contest_worker(payload)
        assert out["contests"] == 1
        assert out["straddle_contests"] == 0
        assert (0, 1, 2) not in out["survivors"]

    def test_contest_worker_counts_straddle(self):
        from repro.sharding.build import _contest_worker

        t1 = ((0.0, 0.0), (10.0, 0.0), (5.0, 0.5))
        t2 = ((5.0, -9.0), (6.0, -9.0), (5.5, 0.2))
        # The same contest with the triangles owned by different tiles
        # is cross-tile reconciliation work and must be counted.
        payload = ((0, 0), [(0, 1, 2), (3, 4, 5)], [t1, t2], [True, False], 25.0)
        out = _contest_worker(payload)
        assert out["straddle_contests"] == 1
        # Only owned survivors are reported; the foreign triangle's
        # fate belongs to its owner tile.
        assert all(tri == (0, 1, 2) for tri in out["survivors"])


class TestTileGrid:
    def test_assignment_is_partition(self):
        points = _boundary_points()
        grid = TileGrid(points, RADIUS, 4)
        owned = grid.assign(points)
        ids = sorted(i for members in owned.values() for i in members)
        assert ids == list(range(len(points)))

    def test_nodes_on_lines_assigned_deterministically(self):
        grid = TileGrid([Point(0, 0), Point(100, 100)], 25.0, 16)
        # Half-open cores: a node exactly on an interior line belongs
        # to the tile on its right/top.
        assert grid.tile_of(Point(25.0, 10.0))[0] == grid.tile_of(Point(26.0, 10.0))[0]
        assert grid.tile_of(Point(25.0, 10.0))[0] != grid.tile_of(Point(24.0, 10.0))[0]

    def test_far_boundary_clamps(self):
        points = [Point(0.0, 0.0), Point(50.0, 50.0)]
        grid = TileGrid(points, 25.0, 4)
        ix, iy = grid.tile_of(Point(50.0, 50.0))
        assert 0 <= ix < grid.nx and 0 <= iy < grid.ny

    def test_r_aligned_boundaries(self):
        grid = TileGrid(_random_points(), RADIUS, 9)
        for tile in grid.tiles:
            for coord in (tile.x0, tile.y0, tile.x1, tile.y1):
                assert math.isclose(coord / RADIUS, round(coord / RADIUS))

    def test_halo_members_superset_of_core(self):
        points = _random_points()
        grid = TileGrid(points, RADIUS, 4)
        owned = grid.assign(points)
        for tile in grid.tiles:
            members = set(grid.halo_members(tile, points, RADIUS))
            assert set(owned[tile.key]) <= members

    def test_shards_never_exceeded(self):
        points = _random_points()
        for shards in (1, 2, 3, 4, 5, 7, 9, 16, 100):
            grid = TileGrid(points, RADIUS, shards)
            assert 1 <= len(grid) <= shards

    def test_stage_halo(self):
        assert stage_halo("udg") == STAGE_HALO["udg"] == 1
        assert stage_halo("ldel", 1) == 2
        assert stage_halo("ldel", 3) == 4
        assert stage_halo("pldel") == 3
        with pytest.raises(ValueError):
            stage_halo("nonsense")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            TileGrid([], RADIUS, 4)
        with pytest.raises(ValueError):
            TileGrid([Point(0, 0)], RADIUS, 0)
        with pytest.raises(ValueError):
            TileGrid([Point(0, 0)], 0.0, 4)


class TestServiceIntegration:
    """`sharded:*` pipelines serve through the registry and metrics."""

    def test_sharded_pipeline_build(self):
        from repro.service.registry import build_scenario

        scenario = {"nodes": 90, "side": 110.0, "radius": 25.0, "seed": 5}
        serial = build_scenario("ldel", scenario)
        sharded = build_scenario("sharded:ldel", scenario, {"shards": 4})
        assert sharded.graph.edge_set() == serial.graph.edge_set()
        sharding = sharded.extras["sharding"]
        assert sharding["tiles"] >= 1
        assert "phase_seconds" in sharding

    def test_sharded_backbone_pipeline(self):
        from repro.service.registry import build_scenario

        scenario = {"nodes": 90, "side": 110.0, "radius": 25.0, "seed": 5}
        serial = build_scenario("backbone", scenario)
        sharded = build_scenario("sharded:backbone", scenario, {"shards": 4})
        assert sharded.graph.edge_set() == serial.graph.edge_set()
        assert sharded.extras["dominators"] == serial.summary()["dominators"]

    def test_metrics_fold_sharding_counters(self):
        from repro.service.server import SpannerService

        service = SpannerService()
        scenario = {"nodes": 90, "side": 110.0, "radius": 25.0, "seed": 5}
        service.build({"pipeline": "sharded:ldel", "scenario": scenario})
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["sharding.builds"] == 1
        assert counters["sharding.tiles"] >= 1
        assert any(k.startswith("sharding.") for k in counters)

    def test_unknown_param_rejected(self):
        from repro.service.registry import RegistryError, get_pipeline

        spec = get_pipeline("sharded:ldel")
        with pytest.raises(RegistryError):
            spec.canonicalize({"bogus": 1})
        canonical = spec.canonicalize({"shards": 9})
        assert canonical == {"shards": 9, "workers": 0}
