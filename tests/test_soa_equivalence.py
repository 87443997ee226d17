"""SoA construction core vs the pure-Python reference: bit-identity.

The array-native kernels (:mod:`repro.core.soa` and consumers) promise
the *same* graphs as the scalar reference path — not approximately,
bit for bit.  This suite holds every consumer to that on the
deployments where vectorized shortcuts are most likely to diverge:
random clouds at two sizes, exact grids (cocircular quadruples
everywhere), collinear lines, the tile-boundary stress set from the
sharding suite (nodes exactly on tile lines), and a dense cloud where
planarization actually removes triangles.  Each test builds once with
the kernels active and once under
:func:`repro.core.compat.numpy_disabled` and compares the outputs.
"""

import math
import random

import pytest

from repro.core import compat
from repro.core.spanner import build_backbone
from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.incremental import IncrementalMaintainer
from repro.incremental.events import Event
from repro.sharding.build import sharded_pldel
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import local_delaunay_graph, planar_local_delaunay_graph
from repro.workloads.generators import connected_udg_instance

pytestmark = pytest.mark.skipif(
    compat.np is None, reason="requires numpy (nothing to compare without it)"
)

RADIUS = 25.0


def _random_points(n, seed=7):
    side = 10.0 * math.sqrt(n)
    dep = connected_udg_instance(n, side, RADIUS, random.Random(seed))
    return list(dep.points)


def _grid_points(rows=8, cols=8, spacing=12.5):
    return [
        Point(c * spacing, r * spacing) for r in range(rows) for c in range(cols)
    ]


def _collinear_points(n=14, spacing=10.0):
    return [Point(i * spacing, 30.0) for i in range(n)]


def _boundary_points():
    """Nodes exactly on tile lines plus clusters straddling them."""
    pts = [
        Point(25.0, 10.0), Point(25.0, 25.0), Point(25.0, 40.0),
        Point(10.0, 25.0), Point(40.0, 25.0),
        Point(50.0, 50.0),
    ]
    rng = random.Random(13)
    for _ in range(40):
        pts.append(Point(25.0 + rng.uniform(-8.0, 8.0), rng.uniform(0.0, 60.0)))
    for _ in range(20):
        pts.append(Point(rng.uniform(0.0, 60.0), 25.0 + rng.uniform(-4.0, 4.0)))
    return pts


def _dense_points(n=150, side=70.0, seed=23):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]


DEPLOYMENTS = {
    "random200": lambda: _random_points(200),
    "random1000": lambda: _random_points(1000),
    "grid": _grid_points,
    "collinear": _collinear_points,
    "boundary": _boundary_points,
    "dense": _dense_points,
}


@pytest.fixture(params=sorted(DEPLOYMENTS), scope="module")
def points(request):
    return DEPLOYMENTS[request.param]()


def _assert_same_result(soa, ref):
    assert soa.gabriel_edges == ref.gabriel_edges
    assert soa.triangles == ref.triangles
    assert soa.graph.edge_set() == ref.graph.edge_set()


class TestSerialPipeline:
    def test_udg_edges_identical(self, points):
        soa = UnitDiskGraph(points, RADIUS)
        with compat.numpy_disabled():
            ref = UnitDiskGraph(points, RADIUS)
        assert soa.edge_set() == ref.edge_set()

    def test_gabriel_and_ldel1_identical(self, points):
        udg = UnitDiskGraph(points, RADIUS)
        soa_gg, soa_ldel1 = gabriel_graph(udg), local_delaunay_graph(udg, k=1)
        with compat.numpy_disabled():
            ref_udg = UnitDiskGraph(points, RADIUS)
            ref_gg = gabriel_graph(ref_udg)
            ref_ldel1 = local_delaunay_graph(ref_udg, k=1)
        assert soa_gg.edge_set() == ref_gg.edge_set()
        _assert_same_result(soa_ldel1, ref_ldel1)

    def test_pldel_identical(self, points):
        soa = planar_local_delaunay_graph(UnitDiskGraph(points, RADIUS))
        with compat.numpy_disabled():
            ref = planar_local_delaunay_graph(UnitDiskGraph(points, RADIUS))
        _assert_same_result(soa, ref)


class TestShardedPipeline:
    def test_sharded_pldel_identical(self, points):
        soa, _ = sharded_pldel(points, RADIUS, shards=4)
        with compat.numpy_disabled():
            ref, _ = sharded_pldel(points, RADIUS, shards=4)
        _assert_same_result(soa, ref)

    def test_sharded_matches_serial_soa(self, points):
        sharded, _ = sharded_pldel(points, RADIUS, shards=4)
        serial = planar_local_delaunay_graph(UnitDiskGraph(points, RADIUS))
        _assert_same_result(sharded, serial)


class TestBackbone:
    def test_backbone_identical(self, points):
        soa = build_backbone(points, RADIUS, mode="fast")
        with compat.numpy_disabled():
            ref = build_backbone(points, RADIUS, mode="fast")
        assert soa.dominators == ref.dominators
        assert soa.connectors == ref.connectors
        assert soa.cds.edge_set() == ref.cds.edge_set()
        assert soa.icds.edge_set() == ref.icds.edge_set()
        assert soa.ldel_icds.edge_set() == ref.ldel_icds.edge_set()
        assert soa.ldel_icds_prime.edge_set() == ref.ldel_icds_prime.edge_set()


class TestIncrementalPipeline:
    def test_maintenance_identical(self, points):
        # Drive the same move trace through a maintainer with the SoA
        # kernels active and one with numpy masked; every intermediate
        # snapshot must agree field by field.
        rng = random.Random(99)
        n = len(points)
        events = [
            [Event("move", node=rng.randrange(n),
                   x=points[0][0] + rng.uniform(-5.0, 5.0),
                   y=points[0][1] + rng.uniform(-5.0, 5.0))]
            for _ in range(3)
        ]
        soa = IncrementalMaintainer(points, RADIUS)
        with compat.numpy_disabled():
            ref = IncrementalMaintainer(points, RADIUS)
        for batch in events:
            soa.apply(batch)
            with compat.numpy_disabled():
                ref.apply(batch)
            assert soa.snapshot() == ref.snapshot()
