"""SoA construction core vs the pure-Python reference: bit-identity.

The array-native kernels (:mod:`repro.core.soa` and consumers) promise
the *same* graphs as the scalar reference path — not approximately,
bit for bit.  This suite holds every consumer to that on the
deployments where vectorized shortcuts are most likely to diverge:
random clouds at two sizes, exact grids (cocircular quadruples
everywhere), collinear lines, a boundary stress set (nodes exactly on
r-aligned lines, where the maintainer's tiles meet), and a denser cloud.
Each test builds once with the kernels active and once under
:func:`repro.core.compat.numpy_disabled` and compares the outputs.

Accepted LDel^1 triangles almost never intersect, so none of these
deployments makes Algorithm 3 remove a triangle (the dense cloud keeps
all 282 of its LDel^1 triangles).  :class:`TestContest` therefore
compares the contest kernel directly on generated triangle sets that
do intersect.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import compat
from repro.core.soa import (
    _csr_from_edges,
    cross_join,
    segment_pairs,
    snapshot_for,
    sorted_member,
)
from repro.core.spanner import build_backbone
from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.incremental import IncrementalMaintainer
from repro.incremental.events import Event
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import (
    candidate_triangles,
    contest_losers,
    contest_triangles,
    local_delaunay_graph,
    planar_local_delaunay_graph,
    proposed_triangles,
    triangle_tuples,
)
from repro.workloads.corpus import CORPUS, get_instance
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


@st.composite
def _sorted_edge_sets(draw):
    """``(n, edges)``: distinct ``u < v`` pairs sorted by ``(u, v)``.

    ``n`` starts at 1 and the edge set may be empty, so isolated nodes,
    a single node and no edges all occur.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return n, sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})


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

    def test_candidate_triangles_identical(self, points):
        soa = candidate_triangles(UnitDiskGraph(points, RADIUS))
        with compat.numpy_disabled():
            ref = candidate_triangles(UnitDiskGraph(points, RADIUS))
        assert soa == ref

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


class TestRaggedHelpers:
    def test_segment_pairs_is_the_upper_half_of_a_self_join(self):
        np = compat.np
        rng = random.Random(3)
        for _ in range(50):
            sizes = np.array([rng.randint(0, 5) for _ in range(rng.randint(0, 6))],
                             dtype=np.int64)
            gaps = np.array([rng.randint(0, 3) for _ in sizes], dtype=np.int64)
            starts = np.cumsum(sizes + gaps) - sizes
            a, b = segment_pairs(np, starts, sizes)
            left, right = cross_join(np, starts, sizes, starts, sizes)
            keep = left < right
            assert a.tolist() == left[keep].tolist()
            assert b.tolist() == right[keep].tolist()

    def test_sorted_member_matches_set_membership(self):
        np = compat.np
        hay = np.array([2, 3, 5, 8, 13], dtype=np.int64)
        probe = np.arange(-1, 16, dtype=np.int64)
        expected = [int(k) in {2, 3, 5, 8, 13} for k in probe]
        assert sorted_member(np, hay, probe).tolist() == expected
        assert not sorted_member(np, hay[:0], probe).any()

    @settings(max_examples=200, deadline=None)
    @given(_sorted_edge_sets())
    @example((1, []))
    @example((4, []))
    @example((5, [(0, 3), (1, 3), (3, 4)]))
    def test_csr_from_edges_matches_the_lexsort_reference(self, case):
        np = compat.np
        n, edges = case
        edge_u = np.array([u for u, _ in edges], dtype=np.int64)
        edge_v = np.array([v for _, v in edges], dtype=np.int64)
        sym_u = np.concatenate([edge_u, edge_v])
        sym_v = np.concatenate([edge_v, edge_u])
        want_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sym_u, minlength=n), out=want_ptr[1:])
        want_ind = sym_v[np.lexsort((sym_v, sym_u))]
        indptr, indices = _csr_from_edges(np, n, edge_u, edge_v)
        assert indptr.dtype == indices.dtype == np.int64
        assert indptr.tolist() == want_ptr.tolist()
        assert indices.tolist() == want_ind.tolist()


@pytest.mark.skipif(
    not compat.numpy_active(), reason="snapshots exist only while numpy is active"
)
class TestSnapshotCache:
    def test_edge_swap_drops_cached_snapshot(self):
        # Same node and edge counts after the swap: only invalidation
        # on mutation keeps the cached CSR from describing old links.
        g = UnitDiskGraph([(0, 0), (1, 0), (2, 0), (3, 0)], 1.0)
        assert g.soa_snapshot() is not None
        g.remove_edge(0, 1)
        g.add_edge(0, 3)
        snap = snapshot_for(g)
        assert set(zip(snap.edge_u.tolist(), snap.edge_v.tolist())) == set(g.edges())
        assert snap.neighbors_of(0).tolist() == [3]

    def test_unchanged_edge_set_keeps_snapshot(self):
        g = UnitDiskGraph([(0, 0), (1, 0), (2, 0)], 1.0)
        snap = snapshot_for(g)
        g.add_edge(0, 1)
        g.add_edges_bulk([(1, 2)])
        g.remove_edge(0, 2)
        assert snapshot_for(g) is snap
        g.add_edges_bulk([(0, 2)])
        assert snapshot_for(g) is not snap


def _crossing_triangle_sets(count=30):
    """Random short-sided triangles packed tightly enough to intersect.

    A few exact lattice points add shared, collinear and cocircular
    corners, so degenerate circumcircles and touching edges occur too.
    """
    lattice = [Point(float(x), float(y)) for x in (10, 20, 30) for y in (10, 20)]
    for seed in range(count):
        rng = random.Random(seed)
        pts = lattice + [
            Point(rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)) for _ in range(24)
        ]
        tris = set()
        while len(tris) < 30:
            a, b, c = sorted(rng.sample(range(len(pts)), 3))
            if max(
                math.dist(pts[a], pts[b]),
                math.dist(pts[b], pts[c]),
                math.dist(pts[a], pts[c]),
            ) <= RADIUS:
                tris.add((a, b, c))
        yield pts, sorted(tris)


def _degenerate_triangle_sets(count=12):
    """Triangles on an exact lattice, some corners repeated under new ids.

    Lattice sides are collinear with one another and meet at shared
    coordinates, so the crossing test sees touching, overlapping and
    coincident-endpoint sides; a repeated point is the same coordinate
    under a second id, which shares no id with the original.
    """
    lattice = [Point(5.0 * x, 5.0 * y) for x in range(6) for y in range(6)]
    for seed in range(count):
        rng = random.Random(seed)
        pts = lattice + [lattice[rng.randrange(len(lattice))] for _ in range(8)]
        tris = set()
        while len(tris) < 40:
            a, b, c = sorted(rng.sample(range(len(pts)), 3))
            if max(
                math.dist(pts[a], pts[b]),
                math.dist(pts[b], pts[c]),
                math.dist(pts[a], pts[c]),
            ) <= 12.0:
                tris.add((a, b, c))
        yield pts, sorted(tris)


def _mask(losers):
    """A removal mask as a list of bools (the kernel returns an array)."""
    return [bool(gone) for gone in losers]


def _assert_losers_match(pts, tris, cell):
    """``contest_losers`` equals both contest kernels' and the scalar mask."""
    losers = _mask(contest_losers(pts, tris, cell))
    assert losers == contest_triangles(pts, tris, cell)[0]
    with compat.numpy_disabled():
        ref = contest_triangles(pts, triangle_tuples(tris), cell)[0]
        assert contest_losers(pts, triangle_tuples(tris), cell) == ref
    assert losers == ref
    return ref


#: Two hand-made pairs, ids into ``_CONTESTED``.  Triangles 0 and 1
#: cross, and only 0's circumcircle holds a vertex of 1 (node 3), so 0
#: alone loses.  Triangles 2 and 3 do not cross although 2's
#: circumcircle holds node 9: neither loses, which a contest that
#: skipped the crossing test on contested pairs would get wrong.
_CONTESTED = [
    Point(0.0, 0.0), Point(4.0, 0.0), Point(2.0, 1.0),
    Point(1.0, 0.3), Point(1.2, 0.3), Point(1.1, 0.9),
    Point(10.0, 0.0), Point(14.0, 0.0), Point(12.0, 1.0),
    Point(11.0, 0.6), Point(10.5, 1.5), Point(11.5, 1.8),
]
_CONTESTED_TRIANGLES = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]


class TestContest:
    def test_contest_matches_scalar_on_intersecting_sets(self):
        removals = 0
        for pts, tris in _crossing_triangle_sets():
            soa_removed, soa_pairs = contest_triangles(pts, tris, RADIUS)
            with compat.numpy_disabled():
                ref_removed, ref_pairs = contest_triangles(pts, tris, RADIUS)
            assert ref_pairs, "generated set has no intersecting pair"
            assert soa_removed == ref_removed
            assert soa_pairs == ref_pairs
            assert _mask(contest_losers(pts, tris, RADIUS)) == ref_removed
            removals += sum(ref_removed)
        assert removals > 0

    def test_contest_matches_scalar_on_lattices_and_repeated_points(self):
        intersecting = removals = 0
        for pts, tris in _degenerate_triangle_sets():
            soa_removed, soa_pairs = contest_triangles(pts, tris, RADIUS)
            with compat.numpy_disabled():
                ref_removed, ref_pairs = contest_triangles(pts, tris, RADIUS)
            assert soa_removed == ref_removed
            assert soa_pairs == ref_pairs
            assert _mask(contest_losers(pts, tris, RADIUS)) == ref_removed
            intersecting += len(ref_pairs)
            removals += sum(ref_removed)
        assert intersecting > 0 and removals > 0

    def test_slack_touch_between_disjoint_boxes_is_no_pair(self):
        # Collinear bottom sides touch within the on_segment slack
        # (segments_cross says they cross), but the triangles' boxes
        # miss by 1e-13, and the reference pairs only meeting boxes.
        pts = [
            Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1.0),
            Point(1.0 + 1e-13, 0.0), Point(2.0, 0.0), Point(1.5, 1.0),
        ]
        tris = [(0, 1, 2), (3, 4, 5)]
        with compat.numpy_disabled():
            ref = contest_triangles(pts, tris, RADIUS)
        assert ref == ([False, False], [])
        assert contest_triangles(pts, tris, RADIUS) == ref

    def test_losers_on_one_sided_and_uncrossed_contests(self):
        ref = _assert_losers_match(_CONTESTED, _CONTESTED_TRIANGLES, 5.0)
        assert ref == [True, False, False, False]
        _, pairs = contest_triangles(_CONTESTED, _CONTESTED_TRIANGLES, 5.0)
        assert pairs == [(0, 1)]

    @pytest.mark.parametrize(
        "source", sorted(CORPUS) + [f"module:{name}" for name in sorted(DEPLOYMENTS)]
    )
    def test_losers_match_on_proposals(self, source):
        # Every proposal, accepted or not: proposals from different
        # corners cross far more often than accepted LDel^1 triangles.
        if source.startswith("module:"):
            udg = UnitDiskGraph(DEPLOYMENTS[source[7:]](), RADIUS)
        else:
            udg = get_instance(source).udg()
        tris, _ = proposed_triangles(udg)
        _assert_losers_match(udg.positions, tris, udg.radius)


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
        assert soa.stats_ldel.per_node_kind == ref.stats_ldel.per_node_kind


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
