"""Fast-vs-protocol equivalence: the oracle paths must be bit-identical.

The direct-computation constructors (:mod:`repro.protocols.cds_fast`,
:mod:`repro.protocols.ldel_fast`) claim to reproduce the
message-passing protocols exactly — same sets, same certified edges,
same round counts, same per-node/per-kind message ledgers.  This suite
pins that claim over adversarial deployments (random, degenerate grid,
collinear, r-aligned-boundary-straddling, dense) plus ID-permuted
variants and a descending-id line, and adds the Lemma 3 property test (constant messages per
node on the protocol path, independent of n at fixed density).  The
connector election has two fast paths, the SoA kernel and the scalar
loops it falls back to without numpy; both are held to the protocol
(quasi-UDG corpus entries and random lattices included) and to each
other, work counts too.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import compat
from repro.core.soa import sorted_member
from repro.core.spanner import build_backbone
from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.protocols import cds_fast
from repro.protocols.cds import build_cds_family
from repro.protocols.cds_fast import fast_clustering, fast_connectors
from repro.protocols.clustering import (
    highest_degree_priority,
    lowest_id_priority,
    run_clustering,
)
from repro.protocols.connectors import run_connectors
from repro.protocols.ldel_fast import fast_ldel_protocol
from repro.protocols.ldel_protocol import run_ldel_protocol
from repro.sim.stats import MessageStats
from repro.workloads.corpus import CORPUS, get_instance

RADIUS = 25.0

PRIORITIES = {
    "lowest-id": lowest_id_priority,
    "highest-degree": highest_degree_priority,
}


def _random_points(n=80, side=120.0, seed=7):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]


def _grid_points(rows=8, cols=8, spacing=12.5):
    # spacing = radius/2 puts every other column exactly on an
    # r-aligned line, and every unit square is an exactly cocircular
    # quadruple.
    return [
        Point(c * spacing, r * spacing) for r in range(rows) for c in range(cols)
    ]


def _collinear_points(n=14, spacing=10.0):
    # A line crossing several 25-unit cells, nodes at multiples of 10:
    # indices 5 and 10 sit exactly on cell boundaries (x=50, x=100).
    return [Point(i * spacing, 30.0) for i in range(n)]


def _boundary_points():
    """Nodes exactly on r-aligned lines plus clusters straddling them.

    With radius 25 the lines sit at multiples of 25; this set
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


def _descending_line(n=120, spacing=20.0):
    """A path whose ids descend left to right: every MIS decision
    depends on the one before it, so the election's dependency chain
    spans the whole deployment."""
    return [Point((n - 1 - i) * spacing, 0.0) for i in range(n)]


def _radius_apart_points(seed=9):
    """Clusters whose members sit exactly ``RADIUS`` apart, or one
    rounding step either side of it: axis-aligned partners at
    +-``RADIUS`` and partners on the circle at rotated angles."""
    rng = random.Random(seed)
    pts = []
    for _ in range(12):
        x, y = rng.uniform(0.0, 150.0), rng.uniform(0.0, 150.0)
        pts += [(x, y), (x + RADIUS, y), (x, y + RADIUS), (x - RADIUS, y)]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        pts.append((x + RADIUS * math.cos(angle), y + RADIUS * math.sin(angle)))
        pts.append((x + rng.uniform(-9.0, 9.0), y + rng.uniform(-9.0, 9.0)))
    return pts


def _permuted(points, seed=4):
    """The same deployment with node ids shuffled (ids drive every
    election tie-break, so this is the adversarial re-labeling case)."""
    shuffled = list(points)
    random.Random(seed).shuffle(shuffled)
    return shuffled


def _deployments():
    cases = [(name, make()) for name, make in sorted(DEPLOYMENTS.items())]
    cases += [
        (f"{name}-permuted", _permuted(make())) for name, make in sorted(DEPLOYMENTS.items())
    ]
    cases.append(("descending-line", _descending_line()))
    return cases


def assert_same_stats(fast: MessageStats, protocol: MessageStats) -> None:
    assert fast.per_node == protocol.per_node
    assert fast.per_kind == protocol.per_kind
    assert fast.per_node_kind == protocol.per_node_kind


def assert_same_connectors(fast, protocol) -> None:
    assert fast.connectors == protocol.connectors
    assert fast.cds_edges == protocol.cds_edges
    assert fast.rounds == protocol.rounds
    assert_same_stats(fast.stats, protocol.stats)


@pytest.fixture(params=[name for name, _ in _deployments()])
def deployment(request):
    cases = dict(_deployments())
    return UnitDiskGraph([tuple(p) for p in cases[request.param]], RADIUS)


class TestFastClustering:
    @pytest.mark.parametrize("priority", sorted(PRIORITIES))
    def test_bit_identical(self, deployment, priority):
        protocol = run_clustering(deployment, priority=PRIORITIES[priority])
        fast = fast_clustering(deployment, priority=PRIORITIES[priority])
        assert fast.dominators == protocol.dominators
        assert fast.dominators_of == protocol.dominators_of
        assert fast.rounds == protocol.rounds
        assert_same_stats(fast.stats, protocol.stats)

    def test_empty_graph(self):
        udg = UnitDiskGraph([], RADIUS)
        outcome = fast_clustering(udg)
        assert outcome.dominators == frozenset()
        assert outcome.rounds == 0


def _hub_with_repeats():
    """A hub hearing 40 nodes, four of them on repeated points, plus
    three isolated nodes: coincident nodes are adjacent, the hub's row
    is long and the isolated nodes elect themselves in round 1."""
    rng = random.Random(5)
    pts = [(50.0, 50.0)]
    for _ in range(36):
        angle, dist = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(3.0, 24.0)
        pts.append((50.0 + dist * math.cos(angle), 50.0 + dist * math.sin(angle)))
    pts += [pts[3], pts[3], pts[7], (50.0, 50.0)]
    pts += [(300.0, 300.0), (400.0, 50.0), (50.0, 400.0)]
    return pts


#: Extra clustering inputs: (name, points).
CLUSTERING_CASES = {
    "hub-repeats": _hub_with_repeats,
    "isolated": lambda: [(100.0 * i, 0.0) for i in range(6)],
    "one-node": lambda: [(0.0, 0.0)],
    "descending-line": _descending_line,
}


def assert_same_clustering(got, want) -> None:
    assert got.dominators == want.dominators
    assert got.dominators_of == want.dominators_of
    assert got.rounds == want.rounds
    assert_same_stats(got.stats, want.stats)


def assert_clustering_paths_agree(udg: UnitDiskGraph, priority) -> None:
    """The array kernel, the scalar body and the protocol, field by field."""
    protocol = run_clustering(udg, priority=priority)
    with compat.numpy_disabled():
        scalar = fast_clustering(udg, priority=priority)
    assert_same_clustering(scalar, protocol)
    if compat.numpy_active():
        kernel = cds_fast._soa_clustering(udg, priority, MessageStats())
        assert kernel is not None
        assert_same_clustering(kernel, protocol)
        assert_same_clustering(fast_clustering(udg, priority=priority), protocol)


class TestClusteringKernel:
    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("priority", sorted(PRIORITIES))
    @pytest.mark.parametrize("entry", sorted(CORPUS))
    def test_corpus(self, entry, index, priority):
        assert_clustering_paths_agree(
            get_instance(entry, index).udg(), PRIORITIES[priority]
        )

    @pytest.mark.parametrize("priority", sorted(PRIORITIES))
    @pytest.mark.parametrize("case", sorted(CLUSTERING_CASES))
    def test_edge_cases(self, case, priority):
        udg = UnitDiskGraph(CLUSTERING_CASES[case](), RADIUS)
        assert_clustering_paths_agree(udg, PRIORITIES[priority])

    def test_empty_graph_on_every_path(self):
        udg = UnitDiskGraph([], RADIUS)
        with compat.numpy_disabled():
            scalar = fast_clustering(udg)
        for outcome in (fast_clustering(udg), scalar):
            assert outcome.dominators == frozenset()
            assert outcome.dominators_of == {}
            assert outcome.rounds == 0
            assert outcome.stats.total == 0

    def test_ties_released_by_domination(self):
        # Adjacent nodes 2k-1 and 2k share a priority, so each blocks
        # the other; the tie breaks only when 2k-1 is dominated and
        # leaves the white set, which must unblock 2k.
        udg = UnitDiskGraph([(20.0 * i, 0.0) for i in range(12)], RADIUS)
        outcome = run_clustering(udg, priority=lambda node, degree: ((node + 1) // 2,))
        assert outcome.dominators == {0, 2, 4, 6, 8, 10}
        assert_clustering_paths_agree(udg, lambda node, degree: ((node + 1) // 2,))

    def test_stall_reports_the_same_white_nodes(self):
        # Nodes 0-3 of the path elect and dominate in a cascade; from
        # node 4 on, adjacent nodes share one priority and block each
        # other forever.
        udg = UnitDiskGraph([(20.0 * i, 0.0) for i in range(12)], RADIUS)

        def tied(node, degree):
            return (0,) if node >= 4 else (-1, node)

        message = r"^clustering stalled; white nodes remain: \[4, 5, 6, 7, 8\]$"
        with compat.numpy_disabled(), pytest.raises(RuntimeError, match=message):
            fast_clustering(udg, priority=tied)
        if compat.numpy_active():
            with pytest.raises(RuntimeError, match=message):
                cds_fast._soa_clustering(udg, tied, MessageStats())


class TestFastConnectors:
    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    @pytest.mark.parametrize("rebroadcast", [False, True])
    def test_bit_identical(self, deployment, election, rebroadcast):
        clustering = run_clustering(deployment)
        protocol = run_connectors(
            deployment, clustering, election=election,
            rebroadcast_dominatees=rebroadcast,
        )
        fast = fast_connectors(
            deployment, clustering, election=election,
            rebroadcast_dominatees=rebroadcast,
        )
        assert_same_connectors(fast, protocol)

    def test_unknown_election_rejected(self):
        udg = UnitDiskGraph([(0.0, 0.0)], RADIUS)
        with pytest.raises(ValueError, match="unknown election"):
            fast_connectors(udg, fast_clustering(udg), election="coin-flip")

    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    @pytest.mark.parametrize("entry", ["quasi-field", "quasi-hotspots"])
    def test_bit_identical_quasi(self, entry, election):
        # Gray-zone pairs within the radius that the radio model
        # dropped: rivals and 2-hop dominators come from the links,
        # not from the disk rule.
        udg = get_instance(entry).udg()
        clustering = run_clustering(udg)
        assert_same_connectors(
            fast_connectors(udg, clustering, election=election),
            run_connectors(udg, clustering, election=election),
        )

    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    @pytest.mark.parametrize("rebroadcast", [False, True])
    def test_pairs_exactly_radius_apart(self, election, rebroadcast):
        # The kernel decides adjacency by distance under the disk rule;
        # here many pairs sit exactly at (or one rounding step off) the
        # radius, so it must use the UDG's own inclusive test.
        udg = UnitDiskGraph(_radius_apart_points(), RADIUS)
        xs = [p[0] for p in udg.positions]
        ys = [p[1] for p in udg.positions]
        exact = [
            (u, v) for u, v in udg.edges()
            if (xs[u] - xs[v]) ** 2 + (ys[u] - ys[v]) ** 2 == RADIUS * RADIUS
        ]
        assert len(exact) >= 20
        clustering = run_clustering(udg)
        kwargs = dict(election=election, rebroadcast_dominatees=rebroadcast)
        protocol = run_connectors(udg, clustering, **kwargs)
        assert_same_connectors(fast_connectors(udg, clustering, **kwargs), protocol)
        with compat.numpy_disabled():
            scalar = fast_connectors(udg, clustering, **kwargs)
        assert_same_connectors(scalar, protocol)

    @pytest.mark.skipif(not compat.numpy_active(), reason="the kernel needs numpy")
    @pytest.mark.parametrize("entry", ["quasi-field", "quasi-hotspots", "paper-table1"])
    def test_adjacency_lookup_follows_the_radio_model(self, entry, monkeypatch):
        # A quasi-UDG dropped gray-zone links, so its adjacency must
        # come from the edge keys (binary search), never the distance.
        udg = get_instance(entry).udg()
        clustering = run_clustering(udg)
        searched = []

        def spy(np, keys, probe):
            searched.append(probe.shape[0])
            return sorted_member(np, keys, probe)

        monkeypatch.setattr(cds_fast, "sorted_member", spy)
        fast_connectors(udg, clustering)
        assert bool(searched) == (not udg.adjacency_is_disk_rule)

    @pytest.mark.skipif(compat.np is None, reason="requires numpy")
    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    def test_soa_matches_scalar(self, deployment, election):
        clustering = fast_clustering(deployment)
        soa = fast_connectors(deployment, clustering, election=election)
        with compat.numpy_disabled():
            scalar = fast_connectors(deployment, clustering, election=election)
        assert_same_connectors(soa, scalar)

    @settings(max_examples=40, deadline=None)
    @given(
        cloud=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=0, max_size=45, unique=True,
        ),
        lattice=st.booleans(),
        spacing=st.sampled_from([5.0, 8.5, 12.5]),
        priority=st.sampled_from(sorted(PRIORITIES)),
        election=st.sampled_from(["smallest-id", "first-response"]),
        rebroadcast=st.booleans(),
    )
    def test_property_matches_protocol(
        self, cloud, lattice, spacing, priority, election, rebroadcast
    ):
        # Lattice points tie distances exactly at the radius and put
        # many equal-size arenas side by side; the jittered cloud does
        # not.  The incoming ledger already holds the clustering's
        # entries: every path must add to it, not reset it.
        jitter = random.Random(len(cloud))
        points = [
            (x * spacing + (0.0 if lattice else jitter.uniform(0, spacing)),
             y * spacing + (0.0 if lattice else jitter.uniform(0, spacing)))
            for x, y in cloud
        ]
        udg = UnitDiskGraph(points, RADIUS)
        clustering = run_clustering(udg, priority=PRIORITIES[priority])
        kwargs = dict(election=election, rebroadcast_dominatees=rebroadcast)
        protocol = run_connectors(
            udg, clustering, stats=clustering.stats.copy(), **kwargs
        )
        assert_same_connectors(
            fast_connectors(udg, clustering, stats=clustering.stats.copy(), **kwargs),
            protocol,
        )
        with compat.numpy_disabled():
            scalar = fast_connectors(
                udg, clustering, stats=clustering.stats.copy(), **kwargs
            )
        assert_same_connectors(scalar, protocol)

    @pytest.mark.parametrize("rebroadcast", [False, True])
    def test_dominatees_without_two_hop_dominators(self, rebroadcast):
        # A chain 0-1-2-3: dominators 0 and 2; node 1 is their common
        # dominatee (slot 0), and neither 1 nor 3 hears a 2-hop
        # dominator, so nobody proposes for slot 1 or 2.
        udg = UnitDiskGraph([(20.0 * i, 0.0) for i in range(4)], RADIUS)
        clustering = run_clustering(udg)
        assert clustering.dominators == {0, 2}
        fast = fast_connectors(udg, clustering, rebroadcast_dominatees=rebroadcast)
        assert_same_connectors(
            fast,
            run_connectors(udg, clustering, rebroadcast_dominatees=rebroadcast),
        )
        assert fast.connectors == {1}
        assert fast.cds_edges == {(0, 1), (1, 2)}
        assert fast.rounds == 3

    @pytest.mark.parametrize("points", [[], [(0.0, 0.0)], [(0.0, 0.0), (10.0, 0.0)]])
    @pytest.mark.parametrize("rebroadcast", [False, True])
    def test_tiny_graphs(self, points, rebroadcast):
        udg = UnitDiskGraph(points, RADIUS)
        clustering = run_clustering(udg)
        fast = fast_connectors(udg, clustering, rebroadcast_dominatees=rebroadcast)
        assert_same_connectors(
            fast,
            run_connectors(udg, clustering, rebroadcast_dominatees=rebroadcast),
        )
        assert fast.connectors == frozenset()
        # Only the two-node graph has a dominatee to re-announce.
        assert fast.rounds == (1 if rebroadcast and len(points) == 2 else 0)

    @pytest.mark.skipif(compat.np is None, reason="requires numpy")
    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    def test_work_counts_match_scalar(self, deployment, election):
        # Proposals (slots 0-2) and arenas are the election's work; a
        # kernel that dropped proposals could still land on the same
        # connectors, but not on the same counts.
        clustering = fast_clustering(deployment)
        with obs.recording() as soa:
            fast_connectors(deployment, clustering, election=election)
        with compat.numpy_disabled(), obs.recording() as scalar:
            fast_connectors(deployment, clustering, election=election)
        assert soa["counts"] == scalar["counts"]
        assert set(soa["counts"]) == {
            "cds.connector_proposals", "cds.connector_arenas",
        }


def assert_fast_ldel_matches_protocol(udg: UnitDiskGraph) -> None:
    protocol = run_ldel_protocol(udg)
    fast = fast_ldel_protocol(udg)
    assert fast.graph.edge_set() == protocol.graph.edge_set()
    assert fast.graph.name == protocol.graph.name
    assert fast.triangles == protocol.triangles
    assert fast.gabriel_edges == protocol.gabriel_edges
    assert fast.rounds == protocol.rounds
    assert_same_stats(fast.stats, protocol.stats)


class TestFastLDel:
    def test_bit_identical(self, deployment):
        assert_fast_ldel_matches_protocol(deployment)

    @pytest.mark.parametrize("entry", ["quasi-field", "quasi-hotspots"])
    def test_bit_identical_quasi(self, entry):
        # Gray-zone sides the radio model dropped: every corner applies
        # the same radio rule on both paths.
        assert_fast_ldel_matches_protocol(get_instance(entry).udg())


class TestFastPipeline:
    @pytest.mark.parametrize("election", ["smallest-id", "first-response"])
    def test_full_pipeline_bit_identical(self, deployment, election):
        points = [tuple(p) for p in deployment.positions]
        protocol = build_backbone(points, RADIUS, election=election)
        with obs.recording() as record:
            fast = build_backbone(points, RADIUS, election=election, mode="fast")
        assert fast.dominators == protocol.dominators
        assert fast.connectors == protocol.connectors
        for attr in ("cds", "cds_prime", "icds", "icds_prime",
                     "ldel_icds", "ldel_icds_prime"):
            assert getattr(fast, attr).edge_set() == getattr(protocol, attr).edge_set(), attr
        for attr in ("stats_cds", "stats_icds", "stats_ldel"):
            assert_same_stats(getattr(fast, attr), getattr(protocol, attr))
        assert protocol.pipeline.mode == "protocol"
        assert fast.pipeline.mode == "fast"
        assert {name for name, _ in record["spans"]} == {
            "backbone.phase.cds", "backbone.phase.ldel",
        }

    def test_ledger_summary_serializes_like_the_protocol(self, deployment):
        # The service's /build response carries these scalars as JSON.
        points = [tuple(p) for p in deployment.positions]
        n = len(points)

        def summary(result):
            return {
                attr: {
                    "total": stats.total,
                    "max": stats.max_per_node(),
                    "avg": stats.avg_per_node(),
                    "avg_all": round(stats.avg_per_node(n), 3),
                    "node0": stats.node_total(0),
                    "by_kind": stats.by_kind(),
                }
                for attr in ("stats_cds", "stats_icds", "stats_ldel")
                for stats in (getattr(result, attr),)
            }

        fast = summary(build_backbone(points, RADIUS, mode="fast"))
        protocol = summary(build_backbone(points, RADIUS))
        assert json.dumps(fast, sort_keys=True) == json.dumps(protocol, sort_keys=True)

    def test_unknown_mode_rejected(self):
        udg = UnitDiskGraph([(0.0, 0.0)], RADIUS)
        with pytest.raises(ValueError, match="unknown mode"):
            build_cds_family(udg, mode="warp")


#: Empirical ceiling for Lemma 3: at the paper's density (uniform
#: points in a 10*sqrt(n) square, radius 25) the observed per-node
#: maximum for the whole CDS phase plateaus around 54 messages and
#: does not grow with n; 80 leaves headroom for unlucky seeds while
#: still failing loudly if the bound ever becomes n-dependent.
LEMMA3_BOUND = 80


def _max_messages_per_node(n: int, seed: int) -> int:
    rng = random.Random(seed)
    side = 10.0 * math.sqrt(n)
    pts = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    udg = UnitDiskGraph(pts, RADIUS)
    clustering = run_clustering(udg)
    connectors = run_connectors(udg, clustering)
    total = MessageStats()
    total.merge(clustering.stats)
    total.merge(connectors.stats)
    return max(total.per_node.values())


class TestLemma3MessageBound:
    def test_bound_does_not_grow_with_n(self):
        maxima = {n: _max_messages_per_node(n, seed=2002) for n in (100, 250, 500)}
        assert all(m <= LEMMA3_BOUND for m in maxima.values()), maxima

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_constant_per_node_property(self, seed):
        assert _max_messages_per_node(150, seed) <= LEMMA3_BOUND
