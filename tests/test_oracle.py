"""Distance-oracle tests: kernel parity, caching, fallback exactness.

The oracle's contract is that it is *indistinguishable* from the
reference stretch implementation except for speed: the vectorized
kernel must agree with :func:`repro.core.metrics.stretch_reference`
within ``PARITY_RTOL`` (bit-exactly on ``max``/``pairs``/
``unreachable_pairs``), the pure-Python fallback must agree exactly,
and cache hits must never change a result.  Parity is checked over
deployments chosen to stress the geometry: uniform random, a square
lattice (cocircular quadruples), collinear points, and a deployment
with the measured graph cut into components.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.metrics import StretchStats, stretch_reference
from repro.core.oracle import PARITY_RTOL, WEIGHT_KINDS, DistanceOracle, weight_key
from repro.geometry.primitives import Point
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph
from repro.topology.gabriel import gabriel_graph
from repro.topology.rng import relative_neighborhood_graph

ALPHA = 2.0


def _random_points(n: int, side: float, seed: int) -> list[Point]:
    rng = random.Random(seed)
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]


def _deployments() -> dict[str, UnitDiskGraph]:
    """Named deployments that stress distinct kernel paths."""
    grid = [Point(float(x), float(y)) for x in range(5) for y in range(5)]
    line = [Point(float(i), 0.0) for i in range(12)]
    # Two clusters whose UDG is connected by a single bridge node; the
    # RNG below keeps the bridge but sparser rows lose pairs.
    return {
        "random": UnitDiskGraph(_random_points(40, 30.0, 11), 9.0),
        "grid": UnitDiskGraph(grid, 1.5),
        "collinear": UnitDiskGraph(line, 2.0),
    }


def _weight_fn(graph: Graph, kind: str):
    """The reference-side weight callable matching an oracle kind."""
    if kind == "hops":
        return None
    if kind == "length":
        return graph.edge_length
    return lambda u, v: graph.edge_length(u, v) ** ALPHA


def _assert_parity(got: StretchStats, ref: StretchStats) -> None:
    assert got.pairs == ref.pairs
    assert got.unreachable_pairs == ref.unreachable_pairs
    assert got.avg == pytest.approx(ref.avg, rel=PARITY_RTOL, abs=0.0)
    assert got.max == pytest.approx(ref.max, rel=PARITY_RTOL, abs=0.0)


class TestKernelParity:
    @pytest.mark.parametrize("name", ["random", "grid", "collinear"])
    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    @pytest.mark.parametrize("skip", [False, True])
    def test_matches_reference(self, name, kind, skip):
        udg = _deployments()[name]
        graph = gabriel_graph(udg)
        oracle = DistanceOracle(udg)
        got = oracle.stretch(graph, kind, skip_udg_adjacent=skip, alpha=ALPHA)
        ref = stretch_reference(
            graph, udg, _weight_fn(graph, kind), skip_udg_adjacent=skip
        )
        _assert_parity(got, ref)

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    def test_disconnected_measured_graph(self, kind):
        # Baseline-connected deployment whose measured graph is cut in
        # two: drop every edge crossing the middle of a line.
        udg = UnitDiskGraph([Point(float(i), 0.0) for i in range(10)], 2.5)
        cut = Graph(udg.positions)
        for u, v in udg.edge_set():
            if not (u <= 4 < v):
                cut.add_edge(u, v)
        got = DistanceOracle(udg).stretch(cut, kind, alpha=ALPHA)
        ref = stretch_reference(
            cut, udg, _weight_fn(cut, kind), skip_udg_adjacent=False
        )
        _assert_parity(got, ref)
        assert got.unreachable_pairs == ref.unreachable_pairs > 0
        assert math.isinf(got.max_or_inf)

    def test_power_alpha_varies(self):
        udg = _deployments()["random"]
        graph = relative_neighborhood_graph(udg)
        oracle = DistanceOracle(udg)
        for alpha in (2.0, 3.0, 4.5):
            got = oracle.stretch(graph, "power", alpha=alpha)
            ref = stretch_reference(
                graph, udg,
                lambda u, v, a=alpha: graph.edge_length(u, v) ** a,
                skip_udg_adjacent=False,
            )
            _assert_parity(got, ref)


class TestFallbackExactness:
    """No numpy, no scipy: the oracle must equal the reference exactly."""

    @pytest.mark.parametrize("name", ["random", "grid", "collinear"])
    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    @pytest.mark.parametrize("skip", [False, True])
    def test_bit_identical(self, name, kind, skip):
        udg = _deployments()[name]
        graph = gabriel_graph(udg)
        oracle = DistanceOracle(udg, use_numpy=False, use_scipy=False)
        got = oracle.stretch(graph, kind, skip_udg_adjacent=skip, alpha=ALPHA)
        ref = stretch_reference(
            graph, udg, _weight_fn(graph, kind),
            skip_udg_adjacent=skip, use_scipy=False,
        )
        assert got == ref  # frozen dataclass: field-for-field equality


@pytest.fixture(scope="module")
def table1_family():
    """The Table I topology family on a n=120 deployment-recipe instance,
    with its pure-Python reference stretch for every row and kind."""
    from repro.experiments.runner import STRETCH_TOPOLOGIES, build_all_topologies
    from repro.workloads.generators import connected_udg_instance

    n = 120
    dep = connected_udg_instance(n, 10.0 * math.sqrt(n), 25.0, random.Random(2002))
    udg = UnitDiskGraph(list(dep.points), dep.radius)
    graphs, _ = build_all_topologies(udg)
    reference = {
        (name, kind): stretch_reference(
            graphs[name], udg, _weight_fn(graphs[name], kind),
            skip_udg_adjacent=skip, use_scipy=False,
        )
        for name, skip in STRETCH_TOPOLOGIES.items()
        for kind in WEIGHT_KINDS
    }
    return udg, graphs, reference


def _summarize(udg, graphs, oracle) -> dict:
    from repro.core.metrics import summarize_family
    from repro.experiments.runner import STRETCH_TOPOLOGIES

    summary = summarize_family(
        udg, graphs, stretch_policy=STRETCH_TOPOLOGIES,
        power_alpha=ALPHA, oracle=oracle,
    )
    return {
        (name, kind): getattr(summary[name], kind)
        for name in STRETCH_TOPOLOGIES
        for kind in WEIGHT_KINDS
    }


class TestWholeFamily:
    """Every stretch row of Table I × every kind, through ``summarize_family``."""

    def test_fallback_bit_identical(self, table1_family):
        udg, graphs, reference = table1_family
        oracle = DistanceOracle(udg, max_entries=64, use_numpy=False, use_scipy=False)
        assert _summarize(udg, graphs, oracle) == reference

    def test_vectorized_parity(self, table1_family):
        udg, graphs, reference = table1_family
        got = _summarize(udg, graphs, DistanceOracle(udg, max_entries=64))
        for key, ref in reference.items():
            _assert_parity(got[key], ref)


class TestCaching:
    def test_counters_and_baseline_sharing(self):
        udg = _deployments()["random"]
        gg = gabriel_graph(udg)
        rng_graph = relative_neighborhood_graph(udg)
        oracle = DistanceOracle(udg)
        for graph in (gg, rng_graph):
            for kind in WEIGHT_KINDS:
                oracle.stretch(graph, kind, alpha=ALPHA)
        snap = oracle.snapshot()
        # 2 graphs x 3 kinds + 3 baseline matrices (misses); the second
        # graph's three stretch calls replay the baseline (hits).
        assert snap["counters"]["apsp_misses"] == 9
        assert snap["counters"]["apsp_hits"] == 3
        assert snap["counters"]["stretch_calls"] == 6
        assert snap["entries"] == 9

    def test_baseline_pinned_under_eviction(self):
        udg = _deployments()["random"]
        oracle = DistanceOracle(udg, max_entries=4)
        graphs = [gabriel_graph(udg), relative_neighborhood_graph(udg)]
        for graph in graphs:
            for kind in WEIGHT_KINDS:
                oracle.stretch(graph, kind, alpha=ALPHA)
        assert oracle.counters["evictions"] > 0
        # The UDG baseline matrices never leave the cache: re-running a
        # stretch re-misses the row matrix but not the baseline.
        hits_before = oracle.counters["apsp_hits"]
        oracle.stretch(graphs[0], "length")
        assert oracle.counters["apsp_hits"] == hits_before + 1

    def test_mismatched_node_set_rejected(self):
        udg = _deployments()["random"]
        other = _deployments()["grid"]
        with pytest.raises(ValueError, match="share the node set"):
            DistanceOracle(udg).stretch(gabriel_graph(other), "length")

    def test_mismatched_oracle_rejected_by_metrics(self):
        from repro.core.metrics import length_stretch

        udg = _deployments()["random"]
        other = _deployments()["grid"]
        with pytest.raises(ValueError, match="different baseline"):
            length_stretch(
                gabriel_graph(other), other, oracle=DistanceOracle(udg)
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown weight kind"):
            weight_key("euclidean")

    def test_alpha_below_one_rejected(self):
        udg = _deployments()["collinear"]
        with pytest.raises(ValueError, match="alpha"):
            DistanceOracle(udg).stretch(udg, "power", alpha=0.5)


_hypothesis_points = st.lists(
    st.tuples(st.integers(0, 16), st.integers(0, 16)),
    min_size=4,
    max_size=18,
    unique=True,
).map(lambda pts: [Point(x / 2.0, y / 2.0) for x, y in pts])


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_hypothesis_points, st.sampled_from(WEIGHT_KINDS))
def test_cache_hits_never_change_results(points, kind):
    """Property: a warm stretch equals the cold one, field for field."""
    udg = UnitDiskGraph(points, 3.0)
    graph = gabriel_graph(udg)
    oracle = DistanceOracle(udg)
    cold = oracle.stretch(graph, kind, alpha=ALPHA)
    misses_after_cold = oracle.counters["apsp_misses"]
    warm = oracle.stretch(graph, kind, alpha=ALPHA)
    assert warm == cold
    # The warm call was answered from cache, not recomputed.
    assert oracle.counters["apsp_misses"] == misses_after_cold
    assert oracle.counters["apsp_hits"] >= 2
