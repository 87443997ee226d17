"""Unit tests for the batched vectorized route engine.

The engine's contract is parity: every batch kernel must return the
same paths, hop counts, and terminal reasons as the scalar routers in
``repro.routing``, on both radio models, with or without numpy, and
through the straggler-drain path.  These tests pin that contract plus
the batch-result accounting (delivery rates, unreachable pairs) and
the failure-replay summaries.
"""

import math
import random

import pytest

import repro.core.route_engine as re_mod
from repro.core.compat import numpy_disabled
from repro.core.route_engine import (
    DELIVERED,
    METHODS,
    BackboneRouter,
    RouteEngine,
    component_labels_for,
    replay_failures,
)
from repro.core.spanner import build_backbone
from repro.graphs.quasi import QuasiUnitDiskGraph
from repro.graphs.udg import UnitDiskGraph
from repro.routing.backbone_routing import backbone_route
from repro.routing.compass import compass_route
from repro.routing.gpsr import gpsr_route
from repro.routing.greedy import greedy_route
from repro.workloads.generators import connected_udg_instance

SCALARS = {"greedy": greedy_route, "compass": compass_route, "gpsr": gpsr_route}


def sample_pairs(n, count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            pairs.append((s, t))
    return pairs


@pytest.fixture(scope="module")
def world():
    rng = random.Random(11)
    dep = connected_udg_instance(70, 170.0, 45.0, rng)
    udg = UnitDiskGraph(dep.points, dep.radius)
    return udg, sample_pairs(udg.node_count, 60, 5)


@pytest.fixture(scope="module")
def sparse_world():
    # Small radius on a wide field: several components, so a good
    # fraction of sampled pairs are genuinely unreachable.
    rng = random.Random(23)
    pts = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(60)]
    udg = UnitDiskGraph(pts, 45.0)
    return udg, sample_pairs(udg.node_count, 60, 7)


@pytest.fixture(scope="module")
def backbone_world():
    rng = random.Random(17)
    dep = connected_udg_instance(80, 190.0, 50.0, rng, generator="clustered")
    result = build_backbone(dep.points, dep.radius, mode="fast")
    return result, sample_pairs(result.udg.node_count, 50, 9)


def assert_batch_matches_scalar(graph, pairs, method):
    batch = RouteEngine(graph).route_pairs(pairs, method=method)
    scalar = SCALARS[method]
    for i, (s, t) in enumerate(pairs):
        ref = scalar(graph, s, t)
        assert batch.path(i) == ref.path, f"{method} path differs at {(s, t)}"
        assert batch.reason(i) == ref.reason
        assert int(batch.hops[i]) == ref.hops
        # np.hypot and math.hypot may round a hop differently by 1 ulp.
        assert float(batch.lengths[i]) == pytest.approx(
            ref.length(graph), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("method", METHODS)
def test_batch_matches_scalar_on_udg(world, method):
    graph, pairs = world
    assert_batch_matches_scalar(graph, pairs, method)


@pytest.mark.parametrize("method", METHODS)
def test_batch_matches_scalar_on_sparse(sparse_world, method):
    graph, pairs = sparse_world
    assert_batch_matches_scalar(graph, pairs, method)


@pytest.mark.parametrize("method", METHODS)
def test_batch_matches_scalar_on_quasi(method):
    rng = random.Random(31)
    pts = [(rng.uniform(0, 160), rng.uniform(0, 160)) for _ in range(55)]
    quasi = QuasiUnitDiskGraph(
        pts, 45.0, epsilon=0.7, link_seed=3, keep_probability=0.5
    )
    assert_batch_matches_scalar(quasi, sample_pairs(55, 50, 13), method)


def test_unreachable_accounting_mirrors_components(sparse_world):
    graph, pairs = sparse_world
    labels = component_labels_for(graph)
    expected = sum(1 for s, t in pairs if labels[s] != labels[t])
    assert expected > 0, "fixture should produce cross-component pairs"
    batch = RouteEngine(graph).route_pairs(pairs, method="greedy")
    assert batch.unreachable_pairs == expected
    # An unreachable pair can never be delivered, whatever the method.
    for i, (s, t) in enumerate(pairs):
        if labels[s] != labels[t]:
            assert batch.reason(i) != "delivered"
    reachable = batch.pairs - expected
    assert batch.reachable_delivery_rate == pytest.approx(
        batch.delivered_count / reachable
    )
    assert batch.delivery_rate == pytest.approx(batch.delivered_count / len(pairs))


def test_keep_paths_false_skips_materialization(world):
    graph, pairs = world
    batch = RouteEngine(graph).route_pairs(pairs, method="greedy", keep_paths=False)
    with pytest.raises(ValueError):
        batch.path(0)
    summary = batch.summary()
    assert summary["pairs"] == len(pairs)
    assert 0.0 <= summary["delivery_rate"] <= 1.0
    assert set(summary["reasons"]) == set(re_mod.REASON_STRINGS)


def test_chunked_equals_unchunked(world):
    graph, pairs = world
    engine = RouteEngine(graph)
    whole = engine.route_pairs(pairs, method="gpsr")
    tiny = engine.route_pairs(pairs, method="gpsr", chunk=7)
    for i in range(len(pairs)):
        assert whole.path(i) == tiny.path(i)
        assert whole.reason(i) == tiny.reason(i)


@pytest.mark.parametrize("method", METHODS)
def test_straggler_drain_keeps_parity(world, method, monkeypatch):
    # Force the bailout on round one with every query still active:
    # the entire batch goes through _drain_stragglers, which must strip
    # the partial step records and still return scalar-identical paths.
    monkeypatch.setattr(re_mod, "_BAIL_ROUNDS", 1)
    monkeypatch.setattr(re_mod, "_BAIL_ACTIVE", 1 << 30)
    graph, pairs = world
    assert_batch_matches_scalar(graph, pairs, method)


@pytest.mark.parametrize("method", ("greedy", "gpsr"))
def test_sliced_greedy_step_keeps_parity(world, method, monkeypatch):
    # A few neighbor entries per slice: every greedy round of the batch
    # runs as many small slices, which must give the scalar paths.
    monkeypatch.setattr(re_mod, "_STEP_ENTRIES", 64)
    graph, pairs = world
    assert_batch_matches_scalar(graph, pairs, method)


def test_result_objects_round_trip(world):
    graph, pairs = world
    batch = RouteEngine(graph).route_pairs(pairs, method="greedy")
    for i, res in enumerate(batch.results()):
        assert res.path == batch.path(i)
        assert res.delivered == (int(batch.reasons[i]) == DELIVERED)
        assert res.hops == int(batch.hops[i])


def test_pair_validation_and_unknown_method(world):
    graph, pairs = world
    engine = RouteEngine(graph)
    with pytest.raises(ValueError):
        engine.route_pairs([(0, graph.node_count)], method="greedy")
    with pytest.raises(ValueError):
        engine.route_pairs(pairs, method="dijkstra")


def test_no_numpy_fallback_matches_vectorized(world):
    graph, pairs = world
    vec = RouteEngine(graph).route_pairs(pairs, method="gpsr")
    with numpy_disabled():
        plain = RouteEngine(graph).route_pairs(pairs, method="gpsr")
    for i in range(len(pairs)):
        assert plain.path(i) == vec.path(i)
        assert plain.reason(i) == vec.reason(i)
        assert plain.hops[i] == int(vec.hops[i])


# -- backbone routing ---------------------------------------------------------


@pytest.mark.parametrize("mode", ("gpsr", "greedy"))
def test_backbone_batch_matches_scalar(backbone_world, mode):
    result, pairs = backbone_world
    batch = BackboneRouter(result).route_pairs(pairs, mode=mode)
    for i, (s, t) in enumerate(pairs):
        ref = backbone_route(result, s, t, mode=mode)
        assert batch.path(i) == ref.path, f"backbone {mode} differs at {(s, t)}"
        assert batch.reason(i) == ref.reason
        assert int(batch.hops[i]) == ref.hops


def test_backbone_shortest_matches_dijkstra_reference(backbone_world):
    result, pairs = backbone_world
    router = BackboneRouter(result)
    batch = router.route_pairs(pairs, mode="shortest", keep_paths=False)
    ref = router._route_pairs_scalar(
        pairs, mode="shortest", max_hops=None, keep_paths=False,
        count_unreachable=False,
    )
    for i in range(len(pairs)):
        assert int(batch.reasons[i]) == int(ref.reasons[i])
        if int(batch.reasons[i]) == DELIVERED and float(ref.lengths[i]) > 0.0:
            rel = abs(float(batch.lengths[i]) - float(ref.lengths[i]))
            rel /= float(ref.lengths[i])
            assert rel <= 1e-9


def test_backbone_core_cache_is_transparent(backbone_world):
    result, pairs = backbone_world
    router = BackboneRouter(result)
    cold = BackboneRouter(result).route_pairs(pairs, mode="gpsr")
    warm = router.route_pairs(pairs, mode="gpsr")
    again = router.route_pairs(pairs, mode="gpsr")
    for i in range(len(pairs)):
        assert cold.path(i) == warm.path(i) == again.path(i)
        assert cold.reason(i) == warm.reason(i) == again.reason(i)


# -- failure replay -----------------------------------------------------------


def test_replay_no_loss_matches_plain_batch(backbone_world):
    result, pairs = backbone_world
    plain = BackboneRouter(result).route_pairs(pairs, mode="gpsr", keep_paths=False)
    report = replay_failures(result, pairs, node_loss=0.0, link_loss=0.0)
    assert report["failed_nodes"] == 0
    assert report["endpoint_failed"] == 0
    assert report["routed"] == len(pairs)
    assert report["survived"] == report["delivered"] == plain.delivered_count
    assert report["delivery_rate"] == pytest.approx(plain.delivery_rate)
    assert report["stretch_samples"] == report["survived"]
    assert report["stretch_avg"] >= 1.0 - 1e-9


def test_replay_node_loss_is_deterministic_and_degrades(backbone_world):
    result, pairs = backbone_world
    a = replay_failures(result, pairs, node_loss=0.2, seed=4)
    b = replay_failures(result, pairs, node_loss=0.2, seed=4)
    assert a == b
    assert a["failed_nodes"] > 0
    assert a["routed"] + a["endpoint_failed"] == len(pairs)
    baseline = replay_failures(result, pairs)
    assert a["delivery_rate"] <= baseline["delivery_rate"] + 1e-12


def test_replay_total_link_loss_drops_everything(backbone_world):
    result, pairs = backbone_world
    report = replay_failures(result, pairs, link_loss=1.0, with_stretch=False)
    assert report["survived"] == 0
    assert report["delivery_rate"] == 0.0
    assert report["link_dropped"] == report["delivered"]
    assert report["stretch_samples"] == 0


# -- RouteResult caching (scalar side) ---------------------------------------


def test_route_result_length_and_power_cost_cached(world):
    graph, pairs = world
    s, t = pairs[0]
    res = greedy_route(graph, s, t)
    assert res.delivered and res.hops >= 1
    expected_len = 0.0
    expected_sq = 0.0
    pos = graph.positions
    for a, b in zip(res.path, res.path[1:]):
        d = math.hypot(pos[b][0] - pos[a][0], pos[b][1] - pos[a][1])
        expected_len += d
        expected_sq += d * d
    assert res.length(graph) == pytest.approx(expected_len, rel=1e-12)
    assert res.power_cost(graph) == pytest.approx(expected_sq, rel=1e-12)
    assert res.power_cost(graph, alpha=1.0) == res.length(graph)
    # Repeat calls hit the per-(graph, alpha) cache: identical bits.
    assert res.length(graph) == res.length(graph)
    assert res.power_cost(graph, alpha=4.0) == res.power_cost(graph, alpha=4.0)
