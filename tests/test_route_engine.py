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
import sys
import threading

import numpy as np
import pytest

import repro.core.route_engine as re_mod
from repro.core.compat import numpy_active, numpy_disabled
from repro.core.route_engine import (
    DELIVERED,
    METHODS,
    BackboneRouter,
    RouteEngine,
    component_labels_for,
    replay_failures,
)
from repro.core.soa import snapshot_for
from repro.core.spanner import build_backbone
from repro.graphs.quasi import QuasiUnitDiskGraph
from repro.graphs.udg import UnitDiskGraph
from repro.routing.backbone_routing import backbone_route
from repro.routing.compass import compass_route
from repro.routing.face import _direction, _rhr_next
from repro.routing.gpsr import gpsr_route
from repro.routing.greedy import greedy_route
from repro.workloads.generators import connected_udg_instance

SCALARS = {"greedy": greedy_route, "compass": compass_route, "gpsr": gpsr_route}

#: The degree-class tables and the step kernels exist only with numpy.
needs_numpy = pytest.mark.skipif(not numpy_active(), reason="step kernels need numpy")


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
def hub_world():
    # A hub inside a dense disc (degree 53) over a sparse scatter:
    # degrees span seven classes, a dozen nodes are isolated, and four
    # points repeat earlier ones (the hub among them).
    rng = random.Random(41)
    pts = [(100.0, 100.0)]
    pts += [(100 + rng.uniform(-15, 15), 100 + rng.uniform(-15, 15)) for _ in range(50)]
    pts += [(rng.uniform(0, 240), rng.uniform(0, 240)) for _ in range(70)]
    pts += [pts[0], pts[7], pts[60], pts[61]]
    pts += [(400.0, 400.0), (460.0, 400.0)]
    udg = UnitDiskGraph(pts, 22.0)
    n = udg.node_count
    pairs = sample_pairs(n, 150, 3)
    pairs += [(0, 121), (121, 0), (7, 122), (123, 60), (0, 125), (125, 0), (125, 126)]
    pairs += [(0, t) for t in range(1, n, 9)] + [(s, 0) for s in range(2, n, 11)]
    return udg, pairs


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
def test_batch_matches_scalar_on_hub_world(hub_world, method):
    graph, pairs = hub_world
    assert_batch_matches_scalar(graph, pairs, method)


@needs_numpy
def test_degree_class_tables_match_the_csr(hub_world):
    graph, _ = hub_world
    snap = snapshot_for(graph)
    dc = snap.degree_classes()
    assert snap.degree_classes() is dc
    # The fixture spans at least four classes, with isolated nodes and
    # repeated points.
    assert sum(1 for table in dc.entries if table.shape[0]) >= 4
    assert (dc.node_class == -1).sum() >= 2
    assert len(set(graph.positions)) < graph.node_count
    deg = snap.degrees()
    slots = sum(table.size for table in dc.entries)
    assert slots < 2 * snap.indices.shape[0]
    for u in range(snap.n):
        c = int(dc.node_class[u])
        if deg[u] == 0:
            assert c == -1
            continue
        assert 2 ** (c - 1) < deg[u] <= 2 ** c
        row = dc.entries[c][dc.node_row[u]]
        real = row[row != dc.pad]
        nbrs = dc.neighbor[real].tolist()
        assert nbrs == snap.neighbors_of(u).tolist()
        assert (row[: deg[u]] == real).all()
        at = dc.coords[c][dc.node_row[u]]
        assert at.real[: deg[u]].tolist() == [graph.positions[v][0] for v in nbrs]
        assert at.imag[: deg[u]].tolist() == [graph.positions[v][1] for v in nbrs]
        assert np.isinf(at[deg[u]:].real).all()


def _first_hop(route):
    return route.path[1] if len(route.path) > 1 else -1


@needs_numpy
def test_steps_match_scalar_choice_at_every_node(hub_world):
    # One step from every node toward a spread of targets, and one
    # right-hand-rule step per (node, arrival edge): every class row,
    # padded or not, isolated and coincident nodes included.
    graph, _ = hub_world
    snap = snapshot_for(graph)
    n = snap.n
    cur = np.repeat(np.arange(n), 6)
    tgt = (cur * 7 + np.tile(np.arange(1, 7) * 13, n)) % n
    keep = cur != tgt
    cur, tgt = cur[keep], tgt[keep]
    tx, ty = snap.xs[tgt], snap.ys[tgt]
    greedy = re_mod._greedy_step(np, snap, cur, tx, ty)
    compass = re_mod._compass_step(np, snap, cur, tgt, tx, ty)
    for i, (u, t) in enumerate(zip(cur.tolist(), tgt.tolist())):
        assert greedy[i] == _first_hop(greedy_route(graph, u, t, max_hops=1))
        assert compass[i] == _first_hop(compass_route(graph, u, t, max_hops=1))
    tables = RouteEngine(graph)._tables_for(np, snap)
    came = np.concatenate([np.full(n, -1), snap.indices])
    here = np.concatenate([np.arange(n), np.repeat(np.arange(n), snap.degrees())])
    far = (here + 5) % n
    rhr = re_mod._rhr_step(np, snap, tables, here, came, snap.xs[far], snap.ys[far])
    # A second round answers the arrivals from the per-edge memo.
    again = re_mod._rhr_step(np, snap, tables, here, came, snap.xs[far], snap.ys[far])
    assert (again == rhr).all()
    pos = graph.positions
    for i, (u, c, t) in enumerate(zip(here.tolist(), came.tolist(), far.tolist())):
        ref = _direction(pos[u], pos[t] if c < 0 else pos[c])
        want = _rhr_next(graph, u, ref, None if c < 0 else c)
        assert rhr[i] == (-1 if want is None else want)


@needs_numpy
def test_sentinel_slots_never_win():
    # Node 0 has three neighbours, so its row carries one sentinel slot
    # at infinity.  The compass cosine and the right-hand-rule sweep of
    # that slot are NaN, and argmin returns the first NaN: only the
    # explicit masks keep the walk on real neighbours.
    pts = [(0.0, 0.0), (1.0, 0.0), (-0.5, 0.8), (-0.5, -0.8), (2.0, 0.0)]
    graph = UnitDiskGraph(pts, 1.2)
    snap = snapshot_for(graph)
    dc = snap.degree_classes()
    assert snap.degrees()[0] == 3 and dc.entries[2][dc.node_row[0]][3] == dc.pad
    for method in METHODS:
        assert_batch_matches_scalar(graph, [(0, 4), (2, 4), (3, 1), (4, 3)], method)
    tables = RouteEngine(graph)._tables_for(np, snap)
    for came in (-1, 1, 2, 3):
        got = re_mod._rhr_step(
            np, snap, tables, np.array([0]), np.array([came]),
            snap.xs[[4]], snap.ys[[4]],
        )
        ref = _direction(pts[0], pts[4] if came < 0 else pts[came])
        assert got[0] == _rhr_next(graph, 0, ref, None if came < 0 else came)


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


@pytest.mark.parametrize("method", METHODS)
def test_sliced_greedy_step_keeps_parity(world, hub_world, method, monkeypatch):
    # A few table slots per slice: every degree class of a round runs
    # as several slices (one query each in the hub's 64-wide class),
    # which must give the scalar paths.
    monkeypatch.setattr(re_mod, "_STEP_ENTRIES", 64)
    for graph, pairs in (world, hub_world):
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


def assert_backbone_matches_scalar(result, pairs, batch, mode):
    for i, (s, t) in enumerate(pairs):
        ref = backbone_route(result, s, t, mode=mode)
        if batch.path_indptr is not None:
            assert batch.path(i) == ref.path, f"backbone {mode} differs at {(s, t)}"
        assert batch.reason(i) == ref.reason
        assert int(batch.hops[i]) == ref.hops


@pytest.mark.parametrize("mode", ("gpsr", "greedy"))
def test_backbone_batch_matches_scalar(backbone_world, mode):
    result, pairs = backbone_world
    batch = BackboneRouter(result).route_pairs(pairs, mode=mode)
    assert_backbone_matches_scalar(result, pairs, batch, mode)


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


@pytest.fixture(scope="module")
def holey_backbone_world():
    # Sparse enough that backbone greedy strands pairs GPSR delivers.
    dep = connected_udg_instance(100, 300.0, 45.0, random.Random(1))
    result = build_backbone(dep.points, dep.radius, mode="fast")
    return result, sample_pairs(result.udg.node_count, 60, 9)


def test_bounded_core_memo_stays_transparent(holey_backbone_world):
    result, pairs = holey_backbone_world
    router = BackboneRouter(result, cache_entries=8)
    for rep in range(2):
        for lo in range(0, len(pairs), 7):
            part = pairs[lo : lo + 7]
            batch = router.route_pairs(part, mode="gpsr")
            assert all(len(memo) <= 8 for memo in router._memos.values())
            assert_backbone_matches_scalar(result, part, batch, "gpsr")
        whole = router.route_pairs(pairs, mode="gpsr")
        assert all(len(memo) <= 8 for memo in router._memos.values())
        assert_backbone_matches_scalar(result, pairs, whole, "gpsr")


def test_paths_after_a_pathless_batch(holey_backbone_world):
    result, pairs = holey_backbone_world
    router = BackboneRouter(result)
    bare = router.route_pairs(pairs, mode="gpsr", keep_paths=False)
    assert_backbone_matches_scalar(result, pairs, bare, "gpsr")
    full = router.route_pairs(pairs, mode="gpsr", keep_paths=True)
    assert_backbone_matches_scalar(result, pairs, full, "gpsr")
    again = router.route_pairs(pairs[::-1], mode="gpsr", keep_paths=True)
    assert_backbone_matches_scalar(result, pairs[::-1], again, "gpsr")


@pytest.mark.parametrize("first", ("gpsr", "greedy"))
def test_core_memos_are_per_mode(holey_backbone_world, first):
    result, pairs = holey_backbone_world
    router = BackboneRouter(result)
    second = "greedy" if first == "gpsr" else "gpsr"
    a = router.route_pairs(pairs, mode=first)
    b = router.route_pairs(pairs, mode=second)
    assert any(a.path(i) != b.path(i) for i in range(len(pairs)))
    assert_backbone_matches_scalar(result, pairs, a, first)
    assert_backbone_matches_scalar(result, pairs, b, second)


def test_shared_router_under_concurrent_batches(holey_backbone_world):
    # The service shares one router between request threads.  Six
    # threads (more than cores) route overlapping batches through one
    # small memo that merges and clears all the time; every batch must
    # still equal a cold router's.
    result, pairs = holey_backbone_world
    cold = BackboneRouter(result).route_pairs(pairs, mode="gpsr")
    want = [(cold.path(i), cold.reason(i)) for i in range(len(pairs))]
    router = BackboneRouter(result, cache_entries=12)
    failures = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(80):
                idx = rng.sample(range(len(pairs)), 5)
                keep = rng.random() < 0.5
                got = router.route_pairs([pairs[i] for i in idx], mode="gpsr", keep_paths=keep)
                for j, i in enumerate(idx):
                    if got.reason(j) != want[i][1] or (keep and got.path(j) != want[i][0]):
                        failures.append((seed, pairs[i]))
        except Exception as exc:  # a torn memo read raises in the worker
            failures.append((seed, repr(exc)))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_shortest_paths_on_a_split_backbone():
    # Two clusters out of range of each other: a core across them has
    # no shortest path and reports stuck at its entry, as the scalar
    # reference does.
    rng = random.Random(4)
    pts = [(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(30)]
    pts += [(rng.uniform(300, 360), rng.uniform(0, 60)) for _ in range(30)]
    result = build_backbone(pts, 30.0, mode="fast")
    pairs = sample_pairs(60, 40, 2)
    router = BackboneRouter(result)
    batch = router.route_pairs(pairs, mode="shortest")
    ref = router._route_pairs_scalar(
        pairs, mode="shortest", max_hops=None, keep_paths=True,
        count_unreachable=False,
    )
    assert any(r != DELIVERED for r in ref.reasons)
    for i in range(len(pairs)):
        assert batch.path(i) == ref.path(i)
        assert batch.reason(i) == ref.reason(i)


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
