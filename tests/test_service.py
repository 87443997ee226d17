"""Unit tests for the service subsystem: registry, cache, executor, metrics."""


import pytest

from repro import obs
from repro.service.cache import ResultCache, scenario_key
from repro.service.executor import run_batch
from repro.service.metrics import LatencyHistogram, MetricsRegistry, percentile
from repro.service.registry import (
    RegistryError,
    available_pipelines,
    build_scenario,
    get_pipeline,
    resolve_scenario,
)
from repro.topology.gabriel import gabriel_graph

SCENARIO = {"nodes": 25, "side": 150.0, "radius": 55.0, "seed": 3}


class TestRegistry:
    def test_every_pipeline_listed(self):
        names = {entry["name"] for entry in available_pipelines()}
        assert {"udg", "gg", "rng", "ldel", "backbone", "cds", "icds"} <= names

    def test_unknown_pipeline(self):
        with pytest.raises(RegistryError, match="unknown pipeline"):
            get_pipeline("does-not-exist")

    def test_param_defaults_canonicalize(self):
        spec = get_pipeline("yao")
        assert spec.canonicalize(None) == {"k": 6, "measure": False}
        assert spec.canonicalize({"k": 8}) == {"k": 8, "measure": False}

    def test_measured_build_ships_metrics_and_oracle_extras(self):
        with obs.recording() as record:
            product = build_scenario("gg", SCENARIO, {"measure": True})
        metrics = product.extras["metrics"]
        assert metrics["length_stretch"]["avg"] >= 1.0
        assert metrics["hop_stretch"]["pairs"] > 0
        assert metrics["power_stretch"] is not None
        oracle = product.extras["oracle"]
        # One UDG baseline + one measured graph, three weight kinds
        # each: 6 misses, and the baseline matrices are reused.
        assert oracle["counters"]["apsp_misses"] == 6
        assert oracle["counters"]["stretch_calls"] == 3
        assert set(oracle) == {"counters", "entries"}
        assert {name for name, _ in record["spans"]} == {
            "oracle.stage.snapshot", "oracle.stage.apsp", "oracle.stage.kernel",
        }
        assert record["counts"]["oracle.apsp_misses"] == 6
        bare = build_scenario("gg", SCENARIO)
        assert "metrics" not in bare.extras and "oracle" not in bare.extras

    def test_unknown_param_rejected(self):
        with pytest.raises(RegistryError, match="no parameter"):
            get_pipeline("gg").canonicalize({"k": 3})

    def test_bad_param_type_rejected(self):
        with pytest.raises(RegistryError, match="expects int"):
            get_pipeline("yao").canonicalize({"k": "six"})

    def test_bad_choice_rejected(self):
        with pytest.raises(RegistryError, match="must be one of"):
            get_pipeline("backbone").canonicalize({"election": "coin-flip"})

    def test_gg_matches_library(self):
        product = build_scenario("gg", SCENARIO)
        deployment = resolve_scenario(SCENARIO)
        expected = gabriel_graph(deployment.udg())
        assert product.graph.edge_set() == expected.edge_set()

    def test_backbone_product_is_routable(self):
        product = build_scenario("backbone", SCENARIO)
        assert product.backbone is not None
        assert product.graph.edge_set() == product.backbone.ldel_icds.edge_set()

    def test_flat_product_is_not_routable(self):
        assert build_scenario("rng", SCENARIO).backbone is None


class TestScenarioResolution:
    def test_generator_is_deterministic(self):
        a = resolve_scenario(SCENARIO)
        b = resolve_scenario(SCENARIO)
        assert a.points == b.points

    def test_explicit_points(self):
        deployment = resolve_scenario(
            {"points": [[0, 0], [1, 0], [0.5, 1]], "radius": 2.0}
        )
        assert len(deployment.points) == 3
        assert deployment.radius == 2.0

    def test_corpus_reference(self):
        deployment = resolve_scenario({"corpus": "paper-sparse/0"})
        assert len(deployment.points) == 20

    def test_invalid_scenarios(self):
        for bad in (
            {},
            {"points": [[0, 0]]},  # no radius
            {"corpus": "no-such-entry"},
            {"generator": "hexagonal", "nodes": 10},
        ):
            with pytest.raises(RegistryError):
                resolve_scenario(bad)


class TestScenarioKey:
    POINTS = [(0.0, 0.0), (1.0, 2.0), (3.5, 4.25)]

    def test_stable(self):
        assert scenario_key(self.POINTS, 1.0, "gg", {}) == scenario_key(
            self.POINTS, 1.0, "gg", {}
        )

    def test_sensitive_to_every_component(self):
        base = scenario_key(self.POINTS, 1.0, "yao", {"k": 6})
        assert base != scenario_key(self.POINTS[:2], 1.0, "yao", {"k": 6})
        assert base != scenario_key(self.POINTS, 2.0, "yao", {"k": 6})
        assert base != scenario_key(self.POINTS, 1.0, "gg", {"k": 6})
        assert base != scenario_key(self.POINTS, 1.0, "yao", {"k": 7})

    def test_param_order_irrelevant(self):
        a = scenario_key(self.POINTS, 1.0, "x", {"a": 1, "b": 2.5})
        b = scenario_key(self.POINTS, 1.0, "x", {"b": 2.5, "a": 1})
        assert a == b

    def test_resolved_scenarios_share_keys(self):
        # A corpus reference and its explicit points address one entry.
        deployment = resolve_scenario({"corpus": "paper-sparse/0"})
        explicit = [(p.x, p.y) for p in deployment.points]
        assert scenario_key(deployment.points, deployment.radius, "gg", {}) == \
            scenario_key(explicit, deployment.radius, "gg", {})


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        value, hit = cache.get_or_build("k1", lambda: "built")
        assert (value, hit) == ("built", False)
        value, hit = cache.get_or_build("k1", lambda: "rebuilt")
        assert (value, hit) == ("built", True)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_disk_layer_round_trip(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("k", {"payload": [1, 2, 3]})
        # A fresh cache over the same dir warms from disk.
        warm = ResultCache(max_entries=4, disk_dir=tmp_path)
        assert warm.get("k") == {"payload": [1, 2, 3]}
        assert warm.stats.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert cache.stats.disk_errors == 1


def _square(x):
    return x * x


def _explode(x):
    raise RuntimeError(f"boom {x}")


class TestExecutor:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_results_in_order(self, mode):
        outcome = run_batch(list(range(8)), _square, mode=mode, max_workers=2)
        assert [o.value for o in outcome.outcomes] == [x * x for x in range(8)]
        assert all(o.ok for o in outcome.outcomes)
        assert outcome.succeeded == 8 and outcome.failed == 0

    def test_errors_captured_not_raised(self):
        outcome = run_batch([1, 2], _explode, mode="thread")
        assert outcome.failed == 2
        assert "boom 1" in outcome.outcomes[0].error
        assert outcome.values() == [None, None]

    def test_mixed_serial_errors(self):
        def flaky(x):
            if x % 2:
                raise ValueError("odd")
            return x

        outcome = run_batch([0, 1, 2, 3], flaky, mode="serial")
        assert [o.ok for o in outcome.outcomes] == [True, False, True, False]

    def test_empty_batch(self):
        outcome = run_batch([], _square, mode="process")
        assert outcome.outcomes == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown executor mode"):
            run_batch([1], _square, mode="fiber")

    def test_timeout_marked(self):
        import time

        outcome = run_batch(
            [0.4], time.sleep, mode="thread", timeout=0.05
        )
        assert not outcome.outcomes[0].ok
        assert outcome.outcomes[0].timed_out

    def test_metrics_observed(self):
        metrics = MetricsRegistry()
        run_batch([1, 2, 3], _square, mode="serial", metrics=metrics)
        snap = metrics.snapshot()
        assert snap["latency"]["executor.task"]["count"] == 3


class TestMetrics:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.inc("requests")
        metrics.inc("requests", 4)
        assert metrics.snapshot()["counters"]["requests"] == 5

    def test_percentiles(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.50) == pytest.approx(50.5)
        assert percentile(values, 0.99) == pytest.approx(99.01)
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.95) == 7.0

    def test_histogram_snapshot(self):
        histogram = LatencyHistogram("h")
        for ms in (10, 20, 30, 40):
            histogram.observe(ms / 1000.0)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["min_ms"] == pytest.approx(10.0)
        assert snap["max_ms"] == pytest.approx(40.0)
        assert snap["p50_ms"] == pytest.approx(25.0)

    def test_histogram_window_bounded(self):
        histogram = LatencyHistogram("h", max_samples=64)
        for i in range(1000):
            histogram.observe(i / 1000.0)
        snap = histogram.snapshot()
        assert snap["count"] == 1000  # lifetime count survives trimming
        assert len(histogram._samples) <= 64

    def test_timer(self):
        metrics = MetricsRegistry()
        with metrics.timer("op"):
            pass
        assert metrics.snapshot()["latency"]["op"]["count"] == 1
