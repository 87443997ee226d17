"""Tests for the benchmark suite.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

The workload tests call each workload function in-process at toy
sizes; they check outputs and bookkeeping, not speed.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import common
import compare
import library
import run
import serving
from common import (
    Tracer,
    WorkloadResult,
    error_rate,
    quartiles,
    tail_name,
    tail_per_mille,
)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (99, None), (100, 900), (199, 900), (200, 950),
     (999, 950), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_per_mille(count) == expected


def test_tail_names():
    assert tail_name("step", 900, "ms") == "step_p90_ms"
    assert tail_name("step", 999, "ms") == "step_p999_ms"


def test_timing_details_report_median_and_supported_tail_only():
    result = WorkloadResult("w")
    result.timing("step", [i / 1000.0 for i in range(150)], "ms")
    assert result.details["step_samples"] == (150.0, "count")
    assert result.details["step_p50_ms"][0] == pytest.approx(74.5)
    assert "step_p90_ms" in result.details
    assert "step_p95_ms" not in result.details
    few = WorkloadResult("w")
    few.timing("build", [1.0, 2.0, 3.0], "s")
    assert set(few.details) == {"build_samples", "build_p50_s"}


# -- error accounting ---------------------------------------------------------


def test_error_rate_arithmetic():
    assert error_rate(10, 0) == 0.0
    assert error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(3, 4)


def test_each_check_is_one_attempt():
    result = WorkloadResult("w")
    result.check(True, "")
    result.check(False, "broken output")
    assert (result.attempted, result.failed, result.problems) == (2, 1, ["broken output"])
    assert error_rate(result.attempted, result.failed) == 0.5


# -- spans --------------------------------------------------------------------


def test_self_times_subtract_children_and_sum_to_the_root(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    monkeypatch.setattr(common.time, "perf_counter", lambda: next(clock))
    tracer = Tracer()
    with tracer.span("root"):          # 0 .. 10
        with tracer.span("a"):         # 1 .. 6
            with tracer.span("b"):     # 2 .. 5
                pass
        with tracer.span("a"):         # 7 .. 9
            pass
    assert tracer.self_s == {"b": 3.0, "a": 4.0, "root": 3.0}
    assert sum(tracer.self_s.values()) == 10.0


# -- compare.py ---------------------------------------------------------------


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert compare.spread(values) == pytest.approx((q3 - q1) / q2)


def test_worse_by_follows_the_better_direction():
    a, b = [10.0, 10.0, 10.0], [12.0, 12.0, 12.0]
    assert compare.worse_by(a, b, "lower") == pytest.approx(0.2)
    assert compare.worse_by(a, b, "higher") == pytest.approx(-0.2)


def test_verdict_against_the_bound():
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert compare.verdict(steady, [104.0] * 5, "lower", 0.10) == "ok"
    assert compare.verdict(steady, [115.0] * 5, "lower", 0.10) == "REGRESSION"
    assert compare.verdict(steady, [85.0] * 5, "higher", 0.10) == "REGRESSION"
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, [115.0] * 5, "lower", 0.10) == "unresolved"
    assert compare.verdict(steady, [500.0] * 5, "lower", None) == ""


def test_digest_mismatch_is_reported_per_seed():
    records = [
        {"workload": "w", "seed": 1, "trace": 0, "digest": "x"},
        {"workload": "w", "seed": 1, "trace": 0, "digest": "y"},
        {"workload": "w", "seed": 2, "trace": 0, "digest": "z"},
    ]
    assert compare.digest_mismatches(records) == ["w seed 1: 2 different digests"]


# -- pace ---------------------------------------------------------------------


def test_paced_time_scales_by_the_samples_around_the_operation():
    pace = common.Pace()
    ref = common.REFERENCE_S
    pace.at, pace.reference_s = [1.0, 5.0, 9.0], [ref, 2 * ref, 4 * ref]
    assert pace.paced(3.0, 1.5) == pytest.approx(1.5 / 1.5)   # between 1 and 2
    assert pace.paced(6.0, 3.0) == pytest.approx(3.0 / 3.0)   # between 2 and 4
    assert pace.paced(0.0, 2.0) == pytest.approx(2.0)         # before the first
    assert pace.paced(9.5, 4.0) == pytest.approx(1.0)         # after the last
    pace.sample()
    assert pace.reference_s[-1] > 0.0


# -- serve-mixed plan and latency ---------------------------------------------


def test_mix_latency_is_the_geometric_mean_of_class_medians():
    base = {"hit": [0.001, 0.002, 0.003], "miss": [0.1], "route": [0.03], "step": [0.04]}
    slow_hit = dict(base, hit=[0.002, 0.004, 0.006])
    # Doubling any one of four classes raises it by 2 ** (1/4).
    assert serving.mix_p50_ms(slow_hit) / serving.mix_p50_ms(base) == pytest.approx(2 ** 0.25)
    # A class whose every request failed is left out instead of raising.
    assert serving.mix_p50_ms(dict(base, step=[])) == pytest.approx(
        statistics.geometric_mean([0.002, 0.1, 0.03]) * 1000.0
    )
    assert serving.mix_p50_ms({"hit": [], "miss": []}) == 0.0


def test_open_loop_plan_prefix_does_not_depend_on_the_phase_length():
    hot = [[(float(i), float(i)) for i in range(30)] for _ in range(serving.HOT_SCENARIOS)]
    primed = [json.dumps({"key": f"k{h}"}).encode() for h in range(serving.HOT_SCENARIOS)]

    def plan(seconds):
        traffic = serving.Traffic(7, hot, primed, ["s0", "s1"], miss_n=20, route_pairs=5)
        return [(r.cls, r.path, r.body, r.due)
                for r in traffic.schedule(seconds, serving.OPEN_LOOP_RATE)]

    short, long = plan(1.0), plan(30.0)
    prefix = serving.DIGEST_BLOCKS * serving.MIX_BLOCK
    assert len(short) == prefix < len(long)
    assert long[:prefix] == short
    counts = {cls: sum(r[0] == cls for r in long[:serving.MIX_BLOCK]) for cls, _ in serving.MIX}
    assert counts == {cls: round(share * serving.MIX_BLOCK) for cls, share in serving.MIX}


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_declaration_is_within_the_schema():
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(run.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + workloads
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(bounds.values())} in SPEC["end_to_end"]
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["peak_rss_mb"] == 0.1
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_metric_map_requires_end_to_end_and_zero_fills_idle_layers():
    declared = [{"name": "x_ms", "unit": "ms"}, {"name": "y_s", "unit": "s"}]
    produced = {"x_ms": (1.5, "ms")}
    with pytest.raises(RuntimeError):
        run._metric_map(declared, produced, required=True)
    assert run._metric_map(declared, produced, required=False) == {
        "x_ms": {"value": 1.5, "unit": "ms"},
        "y_s": {"value": 0.0, "unit": "s"},
    }


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "mobility",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


# -- the workloads, at toy sizes ----------------------------------------------


def _declared(result: WorkloadResult) -> None:
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for name, (value, unit) in {**result.metrics, **result.layers}.items():
        assert units[name] == unit, name
        assert value == value  # not NaN


def test_backbone_build_recomposes_the_pipeline():
    result = library.backbone_build(
        1, 0.0, True, n=120, warmup_n=60, setup_reps=1, digest_ops=2
    )
    assert result.failed == 0, result.problems
    assert result.attempted == 2
    _declared(result)
    shares = [result.layers[name + ".share"][0] for name in library.BUILD_LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    again = library.backbone_build(
        1, 0.0, False, n=120, warmup_n=60, setup_reps=1, digest_ops=2
    )
    assert again.digest == result.digest


def test_route_batch_matches_the_scalar_routers():
    result = library.route_batch(
        1, 0.0, True, n=150, pairs=200, setup_reps=1, digest_ops=2, identity_pairs=40
    )
    assert result.failed == 0, result.problems
    assert result.attempted == 3  # two batches and the identity check
    _declared(result)
    assert 0.0 < result.layers["core.route_engine.greedy_delivery_rate"][0] <= 1.0


def test_mobility_stays_identical_to_a_rebuild():
    result = library.mobility(
        1, 0.0, True, n=150, setup_reps=1, counted_steps=25, verify_every=10
    )
    assert result.failed == 0, result.problems
    assert result.attempted == 25 + 2 + 1  # steps, periodic and final verifies
    _declared(result)
    assert result.details["churn_step_samples"] == (2.0, "count")


def test_serve_mixed_checks_responses_and_leaves_no_workers(monkeypatch):
    servers = []

    class Recorded(serving.Server):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append([self.process.pid, *self.workers()])

    monkeypatch.setattr(serving, "Server", Recorded)
    result = serving.serve_mixed(
        1, 2.0, True, setup_reps=2, hot_n=60, miss_n=60, route_pairs=40
    )
    assert result.failed == 0, result.problems
    assert result.attempted > 0
    _declared(result)
    assert len(servers) == 2
    assert all(len(pids) > 1 for pids in servers)  # front end plus workers
    assert not [pid for pids in servers for pid in pids if serving._alive(pid)]
