"""The span/counter layer (:mod:`repro.obs`) and what the service folds from it."""

import pathlib

import pytest

from repro import obs
from repro.service import executor
from repro.service.server import SpannerService
from test_metric_names import SCENARIO, _build


class TestApi:
    def test_span_and_count_land_in_the_current_record(self):
        with obs.recording() as record:
            with obs.span("stage"):
                obs.count("work", 3)
            obs.count("work")
        assert [name for name, _ in record["spans"]] == ["stage"]
        assert record["spans"][0][1] >= 0.0
        assert record["counts"] == {"work": 4}

    def test_outside_a_recording_nothing_is_kept(self):
        with obs.recording() as record:
            pass
        with obs.span("stage"):
            obs.count("work")
        assert record == {"spans": [], "counts": {}}

    def test_nested_recording_shadows_and_merge_folds_back(self):
        with obs.recording() as outer:
            obs.count("work")
            with obs.recording() as inner:
                with obs.span("stage"):
                    obs.count("work", 2)
            assert outer == {"spans": [], "counts": {"work": 1}}
            obs.merge(inner)
        assert [name for name, _ in outer["spans"]] == ["stage"]
        assert outer["counts"] == {"work": 3}

    def test_failed_span_is_not_recorded(self):
        with obs.recording() as record:
            with pytest.raises(ValueError):
                with obs.span("stage"):
                    raise ValueError("boom")
        assert record["spans"] == []


class TestServiceFold:
    def test_sharded_counts_match_across_tile_executors(self, monkeypatch):
        original = executor.run_batch
        counters, observations, used = {}, {}, {}
        for mode in ("serial", "thread", "process"):
            def forced(tasks, worker, _tiles=mode, **kwargs):
                kwargs["mode"] = _tiles
                return original(tasks, worker, **kwargs)

            monkeypatch.setattr(executor, "run_batch", forced)
            service = SpannerService(executor_mode="serial")
            body = _build(service, "sharded:ldel", {"workers": 2})
            snapshot = service.metrics_snapshot()
            service.close()
            used[mode] = body["sharding"]["mode"]
            counters[mode] = snapshot["counters"]
            observations[mode] = {
                name: series["count"] for name, series in snapshot["latency"].items()
            }
        assert used["serial"] == "serial" and used["thread"] == "thread"
        assert counters["serial"] == counters["thread"] == counters["process"]
        assert observations["serial"] == observations["thread"] == observations["process"]
        assert observations["serial"]["sharding.tile_seconds"] == body["sharding"]["tiles"]

    def test_bodies_carry_no_wall_time(self):
        # Two independent services answer byte-identical bodies, so no
        # stage timing leaks into a build or step response.
        def bodies():
            service = SpannerService(executor_mode="serial")
            out = [
                _build(service, "backbone", {"measure": True}),
                _build(service, "ldel"),
                _build(service, "sharded:backbone", {"workers": 1}),
            ]
            session = service.session_create({"scenario": SCENARIO})["session"]
            out.append(service.session_step(
                session, {"events": [{"kind": "move", "node": 4, "x": 30.0, "y": 30.0}]}
            ))
            service.close()
            return out

        assert bodies() == bodies()


def test_only_the_timing_layers_read_the_clock():
    root = pathlib.Path(obs.__file__).parent
    readers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if "perf_counter" in path.read_text()
    }
    assert readers == {
        "obs.py", "service/metrics.py", "service/executor.py", "validation/engine.py",
    }
