"""The span/counter layer (:mod:`repro.obs`) and what the service folds from it."""

import gc
import pathlib
import pickle
import threading

import pytest

from repro import obs
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


@pytest.fixture
def explicit_gc_only():
    """Only the test's own gc.collect() calls run, so lists are exact."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


class TestGarbageCollectionLayer:
    def test_collection_lands_in_the_current_record_only(self, explicit_gc_only):
        with obs.recording() as record:
            with obs.span("stage"):
                gc.collect()
        assert [name for name, _ in record.gc] == ["python.gc.gen2"]
        assert record.gc[0][1] >= 0.0
        # Stage spans and work counts keep only what stages report.
        assert [name for name, _ in record["spans"]] == ["stage"]
        assert record["counts"] == {}

    def test_hook_lives_exactly_while_a_record_is_active(self):
        assert obs._on_gc not in gc.callbacks
        with obs.recording():
            with obs.recording():
                assert gc.callbacks.count(obs._on_gc) == 1
            assert gc.callbacks.count(obs._on_gc) == 1
        assert obs._on_gc not in gc.callbacks
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert obs._on_gc not in gc.callbacks

    def test_collection_goes_to_the_triggering_threads_record(self, explicit_gc_only):
        seen = {}
        started = threading.Event()
        release = threading.Event()

        def worker():
            with obs.recording() as theirs:
                started.set()
                release.wait(5)
                gc.collect(0)
            seen["theirs"] = theirs

        thread = threading.Thread(target=worker)
        with obs.recording() as mine:
            thread.start()
            started.wait(5)
            release.set()
            thread.join(5)
            ours = list(mine.gc)
        assert [name for name, _ in seen["theirs"].gc] == ["python.gc.gen0"]
        assert ours == []

    def test_merge_and_pickle_keep_collections(self, explicit_gc_only):
        with obs.recording() as inner:
            gc.collect(1)
        restored = pickle.loads(pickle.dumps(inner))
        assert restored == inner and restored.gc == inner.gc
        with obs.recording() as outer:
            obs.merge(restored)
            assert [name for name, _ in outer.gc] == ["python.gc.gen1"]

    def test_collector_settings_untouched(self):
        before = (gc.isenabled(), gc.get_threshold())
        with obs.recording():
            _build(SpannerService(executor_mode="serial"), "backbone")
        assert (gc.isenabled(), gc.get_threshold()) == before


class TestServiceFold:
    def test_batch_counts_match_across_executors(self):
        # Pool threads and processes record under their own
        # recording and hand the record back with the product, so the
        # folded counters and span counts cannot depend on where the
        # work ran.
        requests = [
            {"pipeline": pipeline, "scenario": dict(SCENARIO, seed=seed)}
            for pipeline, seed in (("backbone", 5), ("ldel", 9), ("gg", 11))
        ]
        counters, observations, used = {}, {}, {}
        for mode in ("serial", "thread", "process"):
            service = SpannerService(executor_mode="serial")
            body = service.batch(
                {"requests": requests, "executor": {"mode": mode, "max_workers": 2}}
            )
            snapshot = service.metrics_snapshot()
            service.close()
            assert body["succeeded"] == len(requests)
            used[mode] = body["executor"]["mode"]
            counters[mode] = snapshot["counters"]
            observations[mode] = {
                name: series["count"] for name, series in snapshot["latency"].items()
            }
        assert used["serial"] == "serial" and used["thread"] == "thread"
        assert counters["serial"] == counters["thread"] == counters["process"]
        assert observations["serial"] == observations["thread"] == observations["process"]
        assert observations["serial"]["backbone.phase.cds"] == 1
        assert observations["serial"]["build.construct"] == len(requests)

    def test_bodies_carry_no_wall_time(self):
        # Two independent services answer byte-identical bodies, so no
        # stage timing leaks into a build or step response.
        def bodies():
            service = SpannerService(executor_mode="serial")
            out = [
                _build(service, "backbone", {"measure": True}),
                _build(service, "ldel"),
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
