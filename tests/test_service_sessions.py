"""Tests for the incremental session endpoints of the service layer.

Most tests drive :class:`SpannerService` directly (the dispatch layer
maps HTTP requests straight onto it); one integration test pays for
sockets and walks the full ``POST /session`` -> ``step`` -> ``GET``
-> ``DELETE`` lifecycle.
"""

import json
import urllib.request

import pytest

from repro.service.aserver import AsyncBackgroundServer
from repro.service.server import ServiceError, SpannerService

SCENARIO = {
    "generator": "uniform",
    "nodes": 50,
    "side": 150.0,
    "radius": 40.0,
    "seed": 3,
}


@pytest.fixture()
def service():
    return SpannerService(executor_mode="serial", cache_size=8)


def open_session(service):
    return service.session_create({"scenario": SCENARIO})


class TestSessionLifecycle:
    def test_create_returns_summary(self, service):
        created = open_session(service)
        assert created["session"] == "s1"
        assert created["nodes"] == 50
        assert created["radius"] == 40.0
        assert created["udg_edges"] > 0
        assert created["dominators"] > 0

    def test_ids_are_unique(self, service):
        assert open_session(service)["session"] != open_session(service)["session"]

    def test_step_streams_topology_delta(self, service):
        sid = open_session(service)["session"]
        moved = service.session_step(
            sid,
            {
                "events": [{"kind": "move", "node": 0, "x": 10.0, "y": 10.0}],
                "verify": True,
            },
        )
        assert moved["session"] == sid
        assert moved["step"] == 1
        assert moved["events"] == 1
        assert moved["verified"] is True
        assert isinstance(moved["edges_added"], list)
        assert isinstance(moved["edges_removed"], list)

    def test_join_and_leave_through_the_api(self, service):
        sid = open_session(service)["session"]
        joined = service.session_step(
            sid,
            {"events": [{"kind": "join", "x": 75.0, "y": 75.0}], "verify": True},
        )
        assert joined["node_count"] == 51
        assert joined["verified"] is True
        left = service.session_step(
            sid, {"events": [{"kind": "leave", "node": 12}], "verify": True}
        )
        assert left["node_count"] == 50
        assert left["verified"] is True

    def test_get_reports_cumulative_counters(self, service):
        sid = open_session(service)["session"]
        for node in (1, 2):
            service.session_step(
                sid,
                {"events": [{"kind": "move", "node": node, "x": 20.0, "y": 20.0}]},
            )
        info = service.session_get(sid)
        assert info["steps"] == 2
        assert info["counters"]["steps"] == 2
        assert info["counters"]["events"] == 2
        assert info["backbone_nodes"] > 0

    def test_delete_closes_the_session(self, service):
        sid = open_session(service)["session"]
        closed = service.session_delete(sid)
        assert closed == {"session": sid, "closed": True, "steps": 0}
        with pytest.raises(ServiceError) as err:
            service.session_get(sid)
        assert err.value.status == 404


class TestSessionValidation:
    def test_missing_scenario_rejected(self, service):
        with pytest.raises(ServiceError) as err:
            service.session_create({})
        assert err.value.status == 400

    def test_bad_scenario_rejected(self, service):
        with pytest.raises(ServiceError) as err:
            service.session_create({"scenario": {"corpus": "no-such-corpus"}})
        assert err.value.status == 400

    def test_bad_tile_cells_rejected(self, service):
        with pytest.raises(ServiceError) as err:
            service.session_create({"scenario": SCENARIO, "tile_cells": 0})
        assert err.value.status == 400

    def test_unknown_session_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.session_step("nope", {"events": []})
        assert err.value.status == 404

    def test_events_must_be_a_list(self, service):
        sid = open_session(service)["session"]
        with pytest.raises(ServiceError) as err:
            service.session_step(sid, {"events": "move 3"})
        assert err.value.status == 400

    def test_malformed_event_rejected(self, service):
        sid = open_session(service)["session"]
        with pytest.raises(ServiceError) as err:
            service.session_step(sid, {"events": [{"kind": "move", "node": 1}]})
        assert err.value.status == 400


class TestSessionMetrics:
    def test_incremental_counters_surface_in_metrics(self, service):
        sid = open_session(service)["session"]
        service.session_step(
            sid,
            {
                "events": [{"kind": "move", "node": 4, "x": 30.0, "y": 30.0}],
                "verify": True,
            },
        )
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["incremental.sessions"] == 1
        assert counters["incremental.steps"] == 1
        assert counters["incremental.events"] == 1
        assert counters["incremental.verifications"] == 1
        assert "incremental.verification_failures" not in counters
        assert "incremental.step" in snapshot["latency"]
        assert any(
            name.startswith("incremental.phase.")
            for name in snapshot["latency"]
        )
        assert "incremental.dirty_fraction" in snapshot["latency"]
        assert snapshot["sessions"]["active"] == 1
        service.session_delete(sid)
        assert service.metrics_snapshot()["sessions"]["active"] == 0


def _request(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _http_server() -> AsyncBackgroundServer:
    return AsyncBackgroundServer(
        pool_size=1,
        pool_mode="thread",
        service_kwargs={"executor_mode": "serial"},
    )


class TestSessionHTTP:
    def test_full_lifecycle_over_http(self):
        with _http_server() as server:
            status, created = _request(
                server.url + "/session", "POST", {"scenario": SCENARIO}
            )
            assert status == 200
            sid = created["session"]

            status, stepped = _request(
                server.url + f"/session/{sid}/step",
                "POST",
                {
                    "events": [
                        {"kind": "move", "node": 2, "x": 11.0, "y": 12.0}
                    ],
                    "verify": True,
                },
            )
            assert status == 200
            assert stepped["verified"] is True

            status, info = _request(server.url + f"/session/{sid}")
            assert status == 200
            assert info["steps"] == 1

            status, metrics = _request(server.url + "/metrics")
            assert status == 200
            assert metrics["counters"]["incremental.steps"] == 1

            status, closed = _request(
                server.url + f"/session/{sid}", "DELETE"
            )
            assert status == 200
            assert closed["closed"] is True

            status, body = _request(server.url + f"/session/{sid}")
            assert status == 404

    def test_unknown_session_paths_over_http(self):
        with _http_server() as server:
            status, _ = _request(
                server.url + "/session/zzz/step", "POST", {"events": []}
            )
            assert status == 404
            status, _ = _request(server.url + "/session/zzz", "DELETE")
            assert status == 404
            status, _ = _request(
                server.url + "/session/a/b/c", "POST", {"events": []}
            )
            assert status == 404
