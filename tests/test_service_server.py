"""Integration tests: the HTTP service end-to-end against the library.

Drives the async tier (one thread-mode worker) on an ephemeral port
through :class:`repro.service.client.ServiceClient`; the acceptance
check is that a served ``/build`` + ``/route`` round-trip reproduces
the library-level :func:`repro.routing.backbone_routing.backbone_route`
result exactly.
"""

import random

import pytest

from repro.core.spanner import build_backbone
from repro.routing.backbone_routing import backbone_route
from repro.service.client import ClientError, ServiceClient
from repro.service.aserver import AsyncBackgroundServer
from repro.service.server import ServiceError, SpannerService
from repro.workloads.generators import connected_udg_instance

SCENARIO = {"nodes": 30, "side": 150.0, "radius": 55.0, "seed": 1}


@pytest.fixture(scope="module")
def server():
    # No front byte-cache: every request must reach the worker whose
    # counters these tests read (the front cache is tested on its own).
    with AsyncBackgroundServer(
        pool_size=1,
        pool_mode="thread",
        front_cache_entries=0,
        service_kwargs={"executor_mode": "serial", "cache_size": 64},
    ) as background:
        yield background


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url, timeout=120.0)


class TestEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0.0

    def test_pipelines_listing(self, client):
        names = {p["name"] for p in client.pipelines()["pipelines"]}
        assert "backbone" in names and "gg" in names

    def test_unknown_path_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_bad_pipeline_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.build("not-a-pipeline", SCENARIO)
        assert excinfo.value.status == 400

    def test_removed_sharded_pipeline_400(self, client):
        # The tiled build path is gone; its names answer like any
        # unknown pipeline, with the listing of the known ones.
        with pytest.raises(ClientError) as excinfo:
            client.build("sharded:ldel", SCENARIO)
        assert excinfo.value.status == 400
        message = excinfo.value.message
        assert "unknown pipeline" in message and "backbone" in message

    def test_invalid_json_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/build",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_quasi_deployment_400(self, client):
        # Workers build from points and radius alone, so serving a quasi
        # corpus entry would silently build the sharp disk graph under a
        # key that cannot tell the two radio models apart.
        with pytest.raises(ClientError) as excinfo:
            client.build("ldel", {"corpus": "quasi-field"})
        assert excinfo.value.status == 400
        assert "quasi-UDG" in excinfo.value.message

    def test_quasi_deployment_refused_on_every_build_path(self):
        service = SpannerService(executor_mode="serial")
        request = {
            "pipeline": "backbone",
            "scenario": {"corpus": "quasi-field"},
            "source": 0,
            "target": 1,
            "pairs": [[0, 1]],
        }
        for endpoint in (service.build, service.route, service.route_batch):
            with pytest.raises(ServiceError) as excinfo:
                endpoint(request)
            assert excinfo.value.status == 400
            assert "quasi-UDG" in str(excinfo.value)
        result = service.batch({"requests": [request]})["results"][0]
        assert result["ok"] is False and "quasi-UDG" in result["error"]
        service.close()


class TestBuildRouteRoundTrip:
    def test_build_then_route_matches_library(self, client):
        built = client.build("backbone", SCENARIO)
        assert built["cache"] == "miss"
        assert built["nodes"] == SCENARIO["nodes"]

        # Library-level ground truth on the identical deployment.
        deployment = connected_udg_instance(
            SCENARIO["nodes"], SCENARIO["side"], SCENARIO["radius"],
            random.Random(SCENARIO["seed"]),
        )
        result = build_backbone(deployment.points, deployment.radius)
        assert built["edges"] == result.ldel_icds.edge_count
        assert built["dominators"] == len(result.dominators)

        for source, target, mode in ((0, 17, "gpsr"), (3, 21, "greedy")):
            served = client.route(source, target, key=built["key"], mode=mode)
            expected = backbone_route(result, source, target, mode=mode)
            assert served["delivered"] == expected.delivered
            assert tuple(served["path"]) == expected.path
            assert served["hops"] == expected.hops
            if expected.delivered:
                assert served["length"] == pytest.approx(
                    expected.length(result.udg)
                )

    def test_second_build_hits_cache(self, client):
        first = client.build("backbone", SCENARIO)
        again = client.build("backbone", SCENARIO)
        assert again["cache"] == "hit"
        assert again["key"] == first["key"]

    def test_route_with_inline_build(self, client):
        body = client.route(0, 9, pipeline="backbone", scenario=SCENARIO)
        assert isinstance(body["delivered"], bool)
        assert body["path"][0] == 0

    def test_route_unknown_key_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.route(0, 1, key="0" * 64)
        assert excinfo.value.status == 404

    def test_route_on_flat_pipeline_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.route(0, 1, pipeline="gg", scenario=SCENARIO)
        assert excinfo.value.status == 400

    def test_route_out_of_range_400(self, client):
        built = client.build("backbone", SCENARIO)
        with pytest.raises(ClientError) as excinfo:
            client.route(0, 10_000, key=built["key"])
        assert excinfo.value.status == 400


class TestBatchAndMetrics:
    def test_batch_mixes_hits_misses_and_errors(self, client):
        requests = [
            {"pipeline": "gg", "scenario": SCENARIO},
            {"pipeline": "gg", "scenario": SCENARIO},  # same key: one build
            {"pipeline": "rng", "scenario": SCENARIO},
            {"pipeline": "bogus", "scenario": SCENARIO},
        ]
        body = client.batch(requests)
        assert body["tasks"] == 4
        assert body["succeeded"] == 3
        results = body["results"]
        assert results[0]["ok"] and results[2]["ok"]
        assert not results[3]["ok"] and "unknown pipeline" in results[3]["error"]
        # Results preserve request order and report graph shapes.
        assert results[0]["edges"] >= results[2]["edges"]  # GG ⊇ RNG

    def test_metrics_account_cache_traffic(self, client):
        before = client.metrics()
        client.build("mst", SCENARIO)   # miss
        client.build("mst", SCENARIO)   # hit
        after = client.metrics()
        assert after["counters"]["build.cache_misses"] == \
            before["counters"].get("build.cache_misses", 0) + 1
        assert after["counters"]["build.cache_hits"] == \
            before["counters"].get("build.cache_hits", 0) + 1
        cache = after["cache"]
        assert cache["hits"] + cache["misses"] >= 2
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert after["latency"]["build.request"]["count"] >= 2
        assert after["latency"]["build.request"]["p95_ms"] >= 0.0

    def test_measured_build_surfaces_oracle_metrics(self, client):
        body = client.build("gg", SCENARIO, params={"measure": True})
        assert body["metrics"]["length_stretch"]["avg"] >= 1.0
        assert body["oracle"]["counters"]["apsp_misses"] == 6
        after = client.metrics()
        counters = after["counters"]
        assert counters["oracle.measurements"] >= 1
        assert counters["oracle.apsp_misses"] >= 6
        assert counters["oracle.stretch_calls"] >= 3
        assert after["latency"]["oracle.stage.apsp"]["count"] >= 1
        assert after["latency"]["oracle.stage.kernel"]["count"] >= 1

    def test_cold_then_warm_batch_accounting(self):
        # K distinct scenarios across pipelines and generators: the cold
        # batch misses once per scenario, the warm one hits once per
        # request, and the service counters agree with the cache's own.
        k = 8
        requests = [
            {
                "pipeline": ("backbone", "gg", "rng", "ldel")[i % 4],
                "scenario": {
                    "nodes": 20, "side": 150.0, "radius": 60.0, "seed": i,
                    "generator": ("uniform", "clustered")[i // 4],
                },
            }
            for i in range(k)
        ]
        service = SpannerService(executor_mode="serial", cache_size=2 * k)
        cold = service.batch({"requests": requests, "executor": {"mode": "serial"}})
        warm = service.batch({"requests": requests, "executor": {"mode": "serial"}})
        assert cold["succeeded"] == warm["succeeded"] == k
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == k

        metrics = service.metrics_snapshot()
        counters, cache = metrics["counters"], metrics["cache"]
        assert counters["build.cache_misses"] == cache["misses"] == k
        assert counters["build.cache_hits"] == cache["hits"] == k
        assert cache["hit_rate"] == pytest.approx(0.5)

    def test_process_batch_succeeds(self):
        # Sandboxes without working process pools fall back to threads.
        requests = [
            {"pipeline": pipeline, "scenario": {**SCENARIO, "seed": 40 + i}}
            for i, pipeline in enumerate(("backbone", "gg", "rng", "ldel"))
        ]
        body = SpannerService(executor_mode="process").batch({"requests": requests})
        assert body["succeeded"] == body["tasks"] == len(requests)
        assert body["executor"]["mode"] in ("process", "thread")

    def test_direct_service_error_shape(self):
        service = SpannerService(executor_mode="serial")
        with pytest.raises(ServiceError) as excinfo:
            service.build({"pipeline": "gg"})
        assert excinfo.value.status == 400


class TestDiskCacheAcrossRestart:
    def test_new_service_warms_from_disk(self, tmp_path):
        scenario = {"nodes": 20, "side": 150.0, "radius": 60.0, "seed": 5}
        cold = SpannerService(executor_mode="serial", cache_dir=str(tmp_path))
        first = cold.build({"pipeline": "backbone", "scenario": scenario})
        assert first["cache"] == "miss"

        warm = SpannerService(executor_mode="serial", cache_dir=str(tmp_path))
        second = warm.build({"pipeline": "backbone", "scenario": scenario})
        assert second["cache"] == "hit"
        assert warm.cache.stats.disk_hits == 1
        # The revived backbone still routes.
        routed = warm.route({"key": second["key"], "source": 0, "target": 5})
        assert routed["path"][0] == 0


class TestRouteBatch:
    def test_batch_matches_library_router(self, client):
        from repro.core.route_engine import BackboneRouter

        built = client.build("backbone", SCENARIO)
        pairs = [[0, 9], [3, 17], [22, 5], [1, 28]]
        body = client.route_batch(
            key=built["key"], pairs=pairs, mode="gpsr", include_paths=4
        )
        assert body["pairs"] == 4
        assert set(body["reasons"]) == {"delivered", "stuck", "loop", "hop-limit"}

        rng = random.Random(SCENARIO["seed"])
        dep = connected_udg_instance(
            SCENARIO["nodes"], SCENARIO["side"], SCENARIO["radius"], rng
        )
        result = build_backbone(dep.points, dep.radius)
        batch = BackboneRouter(result).route_pairs(
            [tuple(p) for p in pairs], mode="gpsr"
        )
        assert body["delivered"] == batch.delivered_count
        assert body["hops_avg"] == pytest.approx(batch.hops_avg())
        for i, entry in enumerate(body["paths"]):
            assert tuple(entry["path"]) == batch.path(i)
            assert entry["reason"] == batch.reason(i)

    def test_sampled_pairs_and_chunking(self, client):
        built = client.build("backbone", SCENARIO)
        body = client.route_batch(
            key=built["key"], count=40, seed=3, mode="shortest", chunk=16
        )
        assert body["pairs"] == 40
        assert body["chunks"] == 3
        assert 0.0 <= body["delivery_rate"] <= 1.0
        assert body["reachable_delivery_rate"] >= body["delivery_rate"]
        again = client.route_batch(
            key=built["key"], count=40, seed=3, mode="shortest"
        )
        assert again["delivered"] == body["delivered"]
        assert again["hops_avg"] == pytest.approx(body["hops_avg"])

    def test_failure_replay(self, client):
        built = client.build("backbone", SCENARIO)
        body = client.route_batch(
            key=built["key"],
            count=30,
            seed=1,
            failure={"node_loss": 0.2, "link_loss": 0.1, "seed": 7},
        )
        assert body["pairs"] == 30
        assert body["routed"] + body["endpoint_failed"] == 30
        assert body["survived"] <= body["delivered"]
        assert 0.0 <= body["delivery_rate"] <= 1.0
        if body["stretch_samples"]:
            assert body["stretch_avg"] >= 1.0

    def test_validation_errors(self, client):
        built = client.build("backbone", SCENARIO)
        key = built["key"]
        for kwargs in (
            {"mode": "teleport", "count": 5},
            {"pairs": [[0, 10_000]]},
            {"pairs": []},
            {},  # neither pairs nor count
            {"count": 5, "chunk": 0},
            {"count": 5, "include_paths": -1},
            {"count": 5, "failure": {"node_loss": 2.0}},
        ):
            with pytest.raises(ClientError) as excinfo:
                client.route_batch(key=key, **kwargs)
            assert excinfo.value.status == 400
        with pytest.raises(ClientError) as excinfo:
            client.route_batch(key="0" * 64, count=5)
        assert excinfo.value.status == 404

    def test_metrics_account_routing(self, client):
        built = client.build("backbone", SCENARIO)
        before = client.metrics()["counters"]
        client.route_batch(key=built["key"], count=25, seed=2)
        client.route_batch(key=built["key"], count=25, seed=2)
        after = client.metrics()
        counters = after["counters"]
        assert counters["routing.requests"] >= before.get("routing.requests", 0) + 2
        assert counters["routing.pairs"] >= before.get("routing.pairs", 0) + 50
        assert counters["routing.router_cache_hits"] >= 1
        assert after["latency"]["routing.batch"]["count"] >= 2
