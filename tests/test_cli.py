"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.workloads.io import load_deployment, load_graph

ARGS_SMALL = ["--nodes", "30", "--side", "150", "--radius", "55", "--seed", "1"]


class TestBuildCommand:
    def test_summary_output(self, capsys):
        assert main(["build", *ARGS_SMALL]) == 0
        out = capsys.readouterr().out
        assert "dominators" in out
        assert "planar: True" in out

    def test_exports(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        dep_path = tmp_path / "dep.json"
        code = main(
            [
                "build",
                *ARGS_SMALL,
                "--out-dir",
                str(out_dir),
                "--save-deployment",
                str(dep_path),
            ]
        )
        assert code == 0
        assert (out_dir / "ldel_icds.svg").exists()
        graph = load_graph(out_dir / "ldel_icds.json")
        assert graph.edge_count > 0
        deployment = load_deployment(dep_path)
        assert len(deployment.points) == 30

    def test_load_deployment_round_trip(self, tmp_path, capsys):
        dep_path = tmp_path / "dep.json"
        main(["build", *ARGS_SMALL, "--save-deployment", str(dep_path)])
        first = capsys.readouterr().out
        main(["build", "--load", str(dep_path)])
        second = capsys.readouterr().out
        # Same deployment -> identical summary lines.
        assert first.splitlines()[0] in second


class TestMeasureCommand:
    def test_prints_all_topologies(self, capsys):
        assert main(["measure", *ARGS_SMALL]) == 0
        out = capsys.readouterr().out
        for name in ("UDG", "RNG", "GG", "LDel(ICDS')"):
            assert name in out


class TestRouteCommand:
    def test_successful_route(self, capsys):
        assert main(["route", *ARGS_SMALL, "0", "29"]) == 0
        out = capsys.readouterr().out
        assert "delivered" in out
        assert "path (" in out

    def test_out_of_range_target(self, capsys):
        assert main(["route", *ARGS_SMALL, "0", "999"]) == 2

    def test_greedy_mode(self, capsys):
        code = main(["route", *ARGS_SMALL, "--mode", "greedy", "0", "5"])
        assert code in (0, 1)  # greedy may legitimately stall


class TestExperimentsCommand:
    def test_delegates_to_harness(self, capsys):
        assert main(["experiments", "table1", "--quick", "--instances", "1"]) == 0
        out = capsys.readouterr().out
        assert "=== table1" in out


class TestArgumentParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


class TestServeCommand:
    def test_serve_wiring(self, monkeypatch, capsys):
        # Stub the server loop; assert the CLI passes its flags through
        # to repro.service.aserver.serve_async, and that the legacy
        # --async flag is accepted and changes nothing.
        import repro.service.aserver as aserver_module

        calls = []

        def fake_serve_async(host, port, **kwargs):
            calls.append(dict(host=host, port=port, **kwargs))
            return 0

        monkeypatch.setattr(aserver_module, "serve_async", fake_serve_async)
        argv = [
            "serve", "--host", "0.0.0.0", "--port", "9001",
            "--cache-size", "32", "--executor", "thread",
            "--workers", "3", "--data-dir", "/srv/repro",
            "--pool-workers", "2", "--pool-mode", "thread",
            "--queue-depth", "7",
        ]
        assert main(argv) == 0
        assert main(argv + ["--async"]) == 0
        captured, with_async = calls
        assert with_async == captured
        assert captured["host"] == "0.0.0.0"
        assert captured["port"] == 9001
        assert captured["pool_size"] == 2
        assert captured["pool_mode"] == "thread"
        assert captured["queue_depth"] == 7
        assert captured["cache_size"] == 32
        assert captured["executor_mode"] == "thread"
        assert captured["max_workers"] == 3
        assert captured["data_dir"] == "/srv/repro"
