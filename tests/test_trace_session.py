"""Tests for protocol tracing and the mobility loop (library and CLI)."""

import random

import pytest

from repro.__main__ import main as cli_main
from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.incremental.session import IncrementalSession
from repro.mobility.maintenance import BackboneMaintainer
from repro.mobility.session import SessionStep, run_mobility_session
from repro.protocols.clustering import ClusteringProcess, lowest_id_priority
from repro.sim.messages import HELLO, IAM_DOMINATOR, Message
from repro.sim.network import SyncNetwork
from repro.sim.trace import TraceRecorder
from repro.workloads.generators import QuasiDeployment, connected_udg_instance


def traced_clustering(udg, **trace_kwargs):
    trace = TraceRecorder(**trace_kwargs)
    net = SyncNetwork(
        udg,
        lambda node_id, _net: ClusteringProcess(
            node_id,
            udg.positions[node_id],
            tuple(sorted(udg.neighbors(node_id))),
            lowest_id_priority,
        ),
        trace=trace,
    )
    net.run()
    return net, trace


class TestTraceRecorder:
    def line_udg(self, n):
        return UnitDiskGraph([Point(float(i), 0.0) for i in range(n)], 1.0)

    def test_records_all_broadcasts(self):
        udg = self.line_udg(5)
        net, trace = traced_clustering(udg)
        assert len(trace.events) == net.stats.total

    def test_kind_filter(self):
        udg = self.line_udg(5)
        _net, trace = traced_clustering(udg, kinds=frozenset({IAM_DOMINATOR}))
        assert trace.events
        assert all(e.kind == IAM_DOMINATOR for e in trace.events)

    def test_sender_filter(self):
        udg = self.line_udg(5)
        _net, trace = traced_clustering(udg, senders=frozenset({0}))
        assert trace.events
        assert all(e.sender == 0 for e in trace.events)

    def test_events_of(self):
        udg = self.line_udg(5)
        _net, trace = traced_clustering(udg)
        own = trace.events_of(2)
        assert own and all(e.sender == 2 for e in own)

    def test_rounds_grouping(self):
        udg = self.line_udg(4)
        _net, trace = traced_clustering(udg)
        grouped = trace.rounds()
        # Hellos all fly in round 1 (sent at start, delivered round 1).
        assert all(e.kind == HELLO for e in grouped[1])
        assert len(grouped[1]) == 4

    def test_kind_counts(self):
        udg = self.line_udg(5)
        net, trace = traced_clustering(udg)
        assert trace.kind_counts() == dict(net.stats.per_kind)

    def test_timeline_rendering(self):
        udg = self.line_udg(4)
        _net, trace = traced_clustering(udg)
        text = trace.timeline()
        assert "round 1" in text
        assert HELLO in text

    def test_timeline_truncation(self):
        udg = self.line_udg(6)
        _net, trace = traced_clustering(udg)
        text = trace.timeline(max_events_per_round=1)
        assert "... " in text and " more" in text

    def test_empty_trace(self):
        assert TraceRecorder().timeline() == "(empty trace)"

    def test_payload_summary_truncated(self):
        trace = TraceRecorder()
        trace.record(
            1,
            Message(kind="Big", sender=0, payload={"blob": "x" * 200}),
            recipients=[1, 2],
        )
        assert len(trace.events[0].payload_summary) < 80


class TestMobilitySession:
    @pytest.fixture(scope="class")
    def deployment(self):
        return connected_udg_instance(40, 180.0, 60.0, random.Random(19))

    def test_session_shape(self, deployment):
        result = run_mobility_session(deployment, steps=5, seed=1)
        assert len(result.steps) == 5
        assert all(isinstance(s, SessionStep) for s in result.steps)
        times = [s.time for s in result.steps]
        assert times == sorted(times)

    def test_aggregates_consistent(self, deployment):
        result = run_mobility_session(
            deployment, policy="full", move_fraction=1.0, steps=6, seed=2
        )
        assert result.rebuild_count == sum(1 for s in result.steps if s.rebuilt)
        assert 0.0 <= result.rebuild_rate <= 1.0
        assert 0.0 <= result.mean_retention_on_rebuild <= 1.0
        assert 0.0 <= result.availability <= 1.0

    def test_zero_steps(self, deployment):
        result = run_mobility_session(deployment, steps=0)
        assert result.steps == ()
        assert result.rebuild_rate == 0.0
        assert result.availability == 1.0

    def test_negative_steps_rejected(self, deployment):
        with pytest.raises(ValueError):
            run_mobility_session(deployment, steps=-1)

    def test_slow_speed_means_fewer_rebuilds(self, deployment):
        full = dict(policy="full", move_fraction=1.0, steps=6, seed=3)
        slow = run_mobility_session(deployment, speed=0.2, **full)
        fast = run_mobility_session(deployment, speed=8.0, **full)
        assert slow.rebuild_count <= fast.rebuild_count

    def test_custom_probe_pairs(self, deployment):
        result = run_mobility_session(
            deployment, steps=2, probe_pairs=[(0, 1), (2, 2)], seed=4
        )
        # The degenerate (2, 2) pair is filtered out.
        assert result.steps[0].total_probes == 1

    def test_incremental_matches_full_at_rebuilds(self, deployment, monkeypatch):
        # Both policies walk the same trace, so wherever the full policy
        # rebuilt, the incremental snapshot at that step is the rebuild.
        full_steps, incremental_steps = [], []
        update = BackboneMaintainer.update
        step = IncrementalSession.step

        def spy_update(self, positions):
            report = update(self, positions)
            full_steps.append(report)
            return report

        def spy_step(self, events, *, verify=False):
            report = step(self, events, verify=verify)
            incremental_steps.append(self.maintainer.snapshot())
            return report

        monkeypatch.setattr(BackboneMaintainer, "update", spy_update)
        monkeypatch.setattr(IncrementalSession, "step", spy_step)
        kwargs = dict(steps=8, speed=6.0, move_fraction=0.2, seed=7)
        run_mobility_session(deployment, policy="full", **kwargs)
        run_mobility_session(deployment, policy="incremental", **kwargs)
        assert len(full_steps) == len(incremental_steps) == 8
        rebuilds = 0
        for report, snap in zip(full_steps, incremental_steps):
            if not report.rebuilt:
                continue
            rebuilds += 1
            rebuilt = report.result
            assert snap.ldel_icds_prime_edges == rebuilt.ldel_icds_prime.edge_set()
            assert snap.dominators == rebuilt.dominators
            assert snap.connectors == rebuilt.connectors
        assert rebuilds > 0

    def test_unknown_policy_rejected(self, deployment):
        for policy in ("psychic", "local"):
            with pytest.raises(ValueError):
                run_mobility_session(deployment, steps=1, policy=policy)

    def test_incremental_options_refused_under_full(self, deployment):
        with pytest.raises(ValueError):
            run_mobility_session(deployment, steps=1, policy="full", verify_every=1)
        with pytest.raises(ValueError):
            run_mobility_session(deployment, steps=1, policy="full", tile_cells=2)

    def test_quasi_deployment_refused(self):
        quasi = connected_udg_instance(
            30, 150.0, 55.0, random.Random(3), model="quasi"
        )
        assert isinstance(quasi, QuasiDeployment)
        for policy in ("incremental", "full"):
            with pytest.raises(ValueError, match="quasi"):
                run_mobility_session(quasi, steps=1, policy=policy)

    def test_policies_keep_routing_available(self, deployment):
        full = run_mobility_session(deployment, steps=4, seed=6, policy="full")
        incremental = run_mobility_session(
            deployment, steps=4, seed=6, policy="incremental"
        )
        assert full.availability >= 0.8
        assert incremental.availability >= 0.8


class TestMobilityCli:
    SCENARIO = ["--nodes", "40", "--side", "180", "--radius", "60", "--seed", "19"]

    def run(self, *extra):
        return cli_main(["mobility", *self.SCENARIO, "--steps", "3", *extra])

    def test_both_policies_succeed(self, capsys):
        for policy in ("incremental", "full"):
            assert self.run("--policy", policy) == 0
            assert f"{policy} session: 3 steps" in capsys.readouterr().out

    def test_dirty_fraction_tripwire_fails(self, capsys):
        assert self.run("--max-dirty-fraction", "0") == 1
        assert "FAILED" in capsys.readouterr().err

    def test_local_policy_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run("--policy", "local")
        assert exc.value.code == 2

    def test_quasi_model_refused(self, capsys):
        assert self.run("--model", "quasi") == 2
        assert "quasi" in capsys.readouterr().err

    def test_verify_every_refused_under_full(self, capsys):
        assert self.run("--policy", "full", "--verify-every", "1") == 2
        assert "--policy incremental" in capsys.readouterr().err

    def test_max_dirty_fraction_refused_under_full(self, capsys):
        assert self.run("--policy", "full", "--max-dirty-fraction", "0") == 2
        assert "--policy incremental" in capsys.readouterr().err
