"""Tests for the message-passing simulator substrate."""

import random

import pytest

from repro.geometry.primitives import Point
from repro.graphs.udg import UnitDiskGraph
from repro.sim.messages import Message
from repro.sim.network import SyncNetwork
from repro.sim.protocol import NodeProcess
from repro.sim.radio import BroadcastRadio
from repro.sim.stats import MessageStats


def line_udg(n, spacing=1.0, radius=1.0):
    return UnitDiskGraph([Point(i * spacing, 0.0) for i in range(n)], radius)


class TestMessage:
    def test_payload_access(self):
        msg = Message(kind="Hello", sender=3, payload={"x": 1})
        assert msg["x"] == 1
        assert msg.get("y", 9) == 9

    def test_frozen(self):
        msg = Message(kind="Hello", sender=0)
        with pytest.raises(AttributeError):
            msg.kind = "Other"


class TestMessageStats:
    def test_record_and_totals(self):
        stats = MessageStats()
        stats.record(0, "Hello")
        stats.record(0, "Hello")
        stats.record(1, "IamDominator")
        assert stats.total == 3
        assert stats.node_total(0) == 2
        assert stats.by_kind() == {"Hello": 2, "IamDominator": 1}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            MessageStats().record(0, "Hello", -1)

    def test_merge(self):
        a, b = MessageStats(), MessageStats()
        a.record(0, "Hello")
        b.record(0, "Hello")
        b.record(1, "Status")
        a.merge(b)
        assert a.node_total(0) == 2 and a.node_total(1) == 1

    def test_copy_is_independent(self):
        a = MessageStats()
        a.record(0, "Hello")
        b = a.copy()
        b.record(0, "Hello")
        assert a.node_total(0) == 1 and b.node_total(0) == 2

    def test_zero_count_records_nothing(self):
        stats = MessageStats()
        stats.record(1, "Hello", 2)
        stats.record(7, "Hello", 0)
        assert 7 not in stats.per_node
        assert (7, "Hello") not in stats.per_node_kind
        assert stats.avg_per_node() == pytest.approx(2.0)

    def test_record_counts_equals_one_record_per_node(self):
        bulk, single = MessageStats(), MessageStats()
        for stats in (bulk, single):
            stats.record(0, "Hello")
            stats.record(2, "Status", 3)
        bulk.record_counts("Hello", [0, 1, 2, 3], [2, 0, 1, 4])
        bulk.record_counts("Kept", range(3), [1, 1, 0])
        for node, sent in zip([0, 1, 2, 3], [2, 0, 1, 4]):
            single.record(node, "Hello", sent)
        for node, sent in zip(range(3), [1, 1, 0]):
            single.record(node, "Kept", sent)
        assert bulk.per_node == single.per_node
        assert bulk.per_kind == single.per_kind
        assert bulk.per_node_kind == single.per_node_kind
        assert 1 not in {node for node, kind in bulk.per_node_kind if kind == "Hello"}
        with pytest.raises(ValueError):
            bulk.record_counts("Hello", [0], [-1])

    def test_merge_relabel(self):
        sub = MessageStats()
        sub.record(0, "Proposal", 2)
        sub.record(1, "Kept")
        parent = MessageStats()
        parent.record(9, "Kept")
        parent.merge(sub, relabel=[5, 9])
        assert parent.per_node_kind == {(5, "Proposal"): 2, (9, "Kept"): 2}
        assert parent.per_node == {5: 2, 9: 2}
        assert parent.by_kind() == {"Kept": 2, "Proposal": 2}

    def test_max_and_avg(self):
        stats = MessageStats()
        stats.record(0, "Hello", 5)
        stats.record(1, "Hello", 1)
        assert stats.max_per_node() == 5
        assert stats.max_per_node(nodes=[1]) == 1
        assert stats.avg_per_node(3) == pytest.approx(2.0)
        assert stats.avg_per_node() == pytest.approx(3.0)

    def test_empty_stats(self):
        stats = MessageStats()
        assert stats.max_per_node() == 0
        assert stats.avg_per_node() == 0.0


class TestBroadcastRadio:
    def test_delivers_to_all_neighbors(self):
        udg = line_udg(3)
        radio = BroadcastRadio(udg)
        deliveries = radio.deliver(Message(kind="Hello", sender=1))
        assert sorted(r for r, _ in deliveries) == [0, 2]

    def test_no_delivery_to_self(self):
        udg = line_udg(2)
        radio = BroadcastRadio(udg)
        recipients = [r for r, _ in radio.deliver(Message(kind="Hello", sender=0))]
        assert recipients == [1]

    def test_invalid_loss_rate(self):
        udg = line_udg(2)
        with pytest.raises(ValueError):
            BroadcastRadio(udg, loss_rate=1.0)

    def test_lossy_radio_drops_some(self):
        udg = line_udg(2)
        radio = BroadcastRadio(udg, loss_rate=0.5, rng=random.Random(1))
        outcomes = [
            len(radio.deliver(Message(kind="Hello", sender=0)))
            for _ in range(200)
        ]
        dropped = outcomes.count(0)
        assert 50 < dropped < 150  # roughly half


class _FloodProcess(NodeProcess):
    """Re-broadcasts the first token it hears; counts receptions."""

    def __init__(self, node_id, position, neighbor_ids, origin):
        super().__init__(node_id, position, neighbor_ids)
        self.heard = False
        self.origin = origin

    def start(self):
        if self.node_id == self.origin:
            self.heard = True
            self.broadcast("Token")

    def receive(self, message):
        if message.kind == "Token" and not self.heard:
            self.heard = True
            self.broadcast("Token")


class TestSyncNetwork:
    def _flood(self, udg, origin=0, **kwargs):
        net = SyncNetwork(
            udg,
            lambda node_id, _net: _FloodProcess(
                node_id,
                udg.positions[node_id],
                tuple(sorted(udg.neighbors(node_id))),
                origin,
            ),
            **kwargs,
        )
        rounds = net.run()
        return net, rounds

    def test_flood_reaches_everyone(self):
        udg = line_udg(10)
        net, rounds = self._flood(udg)
        assert all(p.heard for p in net.processes)
        # Token travels one hop per round along the line.
        assert rounds == 10

    def test_each_node_broadcasts_once(self):
        udg = line_udg(10)
        net, _ = self._flood(udg)
        assert net.stats.total == 10
        assert net.stats.max_per_node() == 1

    def test_messages_charged_to_sender(self):
        udg = line_udg(3)
        net, _ = self._flood(udg, origin=1)
        assert net.stats.node_total(1) == 1

    def test_quiescence_on_silent_network(self):
        udg = line_udg(4)
        net = SyncNetwork(
            udg,
            lambda node_id, _net: NodeProcess(
                node_id, udg.positions[node_id], ()
            ),
        )
        assert net.run() == 0
        assert net.stats.total == 0

    def test_max_rounds_guard(self):
        udg = line_udg(2)

        class Chatter(NodeProcess):
            def start(self):
                self.broadcast("Noise")

            def receive(self, message):
                self.broadcast("Noise")

        net = SyncNetwork(
            udg,
            lambda node_id, _net: Chatter(
                node_id,
                udg.positions[node_id],
                tuple(sorted(udg.neighbors(node_id))),
            ),
        )
        with pytest.raises(RuntimeError):
            net.run(max_rounds=10)

    def test_detached_process_cannot_broadcast(self):
        proc = NodeProcess(0, Point(0, 0), ())
        with pytest.raises(RuntimeError):
            proc.broadcast("Hello")

    def test_deterministic_runs(self):
        udg = line_udg(8)
        net1, _ = self._flood(udg)
        net2, _ = self._flood(udg)
        assert net1.stats.per_node == net2.stats.per_node

    def test_flood_survives_partial_loss(self):
        # Failure injection: with a lossy radio the flood may not
        # reach everyone, but the driver must still terminate cleanly.
        udg = line_udg(10)
        radio = BroadcastRadio(udg, loss_rate=0.4, rng=random.Random(9))
        net, rounds = self._flood(udg, radio=radio)
        assert rounds < 10_000
        assert net.processes[0].heard
