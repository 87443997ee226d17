"""Tests for the message-passing simulator substrate."""

import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compat
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


class CounterLedger:
    """The ``Counter``-keyed ledger the columnar one replaced: the oracle."""

    def __init__(self):
        self.per_node, self.per_kind, self.per_node_kind = Counter(), Counter(), Counter()

    def record(self, node, kind, count):
        if count < 0:
            raise ValueError
        if count:
            self.per_node[node] += count
            self.per_kind[kind] += count
            self.per_node_kind[node, kind] += count

    def record_counts(self, kind, nodes, counts):
        if min(counts, default=0) < 0:
            raise ValueError
        for node, count in zip(nodes, counts):
            self.record(node, kind, count)

    def merge(self, other, relabel=None):
        for (node, kind), sent in other.per_node_kind.items():
            self.record(node if relabel is None else relabel[node], kind, sent)

    def copy(self):
        out = CounterLedger()
        out.merge(self)
        return out


KINDS = ("Hello", "Status", "Proposal", "Kept")
NODES = 12
_count = st.integers(-1, 3)


def _charge():
    single = st.tuples(
        st.just("record"), st.integers(0, NODES - 1), st.sampled_from(KINDS), _count
    )
    bulk = st.tuples(
        st.just("record_counts"),
        st.sampled_from(KINDS),
        st.lists(st.integers(0, NODES - 1), unique=True, max_size=NODES),
        st.lists(_count, min_size=NODES, max_size=NODES),
    )
    return st.one_of(single, bulk)


_ops = st.lists(
    st.one_of(
        _charge(),
        st.tuples(
            st.just("merge"),
            st.lists(_charge(), max_size=6),
            st.one_of(st.none(), st.permutations(range(2 * NODES))),
        ),
        st.tuples(st.just("copy")),
    ),
    max_size=25,
)


def _apply(ledger, ref, op):
    """One op on both ledgers; both raise ValueError together or neither."""
    if op[0] == "record":
        _, node, kind, count = op
        calls = [(x.record, (node, kind, count)) for x in (ledger, ref)]
    else:
        _, kind, nodes, counts = op
        counts = counts[: len(nodes)]
        calls = [(x.record_counts, (kind, nodes, counts)) for x in (ledger, ref)]
    outcomes = []
    for fn, args in calls:
        try:
            fn(*args)
            outcomes.append(None)
        except ValueError:
            outcomes.append(ValueError)
    assert outcomes[0] == outcomes[1]


def _assert_same(ledger, ref):
    assert ledger.per_node == ref.per_node
    assert ledger.per_kind == ref.per_kind
    assert ledger.per_node_kind == ref.per_node_kind
    assert list(ledger.per_kind) == list(ref.per_kind)
    assert ledger.by_kind() == dict(ref.per_kind)
    assert ledger.total == sum(ref.per_kind.values())
    assert ledger.max_per_node() == max(ref.per_node.values(), default=0)
    expected_avg = ledger.total / len(ref.per_node) if ref.per_node else 0.0
    assert ledger.avg_per_node() == expected_avg
    for node in range(-1, 2 * NODES + 1):
        assert ledger.node_total(node) == ref.per_node.get(node, 0)
        assert (node in ledger.per_node) == (node in ref.per_node)
    scalars = (ledger.total, ledger.max_per_node(), ledger.node_total(0))
    assert all(type(x) is int for x in scalars)
    assert all(type(x) is int for x in ledger.by_kind().values())
    assert all(type(x) is int for x in ledger.per_node_kind.values())


class TestColumnarLedger:
    @pytest.mark.parametrize("numpy_on", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_matches_counter_ledger(self, numpy_on, ops):
        if numpy_on and compat.np is None:
            pytest.skip("numpy not installed")
        compat.set_numpy_enabled(numpy_on)
        try:
            ledger, ref = MessageStats(), CounterLedger()
            for op in ops:
                if op[0] == "copy":
                    kept, kept_ref = ledger, ref.copy()
                    ledger, ref = ledger.copy(), ref.copy()
                    ledger.record(0, "Hello", 1)
                    ref.record(0, "Hello", 1)
                    _assert_same(kept, kept_ref)  # the copy is independent
                elif op[0] == "merge":
                    sub, sub_ref = MessageStats(), CounterLedger()
                    for charge in op[1]:
                        _apply(sub, sub_ref, charge)
                    ledger.merge(sub, relabel=op[2])
                    ref.merge(sub_ref, relabel=op[2])
                else:
                    _apply(ledger, ref, op)
                _assert_same(ledger, ref)
            _assert_same(pickle.loads(pickle.dumps(ledger)), ref)
        finally:
            compat.set_numpy_enabled(None)

    def test_nothing_recorded(self):
        stats = MessageStats()
        stats.record_counts("Hello", range(5), 0)
        stats.record_counts("Hello", [], [])
        stats.record(3, "Hello", 0)
        assert stats.per_node == {} and stats.per_kind == {} and stats.per_node_kind == {}
        assert "Hello" not in stats.per_kind and stats.per_kind["Hello"] == 0
        assert stats.by_kind() == {} and stats.total == 0

    def test_negative_counts_leave_the_ledger_unchanged(self):
        stats = MessageStats()
        stats.record(1, "Hello", 2)
        for bad in (lambda: stats.record(0, "Hello", -1),
                    lambda: stats.record_counts("Hello", [0, 1], [3, -1]),
                    lambda: stats.record_counts("Kept", range(3), -2)):
            with pytest.raises(ValueError):
                bad()
        assert stats.per_node_kind == {(1, "Hello"): 2}
        assert list(stats.per_kind) == ["Hello"]

    def test_relabel_must_cover_every_sender(self):
        sub = MessageStats()
        sub.record(3, "Kept")
        with pytest.raises(IndexError):
            MessageStats().merge(sub, relabel=[5, 6])

    def test_old_counter_pickles_load(self):
        stats = MessageStats.__new__(MessageStats)
        stats.__setstate__({
            "per_node": Counter({4: 3, 1: 1}),
            "per_kind": Counter({"Status": 1, "Hello": 3}),
            "per_node_kind": Counter({(4, "Hello"): 3, (1, "Status"): 1}),
        })
        assert stats.per_node_kind == {(4, "Hello"): 3, (1, "Status"): 1}
        assert list(stats.per_kind) == ["Status", "Hello"]
        stats.record(1, "Hello")
        assert stats.node_total(1) == 2


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
