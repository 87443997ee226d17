"""Unit tests for repro.graphs.graph.Graph."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compat
from repro.core.soa import pair_keys, snapshot_for
from repro.core.spanner import build_backbone
from repro.geometry.primitives import Point
from repro.graphs.graph import Graph, Positions
from repro.graphs.udg import UnitDiskGraph

SQUARE = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]


class TestConstruction:
    def test_empty_graph(self):
        g = Graph([])
        assert g.node_count == 0 and g.edge_count == 0

    def test_initial_edges(self):
        g = Graph(SQUARE, [(0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.has_edge(1, 0)

    def test_self_loop_rejected(self):
        g = Graph(SQUARE)
        with pytest.raises(ValueError):
            g.add_edge(2, 2)

    def test_out_of_range_edge_rejected(self):
        g = Graph(SQUARE)
        with pytest.raises(IndexError):
            g.add_edge(0, 9)

    def test_duplicate_edges_collapse(self):
        g = Graph(SQUARE)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.edge_count == 1


class TestEdgeOperations:
    def test_remove_edge(self):
        g = Graph(SQUARE, [(0, 1)])
        g.remove_edge(1, 0)
        assert not g.has_edge(0, 1)
        assert g.degree(0) == 0

    def test_remove_missing_edge_is_noop(self):
        g = Graph(SQUARE, [(0, 1)])
        g.remove_edge(2, 3)
        assert g.edge_count == 1

    def test_neighbors(self):
        g = Graph(SQUARE, [(0, 1), (0, 2)])
        assert g.neighbors(0) == {1, 2}
        assert g.neighbors(3) == frozenset()

    def test_degrees(self):
        g = Graph(SQUARE, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees() == [3, 1, 1, 1]


class TestGeometryAccessors:
    def test_edge_length(self):
        g = Graph(SQUARE)
        assert g.edge_length(0, 2) == pytest.approx(2 ** 0.5)

    def test_total_edge_length(self):
        g = Graph(SQUARE, [(0, 1), (1, 2)])
        assert g.total_edge_length() == pytest.approx(2.0)


class TestStructureOperations:
    def test_copy_is_independent(self):
        g = Graph(SQUARE, [(0, 1)])
        h = g.copy(name="copy")
        h.add_edge(2, 3)
        assert not g.has_edge(2, 3)
        assert h.name == "copy"

    def test_is_subgraph_of(self):
        g = Graph(SQUARE, [(0, 1)])
        h = Graph(SQUARE, [(0, 1), (1, 2)])
        assert g.is_subgraph_of(h)
        assert not h.is_subgraph_of(g)

    def test_subgraph_remaps_ids(self):
        g = Graph(SQUARE, [(0, 1), (1, 2), (2, 3)])
        sub, remap = g.subgraph([1, 2, 3])
        assert sub.node_count == 3
        assert sub.has_edge(remap[1], remap[2])
        assert sub.has_edge(remap[2], remap[3])
        assert sub.edge_count == 2

    def test_subgraph_drops_outside_edges(self):
        g = Graph(SQUARE, [(0, 1), (2, 3)])
        sub, _ = g.subgraph([0, 1])
        assert sub.edge_count == 1

    def test_edge_set_is_frozen(self):
        g = Graph(SQUARE, [(0, 1)])
        edges = g.edge_set()
        assert edges == frozenset({(0, 1)})
        assert isinstance(edges, frozenset)


class TestAtomicBulkAdd:
    def test_rejected_batch_leaves_graph_unchanged(self):
        g = Graph([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(ValueError):
            g.add_edges_bulk([(0, 1), (1, 2), (2, 2), (0, 2)])
        assert g.neighbors(0) == frozenset()
        assert g.degrees() == [0, 0, 0]
        assert not g.has_edge(0, 1)
        assert list(g.edges()) == []

    def test_out_of_range_batch_leaves_graph_unchanged(self):
        g = Graph([(0, 0), (1, 0), (2, 0)], [(0, 1)])
        with pytest.raises(IndexError):
            g.add_edges_bulk([(1, 2), (0, 2), (2, 5)])
        assert g.edge_set() == frozenset({(0, 1)})
        assert g.neighbors(2) == frozenset()


# -- the array-backed representation -------------------------------------------

#: The array-backed form exists only while numpy is active; without it
#: every graph is set-backed and the classes above cover it.
needs_numpy = pytest.mark.skipif(
    not compat.numpy_active(), reason="array-backed graphs need numpy"
)
np = compat.np


def _materialized(g):
    """Whether the graph has built its pair set and adjacency sets."""
    return g._edge_pairs is not None


def _twins(points, pairs):
    """The same graph set-backed (eager) and array-backed (lazy)."""
    eager = Graph(points, pairs, name="twin")
    lazy = Graph.from_keys(points, pair_keys(np, len(points), pairs), name="twin")
    assert not _materialized(lazy)
    return eager, lazy


def _bulk_view(g, other, keep):
    sub, remap = g.subgraph(keep)
    twin = g.copy(name="copied")
    return (
        g.node_count,
        g.edge_count,
        set(g.edges()),
        g.edge_set(),
        g.degrees(),
        g.total_edge_length(),
        g.is_subgraph_of(other),
        other.is_subgraph_of(g),
        (sub.edge_set(), sub.node_count, sub.positions, remap),
        (twin.edge_set(), twin.name, twin.positions is g.positions),
    )


def _scalar_view(g):
    n = g.node_count
    return (
        [g.neighbors(u) for u in range(n)],
        [g.degree(u) for u in range(n)],
        [g.has_edge(u, v) for u in range(n) for v in range(n)],
    )


@st.composite
def _graph_cases(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    points = [Point(float(i % 3), float(i // 3)) for i in range(n)]
    ids = st.integers(min_value=0, max_value=max(n - 1, 0))
    edge = st.tuples(ids, ids).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(edge, max_size=24)) if n >= 2 else []
    other = draw(st.lists(edge, max_size=24)) if n >= 2 else []
    keep = draw(st.lists(ids, max_size=n)) if n else []
    return points, pairs, pairs + other, keep


@needs_numpy
class TestArrayBackedTwin:
    @settings(max_examples=80, deadline=None)
    @given(_graph_cases())
    def test_twin_answers_every_query_alike(self, case):
        points, pairs, wider, keep = case
        eager, lazy = _twins(points, pairs)
        wide_eager, wide_lazy = _twins(points, wider)
        assert _bulk_view(lazy, wide_lazy, keep) == _bulk_view(eager, wide_eager, keep)
        assert _bulk_view(lazy, wide_eager, keep) == _bulk_view(eager, wide_lazy, keep)
        # Bulk queries answer from the keys ...
        assert not _materialized(lazy)
        # ... scalar queries build the containers, and agree.
        assert _scalar_view(lazy) == _scalar_view(eager)
        assert _materialized(lazy) == bool(points)
        assert _bulk_view(lazy, wide_lazy, keep) == _bulk_view(eager, wide_eager, keep)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        points = [Point(float(i), 0.0) for i in range(n)]
        pairs = [(0, 1)] if n == 2 else []
        eager, lazy = _twins(points, pairs)
        assert _bulk_view(lazy, lazy, range(n)) == _bulk_view(eager, eager, range(n))
        assert _scalar_view(lazy) == _scalar_view(eager)

    def test_edges_are_sorted_from_keys(self):
        g = Graph.from_keys(SQUARE, pair_keys(np, 4, [(2, 3), (1, 0), (0, 3)]))
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_keys_are_read_only(self):
        g = Graph.from_keys(SQUARE, pair_keys(np, 4, [(0, 1)]))
        with pytest.raises(ValueError):
            g.edge_keys()[0] = 2


@needs_numpy
class TestMutationAfterLazyBuild:
    def _udg(self):
        return UnitDiskGraph([Point(float(i % 5), float(i // 5)) for i in range(20)], 1.5)

    @pytest.mark.parametrize("mutate", ["remove", "add", "bulk"])
    def test_mutation_drops_keys_and_snapshot(self, mutate):
        udg = self._udg()
        snap = snapshot_for(udg)
        assert snap is not None and not _materialized(udg)
        before = udg.edge_set()
        if mutate == "remove":
            udg.remove_edge(0, 1)
            expected = before - {(0, 1)}
        elif mutate == "add":
            udg.add_edge(0, 19)
            expected = before | {(0, 19)}
        else:
            udg.add_edges_bulk([(0, 19), (0, 18)])
            expected = before | {(0, 19), (0, 18)}
        assert _materialized(udg)
        assert udg._keys is None and udg._soa_snapshot is None
        assert udg.edge_set() == expected
        fresh = snapshot_for(udg)
        assert fresh is not snap
        assert set(zip(fresh.edge_u.tolist(), fresh.edge_v.tolist())) == expected
        assert udg.edge_keys().tolist() == sorted(u * 20 + v for u, v in expected)

    def test_no_op_mutation_keeps_keys(self):
        udg = self._udg()
        keys, snap = udg.edge_keys(), snapshot_for(udg)
        udg.add_edge(0, 1)  # already a link
        udg.remove_edge(0, 19)  # not a link
        assert udg.edge_keys() is keys and snapshot_for(udg) is snap


@needs_numpy
def test_pickles_round_trip_and_older_pickles_load():
    lazy = Graph.from_keys(SQUARE, pair_keys(np, 4, [(0, 1), (2, 3)]), name="lazy")
    back = pickle.loads(pickle.dumps(lazy))
    assert back.edge_set() == lazy.edge_set() and not _materialized(back)
    assert type(back.positions) is Positions
    # A graph pickled before the array-backed form kept its containers
    # as ``_edges`` / ``_adj``.
    old = Graph.__new__(Graph)
    old.__setstate__({
        "positions": list(SQUARE), "name": "old",
        "_adj": [{1}, {0}, set(), set()], "_edges": {(0, 1)},
    })
    assert old.edge_set() == {(0, 1)} and old.neighbors(0) == {1}
    assert type(old.positions) is Positions


@needs_numpy
def test_fast_build_leaves_graphs_unmaterialized():
    rng = random.Random(11)
    n = 1000
    side = 10.0 * math.sqrt(n)
    points = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)]
    result = build_backbone(points, 25.0, mode="fast")
    shared = [
        result.udg, result.cds, result.cds_prime, result.icds, result.icds_prime,
        result.ldel_icds, result.ldel_icds_prime,
    ]
    outputs = shared + [result.pipeline.ldel_outcome.graph]
    assert all(g.edge_count for g in outputs)
    assert not any(_materialized(g) for g in outputs)
    assert all(g.positions is result.udg.positions for g in shared)
