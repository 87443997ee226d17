"""The construction kernels' entry budget changes memory, never results.

Every per-row construction kernel runs its rows in blocks under
:data:`repro.core.soa.BLOCK_ENTRIES` gathered entries.  A row's
arithmetic does not depend on which block it lands in, so the outputs
and the ``construction.*`` counters must be the same at any budget:
:class:`TestBlockBoundaries` forces tiny budgets (1, where every row is
a block of its own, and 7, where blocks mix short rows and rows longer
than the budget) and compares against the default budget.
:class:`TestBoundedTemporaries` holds the per-kernel peak at a
suite-recipe deployment under a fixed bound.
"""

import math
import random
import tracemalloc

import pytest

from repro import obs
from repro.core import compat, soa
from repro.geometry.primitives import Point
from repro.graphs.graph import Graph
from repro.graphs.planarity import crossing_pairs
from repro.graphs.udg import UnitDiskGraph
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import (
    contest_losers,
    contest_triangles,
    corner_verdicts,
    proposed_triangles,
)
from repro.workloads.corpus import CORPUS, get_instance

pytestmark = pytest.mark.skipif(
    not compat.numpy_active(), reason="the blocked kernels run only while numpy is active"
)

RADIUS = 25.0


def _hub():
    """One node hearing 40 others: its CSR row outgrows a small budget."""
    rng = random.Random(5)
    pts = [Point(50.0, 50.0)]
    for _ in range(40):
        angle, dist = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(3.0, 24.0)
        pts.append(Point(50.0 + dist * math.cos(angle), 50.0 + dist * math.sin(angle)))
    return UnitDiskGraph(pts, RADIUS)


def _grid():
    """An exact grid: every star is routed to the lockstep, and both
    diagonals of each square pass the Gabriel test, so edges cross."""
    return UnitDiskGraph(
        [Point(c * 12.5, r * 12.5) for r in range(8) for c in range(8)], RADIUS
    )


SOURCES = {
    **{name: (lambda name=name: get_instance(name).udg()) for name in CORPUS},
    "hub": _hub,
    "grid": _grid,
    "empty": lambda: UnitDiskGraph([], RADIUS),
    "one-node": lambda: UnitDiskGraph([Point(0.0, 0.0)], RADIUS),
    "one-edge": lambda: UnitDiskGraph([Point(0.0, 0.0), Point(10.0, 0.0)], RADIUS),
}


def _kernel_outputs(udg):
    """Every blocked kernel's output on ``udg``, plus the counters."""
    np = compat.np
    with obs.recording() as record:
        gabriel = gabriel_graph(udg).edge_keys()
        tris, proposed = proposed_triangles(udg)
        verdicts, circles = corner_verdicts(udg, tris, with_circles=True)
        # Every proposal, accepted or not, so the contest sees crossings.
        removed, pairs = contest_triangles(udg.positions, tris, udg.radius)
        losers = contest_losers(udg.positions, tris, udg.radius, circles=circles)
        # Gabriel plus every proposal's sides has crossing edges.
        sides = soa.triangle_edge_keys(np, udg.node_count, tris)
        keys = soa.sorted_unique(np, np.concatenate([gabriel, sides]))
        crossings = crossing_pairs(Graph.from_keys(udg.positions, keys))
    counts = {
        name: value
        for name, value in record["counts"].items()
        if name.startswith("construction.")
    }
    return {
        "gabriel": gabriel,
        "tris": tris,
        "proposed": proposed,
        "verdicts": verdicts,
        "circles": circles,
        "removed": removed,
        "pairs": pairs,
        "losers": losers,
        "crossings": crossings,
        "counts": counts,
    }


def _assert_same(got, want):
    np = compat.np
    assert got.keys() == want.keys()
    for name, value in want.items():
        if hasattr(value, "dtype"):
            assert value.dtype == got[name].dtype, name
            assert np.array_equal(value, got[name], equal_nan=value.dtype.kind == "f"), name
        else:
            assert got[name] == value, name


@pytest.fixture(scope="module")
def reference():
    cache = {}

    def outputs(source):
        if source not in cache:
            cache[source] = _kernel_outputs(SOURCES[source]())
        return cache[source]

    return outputs


class TestBlockBoundaries:
    @pytest.mark.parametrize("budget", [1, 7])
    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_outputs_do_not_depend_on_the_budget(self, source, budget, reference, monkeypatch):
        want = reference(source)
        monkeypatch.setattr(soa, "BLOCK_ENTRIES", budget)
        _assert_same(_kernel_outputs(SOURCES[source]()), want)

    def test_sources_reach_every_kernel(self, reference):
        # The comparisons above mean something only if the kernels had
        # rows to block: crossings, contested pairs, routed stars,
        # quasi links.
        assert reference("hub")["tris"].shape[0] > 0
        assert any(reference(name)["pairs"] for name in CORPUS)
        assert any(reference(name)["crossings"] for name in CORPUS)
        assert reference("grid")["counts"]["construction.star_routed_queries"] > 0
        assert not get_instance("quasi-field").udg().adjacency_is_disk_rule

    @pytest.mark.parametrize("budget", [1, 7])
    def test_contest_does_not_depend_on_the_budget(self, budget, monkeypatch):
        # Random short-sided triangles packed tightly enough that many
        # pairs intersect and some triangles lose.
        rng = random.Random(11)
        pts = [Point(rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)) for _ in range(30)]
        tris = set()
        while len(tris) < 40:
            a, b, c = sorted(rng.sample(range(len(pts)), 3))
            if max(math.dist(pts[a], pts[b]), math.dist(pts[b], pts[c]),
                   math.dist(pts[a], pts[c])) <= RADIUS:
                tris.add((a, b, c))
        tris = compat.np.array(sorted(tris), dtype=compat.np.int64)

        def contest():
            with obs.recording() as record:
                removed, pairs = contest_triangles(pts, tris, RADIUS)
                losers = contest_losers(pts, tris, RADIUS)
            return removed, pairs, losers.tolist(), record["counts"]

        want = contest()
        assert want[1] and any(want[0])
        monkeypatch.setattr(soa, "BLOCK_ENTRIES", budget)
        assert contest() == want

    def test_row_blocks_cut_greedily(self, monkeypatch):
        np = compat.np
        monkeypatch.setattr(soa, "BLOCK_ENTRIES", 7)
        counts = np.array([3, 4, 9, 1, 0, 6, 2, 2, 2])
        blocks = soa.row_blocks(np, counts)
        assert [(b.start, b.stop) for b in blocks] == [(0, 2), (2, 3), (3, 6), (6, 9)]
        assert soa.row_blocks(np, np.zeros(0, dtype=np.int64)) == []


def _suite_recipe_udg(n=5000, seed=2002):
    """A uniform deployment at the benchmark's recipe (side 10 sqrt(n), r 25)."""
    rng = random.Random(seed)
    side = 10.0 * math.sqrt(n)
    pts = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)]
    udg = UnitDiskGraph(pts, RADIUS)
    soa.snapshot_for(udg)
    return udg


class TestBoundedTemporaries:
    #: Each kernel's traced peak at n=5000; whole-array kernels peaked
    #: at about 95 (Gabriel), 41 (verdicts) and 38 MB (proposals).
    BOUND_MB = 16.0

    @pytest.fixture(scope="class")
    def udg(self):
        return _suite_recipe_udg()

    def _peak_mb(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_gabriel_peak(self, udg):
        assert self._peak_mb(lambda: gabriel_graph(udg)) < self.BOUND_MB

    def test_proposals_peak(self, udg):
        assert self._peak_mb(lambda: proposed_triangles(udg)) < self.BOUND_MB

    def test_verdicts_peak(self, udg):
        tris, _ = proposed_triangles(udg)
        assert self._peak_mb(lambda: corner_verdicts(udg, tris)) < self.BOUND_MB
