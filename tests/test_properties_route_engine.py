"""Property-based batch-vs-scalar parity for the route engine.

Hypothesis draws small deployments — including quasi-UDG gray zones,
fields sparse enough to disconnect, and fields with repeated points
around a high-degree hub — and every draw must satisfy
the engine's parity contract: batch paths, reasons, and hop counts
equal the scalar routers' pair for pair, and the unreachable
accounting equals the component partition's verdict (the same
semantics ``StretchStats.unreachable_pairs`` uses — endpoints in
different components of the routed graph).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.route_engine import METHODS, RouteEngine, component_labels_for
from repro.geometry.primitives import Point
from repro.graphs.quasi import QuasiUnitDiskGraph
from repro.graphs.udg import UnitDiskGraph
from repro.routing.compass import compass_route
from repro.routing.gpsr import gpsr_route
from repro.routing.greedy import greedy_route

SCALARS = {"greedy": greedy_route, "compass": compass_route, "gpsr": gpsr_route}

deployments = st.lists(
    st.tuples(st.integers(0, 18), st.integers(0, 18)),
    min_size=4,
    max_size=20,
    unique=True,
).map(lambda pts: [Point(x / 2.0, y / 2.0) for x, y in pts])

#: Small enough that sparse draws disconnect, large enough that dense
#: draws route multi-hop.
RADIUS = 2.5

#: Repeated points and a hub: a base field that may repeat itself, plus
#: up to 40 points within 1.5 per axis of its first point (so all in
#: the hub's range, some on top of each other) — one node whose degree
#: reaches the wider degree classes, and coincident neighbours for
#: compass's zero-length arms and the right-hand rule's exclusion.
hub_deployments = st.tuples(
    st.lists(st.tuples(st.integers(0, 18), st.integers(0, 18)), min_size=2, max_size=14),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=40),
).map(
    lambda drawn: [Point(x / 2.0, y / 2.0) for x, y in drawn[0]]
    + [
        Point((drawn[0][0][0] + dx) / 2.0, (drawn[0][0][1] + dy) / 2.0)
        for dx, dy in drawn[1]
    ]
)

slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def all_pairs(n, limit=40):
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    return pairs[:limit]


def assert_parity(graph, pairs):
    engine = RouteEngine(graph)
    labels = component_labels_for(graph)
    for method in METHODS:
        batch = engine.route_pairs(pairs, method=method)
        scalar = SCALARS[method]
        for i, (s, t) in enumerate(pairs):
            ref = scalar(graph, s, t)
            assert batch.path(i) == ref.path, (
                f"{method} path diverges for {(s, t)} on {graph.name}"
            )
            assert batch.reason(i) == ref.reason
            assert int(batch.hops[i]) == ref.hops
            cross = labels[s] != labels[t]
            assert bool(batch.unreachable[i]) == cross
            if cross:
                assert batch.reason(i) != "delivered"


@slow
@given(deployments)
def test_engine_parity_on_udg(points):
    udg = UnitDiskGraph(points, RADIUS)
    assert_parity(udg, all_pairs(udg.node_count))


@slow
@given(hub_deployments)
def test_engine_parity_with_hub_and_repeats(points):
    udg = UnitDiskGraph(points, RADIUS)
    n = udg.node_count
    pairs = all_pairs(n, limit=25) + [(0, t) for t in range(1, n)] + [(s, 0) for s in range(1, n, 3)]
    assert_parity(udg, pairs)


@slow
@given(deployments, st.integers(0, 5))
def test_engine_parity_on_quasi(points, link_seed):
    quasi = QuasiUnitDiskGraph(
        points, RADIUS, epsilon=0.7, link_seed=link_seed, keep_probability=0.5
    )
    assert_parity(quasi, all_pairs(quasi.node_count))


@slow
@given(deployments)
def test_unreachable_count_matches_partition(points):
    udg = UnitDiskGraph(points, RADIUS)
    pairs = all_pairs(udg.node_count)
    labels = component_labels_for(udg)
    expected = sum(1 for s, t in pairs if labels[s] != labels[t])
    batch = RouteEngine(udg).route_pairs(pairs, method="greedy", keep_paths=False)
    assert batch.unreachable_pairs == expected
    assert batch.pairs == len(pairs)
    assert batch.delivered_count <= batch.pairs - expected
