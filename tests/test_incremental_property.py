"""Property test: a single-node move is *local*.

The incremental engine's whole premise is that one move invalidates
only a bounded neighborhood.  For a random single-node move, every
node outside the dilated event halo must keep bit-identical UDG
adjacency, role, and incident LDel(ICDS) edges — and the full
maintained state must stay bit-identical to a from-scratch rebuild.

The halo radii asserted are derived from the stage halos, in
contrapositive form (every changed node must sit close to an event
point):

* adjacency — within ``1r`` of the mover's old/new position (a UDG
  edge only changes when an endpoint moves);
* dominator status — within the ``3r`` election halo, asserted when
  the engine itself certified every repair (``repairs_fallback == 0``;
  an escaped cascade is exactly the case the engine reports as a
  fallback);
* connector roles and incident LDel edges — within ``10r``: a
  certified dominator flip (3r) moves dominator sets one hop out (4r),
  proposals one more (5r), arena winners span an arena's 2-hop extent
  (7r), slot-2 cascades one arena further (~9r), and PLDel membership
  changes dilate by the planarizer's own reach inside that envelope.

A second property drives id churn — joins, leaves (each renaming the
last id into the vacated slot) and moves, alone and in mixed batches —
and holds the state to a rebuild after every step, down to the
connector election's and the planarizer's caches: a stale entry for a
departed label can leave every output right until a later step reads
it.
"""

import math
import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.geometry.primitives import Point, dist
from repro.incremental.connectors import IncrementalConnectors
from repro.incremental.engine import IncrementalMaintainer
from repro.incremental.events import Event
from repro.workloads.generators import connected_udg_instance

N = 300
RADIUS = 18.0
SIDE = 10.0 * math.sqrt(N)
#: One fixed deployment; each example builds a fresh maintainer so
#: examples stay independent (and shrinking reproducible).
DEPLOYMENT = connected_udg_instance(N, SIDE, RADIUS, random.Random(42))


def _incident(edges, n):
    """Per-node frozensets of incident edges."""
    out = [set() for _ in range(n)]
    for u, v in edges:
        out[u].add((u, v))
        out[v].add((u, v))
    return [frozenset(s) for s in out]


def _roles(snap, n):
    return [
        "dominator"
        if u in snap.dominators
        else "connector"
        if u in snap.connectors
        else "dominatee"
        for u in range(n)
    ]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    mover=st.integers(min_value=0, max_value=N - 1),
    dx=st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False),
    dy=st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False),
)
def test_single_move_is_local_and_exact(mover, dx, dy):
    maintainer = IncrementalMaintainer(list(DEPLOYMENT.points), RADIUS)
    before = maintainer.snapshot()
    old = maintainer.udg.positions[mover]
    new = Point(
        min(max(old.x + dx, 0.0), SIDE), min(max(old.y + dy, 0.0), SIDE)
    )
    report = maintainer.apply([Event("move", node=mover, x=new.x, y=new.y)])
    after = maintainer.snapshot()

    # The tripwire: bit-identity with a from-scratch rebuild.
    outcome = maintainer.verify()
    assert outcome["identical"], f"mismatches: {outcome['mismatches']}"

    event_points = (old, new)

    def halo_dist(u):
        p = after.positions[u]
        return min(dist(p, q) for q in event_points)

    # Adjacency: only edges touching the mover can change.
    adj_before = _incident(before.udg_edges, N)
    adj_after = _incident(after.udg_edges, N)
    for u in range(N):
        if u == mover or adj_before[u] == adj_after[u]:
            continue
        assert halo_dist(u) <= RADIUS + 1e-9, (
            f"adjacency of node {u} changed at distance {halo_dist(u):.2f}"
        )

    roles_before = _roles(before, N)
    roles_after = _roles(after, N)
    if report.repairs_fallback == 0:
        # Dominator status: within the certified election halo.
        for u in range(N):
            dom_changed = (roles_before[u] == "dominator") != (
                roles_after[u] == "dominator"
            )
            if dom_changed:
                assert halo_dist(u) <= 3 * RADIUS + 1e-9, (
                    f"dominator flip at node {u}, "
                    f"distance {halo_dist(u):.2f}"
                )
        # Any role change and any incident-LDel change: within the
        # dilated halo.
        ldel_before = _incident(before.ldel_icds_edges, N)
        ldel_after = _incident(after.ldel_icds_edges, N)
        dilated = 10 * RADIUS + 1e-9
        for u in range(N):
            if u == mover:
                continue
            if roles_before[u] != roles_after[u]:
                assert halo_dist(u) <= dilated, (
                    f"role of node {u} changed at distance {halo_dist(u):.2f}"
                )
            if ldel_before[u] != ldel_after[u]:
                assert halo_dist(u) <= dilated, (
                    f"LDel edges of node {u} changed at "
                    f"distance {halo_dist(u):.2f}"
                )


# -- id churn -----------------------------------------------------------------

CHURN_N = 150
CHURN_SIDE = 10.0 * math.sqrt(CHURN_N)
CHURN_DEPLOYMENT = connected_udg_instance(
    CHURN_N, CHURN_SIDE, RADIUS, random.Random(7)
)
#: Every cache of the connector election (a fresh rebuild must agree).
CONNECTOR_CACHES = (
    "_p0", "_p1", "_arena", "_arena_win", "_w1_of", "_a2", "_sup2",
    "_conn_count", "_edge_count",
)
#: The planarizer's caches that a fresh build must reproduce exactly
#: (stars are compared as sets of triangles).
PLANARIZER_CACHES = (
    "_accepted", "_gabriel", "_losers", "_partners", "_counts", "_crossing",
    "_crossing_losers",
)


def _clamp(v):
    return min(max(v, 0.0), CHURN_SIDE)


def _resolve(maintainer, batch):
    """Turn abstract ``(kind, target, k, dx, dy)`` ops into a valid batch.

    Targets pick by the pre-batch roles: ``leave`` a dominator, a
    connector, the last id or any id; ``join`` next to a dominator or
    any node; ``move`` the id the batch's latest leave recycled (a
    rename chain), any id, any id onto another node's pre-batch
    position (``onto``), or any id to exactly ``RADIUS`` from another
    (``at_r``, two events).  Ids are counted through the batch.
    """
    snap = maintainer.snapshot()
    positions = maintainer.udg.positions
    count = maintainer.udg.node_count
    recycled = None
    events = []
    for kind, target, k, dx, dy in batch:
        if kind == "leave":
            pool = {"dominator": snap.dominators, "connector": snap.connectors}
            live = sorted(u for u in pool.get(target, ()) if u < count)
            if target == "last":
                node = count - 1
            else:
                node = live[k % len(live)] if live else k % count
            events.append(Event("leave", node=node))
            count -= 1
            recycled = node if node < count else None
        elif kind == "join":
            anchors = (
                sorted(snap.dominators) if target == "dominator" else range(len(positions))
            )
            anchor = positions[anchors[k % len(anchors)]]
            events.append(Event("join", x=_clamp(anchor.x + dx), y=_clamp(anchor.y + dy)))
            count += 1
        elif target == "onto":
            host = positions[(k + 1) % len(positions)]
            events.append(Event("move", node=k % count, x=host.x, y=host.y))
        elif target == "at_r":
            # Pin an anchor to integral coordinates, so the mover's
            # offset of exactly RADIUS is its exact distance too.
            base = positions[(k + 1) % len(positions)]
            x = float(min(round(base.x), math.floor(CHURN_SIDE - RADIUS)))
            y = float(round(base.y))
            events.append(Event("move", node=(k + 1) % count, x=x, y=y))
            events.append(Event("move", node=k % count, x=x + RADIUS, y=y))
        else:
            node = recycled if target == "renamed" and recycled is not None else k % count
            base = positions[k % len(positions)]
            events.append(
                Event("move", node=node, x=_clamp(base.x + dx), y=_clamp(base.y + dy))
            )
    return events


def _assert_fresh_caches(maintainer):
    fresh = IncrementalConnectors(maintainer.udg)
    fresh.rebuild(maintainer._status, maintainer._doms_of)
    for name in CONNECTOR_CACHES:
        assert getattr(maintainer._iconn, name) == getattr(fresh, name), (
            f"connector cache {name} differs from a fresh rebuild"
        )
    # The planarizer's per-node state, too: a stale star at a retired
    # or reused label would only be read by a later step.
    mine = maintainer.pldel
    theirs = IncrementalMaintainer(list(maintainer.udg.positions), RADIUS).pldel
    for name in PLANARIZER_CACHES:
        assert getattr(mine, name) == getattr(theirs, name), (
            f"planarizer cache {name} differs from a fresh build"
        )
    assert {u: sorted(star) for u, star in mine._stars.items()} == {
        u: sorted(star) for u, star in theirs._stars.items()
    }


_offset = st.floats(-12.0, 12.0, allow_nan=False, allow_infinity=False)
_index = st.integers(0, 10**6)
_op = st.one_of(
    st.tuples(
        st.just("leave"),
        st.sampled_from(("dominator", "connector", "last", "any")),
        _index, st.just(0.0), st.just(0.0),
    ),
    st.tuples(
        st.just("join"), st.sampled_from(("dominator", "any")), _index, _offset, _offset
    ),
    st.tuples(
        st.just("move"), st.sampled_from(("renamed", "any")), _index, _offset, _offset
    ),
    st.tuples(
        st.just("move"), st.sampled_from(("onto", "at_r")), _index, st.just(0.0),
        st.just(0.0),
    ),
)

#: Single-event steps leaving a dominator, a connector and the last id,
#: then a join right next to a dominator.
ROLE_TRACE = [
    [("leave", "dominator", 0, 0.0, 0.0)],
    [("leave", "connector", 0, 0.0, 0.0)],
    [("leave", "last", 0, 0.0, 0.0)],
    [("join", "dominator", 3, 1.0, 0.5)],
]
#: One batch chaining renames: each move follows the id a leave recycled.
RENAME_CHAIN = [
    [
        ("leave", "dominator", 1, 0.0, 0.0),
        ("move", "renamed", 0, 6.0, -2.0),
        ("join", "dominator", 2, -1.0, 1.0),
        ("leave", "connector", 4, 0.0, 0.0),
        ("move", "renamed", 9, -5.0, 3.0),
        ("leave", "last", 0, 0.0, 0.0),
    ]
]

#: Ties in the cavity: a move onto another node's position, and a link
#: at exactly the radius, alone and after a leave in the same batch.
TIE_TRACE = [
    [("move", "onto", 3, 0.0, 0.0)],
    [("move", "at_r", 5, 0.0, 0.0)],
    [("leave", "dominator", 0, 0.0, 0.0), ("move", "at_r", 2, 0.0, 0.0),
     ("move", "onto", 8, 0.0, 0.0)],
]
#: A leave that renames a member into a dominator's slot, then a join
#: that reuses the vacated last label for a new node (three leaves of
#: the last id first put a member at the end of this deployment).
REUSED_LABEL = [
    [("leave", "last", 0, 0.0, 0.0)] * 3
    + [("leave", "dominator", 0, 0.0, 0.0), ("join", "dominator", 3, 1.0, 0.5)]
]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(trace=ROLE_TRACE)
@example(trace=RENAME_CHAIN)
@example(trace=TIE_TRACE)
@example(trace=REUSED_LABEL)
@given(trace=st.lists(st.lists(_op, min_size=1, max_size=4), min_size=1, max_size=5))
def test_churn_trace_matches_rebuild_and_fresh_caches(trace):
    maintainer = IncrementalMaintainer(list(CHURN_DEPLOYMENT.points), RADIUS)
    for step, batch in enumerate(trace):
        maintainer.apply(_resolve(maintainer, batch))
        outcome = maintainer.verify()
        assert outcome["identical"], f"step {step}: {outcome['mismatches']}"
        _assert_fresh_caches(maintainer)


def test_churn_never_rebuilds_the_election(monkeypatch):
    """Join/leave batches repair the election; none falls back to a rebuild."""
    maintainer = IncrementalMaintainer(list(CHURN_DEPLOYMENT.points), RADIUS)

    def refuse(self, *args):
        raise AssertionError("a churn batch rebuilt the connector election")

    monkeypatch.setattr(IncrementalConnectors, "rebuild", refuse)
    rng = random.Random(11)
    kinds = {"leave": ("dominator", "connector", "last", "any"),
             "join": ("dominator", "any"), "move": ("renamed", "any")}
    trace = ROLE_TRACE + RENAME_CHAIN
    for _ in range(12):
        batch = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(sorted(kinds))
            batch.append((kind, rng.choice(kinds[kind]), rng.randrange(10**6),
                          rng.uniform(-12, 12), rng.uniform(-12, 12)))
        trace.append(batch)
    for batch in trace:
        maintainer.apply(_resolve(maintainer, batch))
    monkeypatch.undo()  # the cache check below rebuilds a fresh election
    outcome = maintainer.verify()
    assert outcome["identical"], f"mismatches: {outcome['mismatches']}"
    _assert_fresh_caches(maintainer)
