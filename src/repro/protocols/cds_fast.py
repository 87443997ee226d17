"""Direct-computation fast path for the CDS stage (oracle mode).

The message-passing protocols in :mod:`repro.protocols.clustering` and
:mod:`repro.protocols.connectors` are deterministic: on a lossless
synchronous radio their outcome is a pure function of the UDG and the
priority/election rules.  This module computes that fixed point
directly — no :class:`~repro.sim.network.SyncNetwork`, no per-round
replay — and reproduces the protocol results *bit-identically*: the
same dominator and connector sets, the same certified CDS edges, the
same round counts, and the same per-node/per-kind message ledgers the
communication-cost figures are drawn from.

Why this is sound (and what the equivalence suite pins down):

* **Clustering** converges to the greedy maximal independent set in
  priority order: a node elects itself exactly when every neighbor of
  smaller-or-equal priority has left the white set.  The protocol's
  timeline is ``elect at T → IamDominator delivered at T+1 → first
  IamDominatee delivered at T+2``, so one round of the protocol is one
  round of array passes over the CSR (:func:`_soa_clustering`):
  deliver the ``IamDominator`` of the last round's elections, unblock
  the nodes that left the white set then, elect every white node with
  no blockers left.  Priorities are ranked once, so any ``PriorityFn``
  works and ties stay ties.  The scalar reference replays the same
  recurrence as an event cascade (election → domination → unblock).
* **Connectors** (Algorithm 1) resolve each ``(u, v, slot)`` arena one
  full round after proposing; under ``smallest-id`` the winners are
  exactly the local minima of the proposer conflict graph, and under
  ``first-response`` every proposer wins.  Slot-2 proposals are
  triggered by slot-1 claims, all of which are broadcast in the same
  round — so the ``first`` connector a slot-2 winner pairs with is the
  smallest adjacent slot-1 winner.

Since every rule is local and order-independent, the connector
election is sort-and-join work over integer arrays
(:func:`_soa_connectors`, on the graph's shared
:class:`~repro.core.soa.SoaSnapshot`).  ``dominators_of`` becomes a
CSR plus a padded per-node table (one column per dominator slot, at
most five under the disk rule), so "is a dominator of" is a few
column compares.  "Is a neighbour" is the UDG's own distance test
while its adjacency is the disk rule, and a binary search into the
sorted directed edge keys on a quasi-UDG:

* slot 0 is a ragged self-join of each dominatee's dominator row
  (pairs ``u < v``);
* slot 1 gathers the dominator rows of each dominatee's CSR row,
  drops itself, its neighbours and its own dominators, dedupes by
  sort, and crosses what is left with its own dominator row;
* an arena's winners come from one ``lexsort`` by ``(u, v, x)`` and
  a self-join of each arena: a proposer with an adjacent, smaller
  rival loses;
* slot 2 expands each slot-1 winner's CSR row, keeps the dominatees
  of ``v`` that ``u`` does not dominate, keeps the smallest adjacent
  winner per ``(u, v, x)`` as ``first``, and runs the same winner
  pass;
* the ledger charges each node's per-kind totals once.

The scalar loops in :func:`fast_clustering` and :func:`fast_connectors`
are the reference: they run under
:func:`~repro.core.compat.numpy_disabled` (or without numpy) and the
tests compare the kernels with them.

The protocol path stays authoritative: it is the executable model of
the paper (message traces, loss/async variants).  This path is the
serving-layer implementation, held bit-identical to it by
``tests/test_cds_fast.py``.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Optional

from repro import obs
from repro.core.compat import get_numpy
from repro.core.soa import (
    cross_join,
    gather_csr_rows,
    segment_pairs,
    snapshot_for,
    sorted_member,
    sorted_unique,
)
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.clustering import (
    ClusteringOutcome,
    PriorityFn,
    lowest_id_priority,
)
from repro.protocols.connectors import (
    SLOT_COMMON,
    SLOT_FIRST,
    ConnectorOutcome,
    _edge,
)
from repro.sim.messages import (
    HELLO,
    IAM_CONNECTOR,
    IAM_DOMINATEE,
    IAM_DOMINATOR,
    TRY_CONNECTOR,
)
from repro.sim.stats import MessageStats

__all__ = ["fast_clustering", "fast_connectors"]

_WHITE, _DOMINATOR, _DOMINATEE = 0, 1, 2


def fast_clustering(
    udg: UnitDiskGraph,
    *,
    priority: Optional[PriorityFn] = None,
    stats: Optional[MessageStats] = None,
) -> ClusteringOutcome:
    """Compute the clustering protocol's fixed point directly.

    Bit-identical to :func:`~repro.protocols.clustering.run_clustering`
    on every field: dominators, ``dominators_of``, round count, and
    message ledger.  Raises :class:`RuntimeError` when the protocol
    would stall (adjacent priority ties that never get dominated).
    Runs :func:`_soa_clustering` on the graph's shared SoA snapshot
    when numpy is active, and the event cascade below otherwise.
    """
    chosen = priority or lowest_id_priority
    ledger = stats if stats is not None else MessageStats()
    n = udg.node_count
    if n == 0:
        return ClusteringOutcome(frozenset(), {}, 0, ledger)
    soa = _soa_clustering(udg, chosen, ledger)
    if soa is not None:
        return soa

    neighbors = [sorted(udg.neighbors(x)) for x in range(n)]
    pri = [chosen(x, len(neighbors[x])) for x in range(n)]
    ledger.record_counts(HELLO, range(n), 1)

    # A neighbor w blocks x while white iff not (pri[x] < pri[w]); x
    # elects at the finish of the first round with no live blockers.
    blockers = [
        sum(1 for w in nbrs if not (pri[x] < pri[w]))
        for x, nbrs in enumerate(neighbors)
    ]
    status = [_WHITE] * n
    #: IamDominatee broadcasts per node (one per dominator heard).
    dominatee_sent = [0] * n
    white_count = n
    dominators: list[int] = []
    elected_round: dict[int, int] = {}
    doms_of: dict[int, set[int]] = {}
    #: round -> nodes whose IamDominator arrives that round.
    deliver_dominator: dict[int, list[int]] = {}
    #: round -> dominatees whose first IamDominatee arrives that round.
    deliver_dominatee: dict[int, list[int]] = {}

    def unblock(w: int, newly: list[int]) -> None:
        for y in neighbors[w]:
            if not (pri[y] < pri[w]):
                blockers[y] -= 1
                if status[y] == _WHITE and blockers[y] == 0:
                    newly.append(y)

    round_index = 0
    candidates = [x for x in range(n) if blockers[x] == 0]
    while white_count:
        round_index += 1
        newly: list[int] = candidates
        candidates = []
        # Deliveries first (receive before finish_round): a node hearing
        # IamDominator this round becomes a dominatee and cannot elect.
        for x in deliver_dominator.pop(round_index, ()):
            for w in neighbors[x]:
                if status[w] == _DOMINATOR:
                    continue
                doms_of.setdefault(w, set()).add(x)
                dominatee_sent[w] += 1
                if status[w] == _WHITE:
                    status[w] = _DOMINATEE
                    white_count -= 1
                    deliver_dominatee.setdefault(round_index + 1, []).append(w)
            unblock(x, newly)
        for w in deliver_dominatee.pop(round_index, ()):
            unblock(w, newly)
        # finish_round: unblocked nodes still white elect now.
        elected = [x for x in newly if status[x] == _WHITE and blockers[x] == 0]
        for x in elected:
            status[x] = _DOMINATOR
            white_count -= 1
            elected_round[x] = round_index
            dominators.append(x)
            deliver_dominator.setdefault(round_index + 1, []).append(x)
        if white_count and not deliver_dominator and not deliver_dominatee:
            white = [x for x in range(n) if status[x] == _WHITE]
            raise RuntimeError(
                f"clustering stalled; white nodes remain: {white[:5]}"
            )

    # The last elections' IamDominator broadcasts are still in flight
    # when the white set empties; their dominations (and the dominatees'
    # acknowledging broadcasts) land before quiescence.
    for batch in deliver_dominator.values():
        for x in batch:
            for w in neighbors[x]:
                if status[w] == _DOMINATOR:
                    continue
                doms_of.setdefault(w, set()).add(x)
                dominatee_sent[w] += 1

    ledger.record_counts(IAM_DOMINATEE, range(n), dominatee_sent)
    ledger.record_counts(IAM_DOMINATOR, dominators, 1)

    # Quiescence: the network idles one round after the last in-flight
    # message — IamDominator at T+1, the dominatees' reactions at T+2.
    rounds = max(
        elected_round[d] + 1 + (1 if neighbors[d] else 0) for d in dominators
    )
    return ClusteringOutcome(
        dominators=frozenset(dominators),
        dominators_of={w: frozenset(ds) for w, ds in doms_of.items()},
        rounds=rounds,
        stats=ledger,
    )


def _priority_ranks(np: Any, chosen: PriorityFn, degrees: list[int]) -> Any:
    """Each node's priority as an int64 rank: equal tuples share a rank.

    ``rank[a] < rank[b]`` exactly when ``chosen(a, ·) < chosen(b, ·)``,
    so the kernel compares integers where the protocol compares tuples.
    """
    pri = [chosen(x, d) for x, d in enumerate(degrees)]
    order = sorted(range(len(pri)), key=pri.__getitem__)
    rank = [0] * len(pri)
    for prev, x in zip(order, order[1:]):
        rank[x] = rank[prev] + (pri[prev] < pri[x])
    return np.array(rank, dtype=np.int64)


def _soa_clustering(
    udg: UnitDiskGraph, chosen: PriorityFn, ledger: MessageStats
) -> Optional[ClusteringOutcome]:
    """:func:`fast_clustering` as round-synchronous passes over the CSR.

    Returns ``None`` without numpy.  Round ``r`` replays the protocol's
    deliveries and ``finish_round`` on whole node sets: the
    ``IamDominator`` of every node elected in round ``r - 1`` reaches
    its row (white neighbours turn dominatee), every node that left
    the white set in round ``r - 1`` (those dominators and the
    dominatees made then) unblocks the neighbours it was blocking (one
    masked gather, one ``bincount`` subtract), and every white node
    left with no blockers elects.  A dominatee sends one
    ``IamDominatee`` per dominator it hears, so its count is a
    ``bincount`` of the deliveries.
    """
    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    n = snap.n
    indptr, indices = snap.indptr, snap.indices
    degree = snap.degrees()
    rank = _priority_ranks(np, chosen, degree.tolist())
    ledger.record_counts(HELLO, range(n), 1)

    # A neighbour blocks x while white iff its rank is not above x's.
    owner = np.repeat(np.arange(n, dtype=np.int64), degree)
    blockers = np.bincount(owner[rank[indices] <= rank[owner]], minlength=n)
    status = np.zeros(n, dtype=np.int8)
    elected_round = np.zeros(n, dtype=np.int64)
    #: (dominatee, dominator) per IamDominator heard.
    heard: list[tuple[Any, Any]] = []

    def deliver(sources: Any) -> Any:
        """IamDominator from ``sources`` lands; returns the new dominatees."""
        src, w = gather_csr_rows(np, indptr, indices, sources)
        keep = status[w] != _DOMINATOR
        heard.append((w[keep], sources[src[keep]]))
        fresh = sorted_unique(np, w[keep & (status[w] == _WHITE)])
        status[fresh] = _DOMINATEE
        return fresh

    elected = dominated = np.zeros(0, dtype=np.int64)
    # Round 1 has no leavers; each later round has some (else the
    # round before it stalled), and they decide who is unblocked.
    newly = np.nonzero(blockers == 0)[0]
    white_count = n
    round_index = 0
    while white_count:
        round_index += 1
        fresh = deliver(elected)
        leavers = np.concatenate([elected, dominated])
        if leavers.shape[0]:
            src, y = gather_csr_rows(np, indptr, indices, leavers)
            y = y[rank[y] >= rank[leavers[src]]]
            blockers -= np.bincount(y, minlength=n)
            newly = y[blockers[y] == 0]
        elected = sorted_unique(np, newly[status[newly] == _WHITE])
        status[elected] = _DOMINATOR
        elected_round[elected] = round_index
        white_count -= fresh.shape[0] + elected.shape[0]
        dominated = fresh
        if white_count and not elected.shape[0] and not fresh.shape[0]:
            white = np.nonzero(status == _WHITE)[0][:5].tolist()
            raise RuntimeError(f"clustering stalled; white nodes remain: {white}")
    # The last elections' IamDominator broadcasts land before quiescence.
    deliver(elected)

    heard_by = np.concatenate([w for w, _ in heard])
    keys = np.sort(heard_by * n + np.concatenate([d for _, d in heard]))
    dominators = np.nonzero(status == _DOMINATOR)[0]
    ledger.record_counts(IAM_DOMINATEE, range(n), np.bincount(heard_by, minlength=n))
    ledger.record_counts(IAM_DOMINATOR, dominators, 1)
    # Quiescence: IamDominator at T+1, the dominatees' reactions at T+2.
    rounds = int((elected_round[dominators] + 1 + (degree[dominators] > 0)).max())

    # One int object per node id, shared by every set naming it, as the
    # scalar body's sets share them.
    ids = list(range(n))
    holder, dom = keys // n, [ids[d] for d in (keys % n).tolist()]
    starts = np.nonzero(np.diff(holder, prepend=-1))[0]
    bounds = starts.tolist() + [keys.shape[0]]
    return ClusteringOutcome(
        dominators=frozenset(dominators.tolist()),
        dominators_of={
            ids[w]: frozenset(dom[a:b])
            for w, a, b in zip(holder[starts].tolist(), bounds, bounds[1:])
        },
        rounds=rounds,
        stats=ledger,
    )


def fast_connectors(
    udg: UnitDiskGraph,
    clustering: ClusteringOutcome,
    *,
    rebroadcast_dominatees: bool = False,
    election: str = "smallest-id",
    stats: Optional[MessageStats] = None,
) -> ConnectorOutcome:
    """Compute Algorithm 1's fixed point directly.

    Bit-identical to :func:`~repro.protocols.connectors.run_connectors`
    on every field: connector set, certified CDS edges, round count,
    and message ledger, for both election rules and with or without
    the standalone ``IamDominatee`` re-broadcast accounting.  Runs
    :func:`_soa_connectors` on the graph's shared SoA snapshot when
    numpy is active, and the scalar loops below otherwise.
    """
    if election not in ("smallest-id", "first-response"):
        raise ValueError(f"unknown election rule {election!r}")
    ledger = stats if stats is not None else MessageStats()
    soa = _soa_connectors(
        udg, clustering, rebroadcast_dominatees, election == "smallest-id", ledger
    )
    if soa is not None:
        return soa
    n = udg.node_count
    adjacency = [udg.neighbors(x) for x in range(n)]
    is_dominator = clustering.dominators
    doms_of = clustering.dominators_of

    def my_dominators(x: int) -> frozenset[int]:
        if x in is_dominator:
            return frozenset()
        return doms_of.get(x, frozenset())

    any_message = False
    #: (u, v, slot) -> proposer node ids, in proposal order.
    arenas: dict[tuple[int, int, int], list[int]] = {}

    def propose(x: int, u: int, v: int, slot: int) -> None:
        arenas.setdefault((u, v, slot), []).append(x)
        ledger.record(x, TRY_CONNECTOR)

    # start(): dominatees re-announce (optionally) and propose for
    # slot 0 (common dominatee of u, v) and slot 1 (first node toward a
    # 2-hop dominator).
    for x in range(n):
        if x in is_dominator:
            continue
        doms = sorted(my_dominators(x))
        if rebroadcast_dominatees:
            for dom in doms:
                ledger.record(x, IAM_DOMINATEE)
                any_message = True
        two_hop: set[int] = set()
        adjacent = adjacency[x]
        for w in adjacent:
            for d in doms_of.get(w, ()):
                if d != x and d not in adjacent:
                    two_hop.add(d)
        for i, u in enumerate(doms):
            for v in doms[i + 1 :]:
                propose(x, u, v, SLOT_COMMON)
        dom_set = my_dominators(x)
        for u in doms:
            for v in sorted(two_hop):
                if v != u and v not in dom_set:
                    propose(x, u, v, SLOT_FIRST)

    def winners(key: tuple[int, int, int]) -> list[int]:
        proposers = arenas[key]
        if election != "smallest-id":
            return proposers
        # Smallest-id: a proposer wins unless an adjacent rival
        # proposed the same key with a smaller id (local minima of the
        # proposer conflict graph — at least one per arena).
        return [
            x
            for x in proposers
            if not any(q < x and q in adjacency[x] for q in proposers)
        ]

    connectors: set[int] = set()
    edges: set[tuple[int, int]] = set()
    slot1_winners: dict[tuple[int, int], list[int]] = {}
    for key in arenas:
        u, v, slot = key
        for x in winners(key):
            connectors.add(x)
            ledger.record(x, IAM_CONNECTOR)
            if slot == SLOT_COMMON:
                edges.add(_edge(u, x))
                edges.add(_edge(x, v))
            else:
                edges.add(_edge(u, x))
                slot1_winners.setdefault((u, v), []).append(x)

    # Slot 2: dominatees of v hearing an adjacent slot-1 claim for
    # (u, v) propose as the second node; every slot-1 claim is
    # broadcast in the same round, so ``first`` is the smallest
    # adjacent slot-1 winner.
    second_arenas: dict[tuple[int, int], list[int]] = {}
    first_of: dict[tuple[int, int, int], int] = {}
    for (u, v), firsts in slot1_winners.items():
        candidates: set[int] = set()
        for w in firsts:
            candidates |= adjacency[w]
        for x in sorted(candidates):
            if x in is_dominator:
                continue
            dom_set = my_dominators(x)
            if v not in dom_set or u in dom_set:
                continue
            second_arenas.setdefault((u, v), []).append(x)
            ledger.record(x, TRY_CONNECTOR)
            first_of[(u, v, x)] = min(w for w in firsts if w in adjacency[x])
    for (u, v), proposers in second_arenas.items():
        if election == "smallest-id":
            won = [
                x
                for x in proposers
                if not any(q < x and q in adjacency[x] for q in proposers)
            ]
        else:
            won = proposers
        for x in won:
            connectors.add(x)
            ledger.record(x, IAM_CONNECTOR)
            first = first_of[(u, v, x)]
            edges.add(_edge(first, x))
            edges.add(_edge(x, v))

    obs.count(
        "cds.connector_proposals",
        sum(map(len, arenas.values())) + sum(map(len, second_arenas.values())),
    )
    obs.count("cds.connector_arenas", len(arenas) + len(second_arenas))
    return ConnectorOutcome(
        connectors=frozenset(connectors),
        cds_edges=frozenset(edges),
        rounds=_rounds(bool(second_arenas), bool(arenas), any_message),
        stats=ledger,
    )


def _rounds(slot2: bool, proposed: bool, any_message: bool) -> int:
    """Algorithm 1's round count, replaying the network timeline.

    Proposals resolve two rounds after start and claims land one round
    later (3); a slot-2 cascade adds the propose/resolve pair (5);
    re-broadcasts alone quiesce after their delivery round (1);
    silence is 0 rounds.
    """
    if slot2:
        return 5
    if proposed:
        return 3
    return 1 if any_message else 0


def _elect(
    np: Any, adjacent: Callable[[Any, Any], Any], u: Any, v: Any, x: Any,
    smallest_id: bool,
) -> tuple[Any, int]:
    """Which proposals win their ``(u, v)`` arena; also the arena count.

    Each arena holds distinct proposers ``x``.  Under ``smallest-id`` a
    proposer loses when an adjacent rival of the same arena has a
    smaller id; otherwise everyone wins.
    """
    m = x.shape[0]
    if m == 0:
        return np.zeros(0, dtype=bool), 0
    order = np.lexsort((x, v, u))
    su, sv, sx = u[order], v[order], x[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    first[1:] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
    starts = np.nonzero(first)[0]
    won = np.ones(m, dtype=bool)
    if smallest_id:
        # Sorted by id within each arena, so sx[a] < sx[b].
        a, b = segment_pairs(np, starts, np.diff(np.append(starts, m)))
        won[b[adjacent(sx[a], sx[b])]] = False
    out = np.empty(m, dtype=bool)
    out[order] = won
    return out, int(starts.shape[0])


def dominator_pairs(np: Any, clustering: ClusteringOutcome) -> tuple[Any, Any]:
    """``clustering.dominators_of`` as two int64 arrays ``(holder, dominator)``."""
    doms_of = clustering.dominators_of
    holders = np.fromiter(doms_of, dtype=np.int64, count=len(doms_of))
    sizes = np.fromiter(map(len, doms_of.values()), dtype=np.int64, count=len(doms_of))
    dom = np.fromiter(
        chain.from_iterable(doms_of.values()), dtype=np.int64, count=int(sizes.sum())
    )
    return np.repeat(holders, sizes), dom


def _adjacency_test(np: Any, udg: UnitDiskGraph, snap: Any) -> Callable[[Any, Any], Any]:
    """Elementwise "``a`` and ``b`` are radio neighbours" for distinct ids.

    Under the disk rule that is the UDG's own inclusive
    ``dx * dx + dy * dy <= radius * radius`` test on the snapshot's
    coordinates, the arithmetic :func:`~repro.core.soa.udg_edge_arrays`
    built the links with; otherwise (a quasi-UDG dropped gray-zone
    links) a binary search into the directed edge keys.
    """
    n, xs, ys = snap.n, snap.xs, snap.ys
    if udg.adjacency_is_disk_rule:
        r_sq = udg.radius * udg.radius

        def within(a: Any, b: Any) -> Any:
            dx, dy = xs[a], ys[a]
            dx -= xs[b]
            dy -= ys[b]
            dx *= dx
            dy *= dy
            dx += dy
            return dx <= r_sq

        return within
    adj_keys = snap.directed_keys()
    return lambda a, b: sorted_member(np, adj_keys, a * n + b)


def _soa_connectors(
    udg: UnitDiskGraph,
    clustering: ClusteringOutcome,
    rebroadcast_dominatees: bool,
    smallest_id: bool,
    ledger: MessageStats,
) -> Optional[ConnectorOutcome]:
    """:func:`fast_connectors` as sort-and-join passes over the CSR.

    Returns ``None`` without numpy.  Integer keys ``a * n + b`` stand
    for ordered node pairs.  Dominator membership reads the padded
    per-node table, adjacency comes from :func:`_adjacency_test`; no
    membership test hashes.
    """
    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    if snap is None:
        return None
    n = snap.n
    indptr, indices = snap.indptr, snap.indices
    adjacent = _adjacency_test(np, udg, snap)

    is_dom = np.zeros(n, dtype=bool)
    is_dom[np.fromiter(clustering.dominators, dtype=np.int64)] = True
    holder, dom = dominator_pairs(np, clustering)
    dom_keys = np.sort(holder * n + dom)
    dom_owner, dom_ids = dom_keys // n, dom_keys % n
    dom_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dom_owner, minlength=n), out=dom_ptr[1:])
    dom_start = dom_ptr[:-1]
    # Padded dominator table, one column per slot: column c holds each
    # node's c-th dominator, -1 past its count (at most 5 columns
    # under the disk rule).
    table = np.full((int(np.diff(dom_ptr).max(initial=0)), n), -1, dtype=np.int64)
    table[np.arange(dom_keys.shape[0]) - dom_start[dom_owner], dom_owner] = dom_ids

    def dominates(d: Any, x: Any) -> Any:
        hit = np.zeros(x.shape[0], dtype=bool)
        for column in table:
            hit |= column[x] == d
        return hit

    # A proposer's own dominators; dominators sit the election out.
    mine = np.where(is_dom, 0, dom_ptr[1:] - dom_start)

    # Slot 0: every pair u < v of a dominatee's sorted dominators.
    pick = np.nonzero(mine >= 2)[0]
    a, b = segment_pairs(np, dom_start[pick], mine[pick])
    x0, u0, v0 = dom_owner[a], dom_ids[a], dom_ids[b]

    # Slot 1: the 2-hop dominators a dominatee hears through its
    # neighbours (not itself, not adjacent, not its own), crossed with
    # its own dominators.
    pick = np.nonzero(mine >= 1)[0]
    owner, via = gather_csr_rows(np, indptr, indices, pick)
    hop, far = gather_csr_rows(np, dom_ptr, dom_ids, via)
    keys = sorted_unique(np, pick[owner[hop]] * n + far)
    keys = keys[
        (keys // n != keys % n)
        & ~adjacent(keys // n, keys % n)
        & ~dominates(keys % n, keys // n)
    ]
    two_hop = keys % n
    reach = np.bincount(keys // n, minlength=n)
    pick = np.nonzero(reach * mine > 0)[0]
    a, b = cross_join(
        np, dom_start[pick], mine[pick], (np.cumsum(reach) - reach)[pick], reach[pick]
    )
    x1, u1, v1 = dom_owner[a], dom_ids[a], two_hop[b]

    won0, arenas0 = _elect(np, adjacent, u0, v0, x0, smallest_id)
    won1, arenas1 = _elect(np, adjacent, u1, v1, x1, smallest_id)

    # Slot 2: dominatees of v (not of u) next to a slot-1 winner for
    # (u, v); ``first`` is the smallest such adjacent winner.
    fu, fv, fw = u1[won1], v1[won1], x1[won1]
    owner, x2 = gather_csr_rows(np, indptr, indices, fw)
    owner, x2 = owner[~is_dom[x2]], x2[~is_dom[x2]]
    u2, v2, w2 = fu[owner], fv[owner], fw[owner]
    fit = dominates(v2, x2) & ~dominates(u2, x2)
    u2, v2, w2, x2 = u2[fit], v2[fit], w2[fit], x2[fit]
    order = np.lexsort((w2, x2, v2, u2))
    u2, v2, w2, x2 = u2[order], v2[order], w2[order], x2[order]
    head = np.ones(x2.shape[0], dtype=bool)
    head[1:] = (u2[1:] != u2[:-1]) | (v2[1:] != v2[:-1]) | (x2[1:] != x2[:-1])
    u2, v2, w2, x2 = u2[head], v2[head], w2[head], x2[head]
    won2, arenas2 = _elect(np, adjacent, u2, v2, x2, smallest_id)

    proposals = x0.shape[0] + x1.shape[0] + x2.shape[0]
    obs.count("cds.connector_proposals", proposals)
    obs.count("cds.connector_arenas", arenas0 + arenas1 + arenas2)

    tries = np.bincount(np.concatenate([x0, x1, x2]), minlength=n)
    winners = np.concatenate([x0[won0], x1[won1], x2[won2]])
    claims = np.bincount(winners, minlength=n)
    kinds = [(TRY_CONNECTOR, tries), (IAM_CONNECTOR, claims)]
    if rebroadcast_dominatees:
        kinds.insert(0, (IAM_DOMINATEE, mine))
    for kind, counts in kinds:
        ledger.record_counts(kind, range(n), counts)

    # Certified edges: slot 0 (u, x), (x, v); slot 1 (u, x); slot 2
    # (first, x), (x, v).
    ends_a = np.concatenate([u0[won0], v0[won0], u1[won1], w2[won2], v2[won2]])
    ends_b = np.concatenate([x0[won0], x0[won0], x1[won1], x2[won2], x2[won2]])
    edge_keys = sorted_unique(
        np, np.minimum(ends_a, ends_b) * n + np.maximum(ends_a, ends_b)
    )
    return ConnectorOutcome(
        connectors=frozenset(sorted_unique(np, winners).tolist()),
        cds_edges=frozenset(zip((edge_keys // n).tolist(), (edge_keys % n).tolist())),
        rounds=_rounds(
            x2.shape[0] > 0, proposals > 0,
            rebroadcast_dominatees and bool(mine.any()),
        ),
        stats=ledger,
    )
