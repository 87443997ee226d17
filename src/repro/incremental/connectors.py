"""Incremental Algorithm 1 connector election.

:func:`repro.protocols.cds_fast.fast_connectors` resolves the
connector protocol as a deterministic fixed point: every dominatee
proposes into ``(u, v, slot)`` arenas (slot 0 — common dominatee of
two adjacent-in-2-hops dominators; slot 1 — first node toward a 2-hop
dominator; slot 2 — second node completing a slot-1 path), and the
``smallest-id`` winners are the local minima of each arena's proposer
conflict graph.  Every one of those rules is *order-independent* and
*local*: a node's proposals are a function of its own role, its
dominator set, its adjacency, and its neighbors' dominator sets; an
arena's winners are a function of its proposer set and the adjacency
among the proposers; a slot-2 arena is a function of the slot-1
winners and their neighborhoods.

:class:`IncrementalConnectors` exploits that locality.  It caches the
per-node proposals, the arena proposer sets, the per-arena winners,
and the slot-2 resolutions, plus reference counters for the winning
nodes and certified CDS edges.  An update receives the nodes whose
adjacency or role changed and the nodes whose dominator sets changed,
recomputes exactly the proposals/arenas/cascades those can reach, and
folds the diffs into the counters — leaving ``connectors`` and
``cds_edges`` bit-identical to a from-scratch ``fast_connectors`` run
(the maintainer's rebuild-equivalence tripwire checks both).

Id churn is the same repair: the rules read ids only as labels, so a
leave renaming ``last -> u`` means the node at ``u`` changed (like a
mover) and label ``last`` departed (its proposals are withdrawn like a
mover's).  :meth:`rebuild` runs the same path from an empty cache.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.protocols.connectors import SLOT_COMMON, SLOT_FIRST, _edge

if TYPE_CHECKING:
    from repro.incremental.udg import DynamicUdg

Pair = tuple[int, int]
ArenaKey = tuple[int, int, int]
_EMPTY: frozenset = frozenset()


class IncrementalConnectors:
    """Algorithm 1's fixed point under incremental invalidation."""

    def __init__(self, udg: "DynamicUdg") -> None:
        self.udg = udg
        self._clear()

    def _clear(self) -> None:
        #: cached per-node proposals (absent = no proposals).
        self._p0: dict[int, frozenset[Pair]] = {}
        self._p1: dict[int, frozenset[Pair]] = {}
        #: arena -> live proposer set / winner set.
        self._arena: dict[ArenaKey, set[int]] = {}
        self._arena_win: dict[ArenaKey, frozenset[int]] = {}
        #: node -> slot-1 arenas it currently wins.
        self._w1_of: dict[int, set[Pair]] = {}
        #: slot-2 arena -> (proposers, winners, certified edges).
        self._a2: dict[Pair, tuple[frozenset[int], frozenset[int], tuple[Pair, ...]]]
        self._a2 = {}
        #: node -> slot-2 arenas it proposes in.
        self._sup2: dict[int, set[Pair]] = {}
        #: how many arenas each node wins / each edge is certified by.
        self._conn_count: Counter = Counter()
        self._edge_count: Counter = Counter()
        #: nodes whose connector status flipped during the last update.
        self._toggled: set[int] = set()
        #: the node count the caches describe.
        self._n = 0

    @property
    def connectors(self) -> frozenset[int]:
        """The connector set, materialized."""
        return frozenset(self._conn_count)

    @property
    def cds_edges(self) -> frozenset[Pair]:
        """The CDS edge set, materialized."""
        return frozenset(self._edge_count)

    def is_connector(self, x: int) -> bool:
        return x in self._conn_count

    def rebuild(
        self, status: Sequence[bool], doms_of: Mapping[int, frozenset[int]]
    ) -> None:
        """Full recompute from an empty cache (initialization)."""
        self._clear()
        self.update(status, doms_of, set(range(self.udg.node_count)), set())

    # -- the incremental step ---------------------------------------------

    def update(
        self,
        status: Sequence[bool],
        doms_of: Mapping[int, frozenset[int]],
        changed: Iterable[int],
        doms_changed: Iterable[int],
    ) -> set[int]:
        """Repair the election after a batch.

        ``changed`` must contain every node whose adjacency or
        dominator/dominatee role changed (a label renamed or joined
        into included); ``doms_changed`` every node whose dominator
        *set* changed.  Supersets are sound.  Labels the node count
        dropped below since the last update are withdrawn.  Returns the
        live nodes that became or stopped being connectors at some
        point of the repair (a superset of the net change).
        """
        self._toggled = set()
        adjacency = self.udg.adjacency
        n = self.udg.node_count
        departed = set(range(n, self._n))
        self._n = n
        changed = {x for x in changed if x < n} | departed
        doms_changed = {x for x in doms_changed if x < n}
        # A node's proposals read its role, its dominator set, its
        # adjacency, and its neighbors' dominator sets.
        affected = changed | doms_changed
        for d in doms_changed:
            affected.update(adjacency[d])

        dirty: set[ArenaKey] = set()
        for x in sorted(affected):
            old0 = self._p0.get(x, _EMPTY)
            old1 = self._p1.get(x, _EMPTY)
            new0, new1 = self._proposals(x, status, doms_of) if x < n else (_EMPTY, _EMPTY)
            self._shift_proposer(x, old0, new0, SLOT_COMMON)
            self._shift_proposer(x, old1, new1, SLOT_FIRST)
            if new0:
                self._p0[x] = new0
            else:
                self._p0.pop(x, None)
            if new1:
                self._p1[x] = new1
            else:
                self._p1.pop(x, None)
            # When x's adjacency (a winner input) or role changed, every
            # arena it proposes in before or after is dirty; otherwise
            # only the arenas it joined or left.
            if x in changed:
                touched0, touched1 = old0 | new0, old1 | new1
            else:
                touched0, touched1 = old0 ^ new0, old1 ^ new1
            dirty.update((u, v, SLOT_COMMON) for u, v in touched0)
            dirty.update((u, v, SLOT_FIRST) for u, v in touched1)

        w1_dirty: set[Pair] = set()
        for key in sorted(dirty):
            self._resolve_arena(key, w1_dirty)

        # Slot-2 cascades to re-run: arenas whose slot-1 winner set
        # moved, plus every arena a changed node supports, wins slot 1
        # of, or could newly reach (it borders a slot-1 winner of an
        # arena ``(u, v)`` and, as a dominatee of v but not of u, is
        # eligible to propose there).
        dirty2: set[Pair] = set(w1_dirty)
        for c in changed | doms_changed:
            support = self._sup2.get(c)
            if support:
                dirty2 |= support
            wins = self._w1_of.get(c)
            if wins:
                dirty2 |= wins
            if c >= n or status[c]:
                continue
            doms = doms_of.get(c, _EMPTY)
            for nb in adjacency[c]:
                wins = self._w1_of.get(nb)
                if wins:
                    dirty2.update(
                        p for p in wins if p[1] in doms and p[0] not in doms
                    )
        for pair in sorted(dirty2):
            self._solve_slot2(pair, status, doms_of)
        return self._toggled - departed

    # -- pieces of the fixed point ----------------------------------------

    def _proposals(
        self,
        x: int,
        status: Sequence[bool],
        doms_of: Mapping[int, frozenset[int]],
    ) -> tuple[frozenset[Pair], frozenset[Pair]]:
        """Slot-0 and slot-1 arena keys ``x`` proposes into."""
        if status[x]:
            return _EMPTY, _EMPTY
        doms = sorted(doms_of.get(x, ()))
        adjacent = self.udg.adjacency[x]
        two_hop: set[int] = set()
        for w in adjacent:
            for d in doms_of.get(w, ()):
                if d != x and d not in adjacent:
                    two_hop.add(d)
        p0 = frozenset(
            (u, v) for i, u in enumerate(doms) for v in doms[i + 1 :]
        )
        dom_set = set(doms)
        p1 = frozenset(
            (u, v) for u in doms for v in two_hop if v != u and v not in dom_set
        )
        return p0, p1

    def _shift_proposer(
        self, x: int, old: frozenset[Pair], new: frozenset[Pair], slot: int
    ) -> None:
        for u, v in old - new:
            members = self._arena.get((u, v, slot))
            if members is not None:
                members.discard(x)
        for u, v in new - old:
            self._arena.setdefault((u, v, slot), set()).add(x)

    def _winners(self, proposers: Iterable[int]) -> frozenset[int]:
        """Local minima of the proposer conflict graph (smallest-id)."""
        adjacency = self.udg.adjacency
        pool = set(proposers)
        return frozenset(
            x
            for x in pool
            if not any(q < x and q in adjacency[x] for q in pool)
        )

    def _resolve_arena(self, key: ArenaKey, w1_dirty: set[Pair]) -> None:
        proposers = self._arena.get(key)
        new_win = self._winners(proposers) if proposers else _EMPTY
        if not proposers:
            self._arena.pop(key, None)
        old_win = self._arena_win.get(key, _EMPTY)
        if new_win == old_win:
            return
        u, v, slot = key
        for x in old_win - new_win:
            self._bump_connector(x, -1)
            self._bump(self._edge_count, _edge(u, x), -1)
            if slot == SLOT_COMMON:
                self._bump(self._edge_count, _edge(x, v), -1)
        for x in new_win - old_win:
            self._bump_connector(x, 1)
            self._bump(self._edge_count, _edge(u, x), 1)
            if slot == SLOT_COMMON:
                self._bump(self._edge_count, _edge(x, v), 1)
        if new_win:
            self._arena_win[key] = new_win
        else:
            self._arena_win.pop(key, None)
        if slot == SLOT_FIRST:
            w1_dirty.add((u, v))
            for x in old_win - new_win:
                wins = self._w1_of.get(x)
                if wins is not None:
                    wins.discard((u, v))
                    if not wins:
                        del self._w1_of[x]
            for x in new_win - old_win:
                self._w1_of.setdefault(x, set()).add((u, v))

    def _solve_slot2(
        self,
        pair: Pair,
        status: Sequence[bool],
        doms_of: Mapping[int, frozenset[int]],
    ) -> None:
        """Re-run one slot-2 cascade from the current slot-1 winners."""
        u, v = pair
        adjacency = self.udg.adjacency
        firsts = self._arena_win.get((u, v, SLOT_FIRST), _EMPTY)
        proposers: list[int] = []
        if firsts:
            candidates: set[int] = set()
            for w in firsts:
                candidates |= adjacency[w]
            for x in candidates:
                if status[x]:
                    continue
                dom_set = doms_of.get(x, _EMPTY)
                if v not in dom_set or u in dom_set:
                    continue
                proposers.append(x)
        if proposers:
            pool = set(proposers)
            winners = frozenset(
                x
                for x in pool
                if not any(q < x and q in adjacency[x] for q in pool)
            )
            edges: list[Pair] = []
            for x in sorted(winners):
                first = min(w for w in firsts if w in adjacency[x])
                edges.append(_edge(first, x))
                edges.append(_edge(x, v))
            new = (frozenset(pool), winners, tuple(edges))
        else:
            new = (_EMPTY, _EMPTY, ())
        old = self._a2.get(pair, (_EMPTY, _EMPTY, ()))
        if new == old:
            return
        for x in old[1] - new[1]:
            self._bump_connector(x, -1)
        for x in new[1] - old[1]:
            self._bump_connector(x, 1)
        delta: Counter = Counter(new[2])
        delta.subtract(old[2])
        for e, d in delta.items():
            if d:
                self._bump(self._edge_count, e, d)
        for x in old[0] - new[0]:
            support = self._sup2.get(x)
            if support is not None:
                support.discard(pair)
                if not support:
                    del self._sup2[x]
        for x in new[0] - old[0]:
            self._sup2.setdefault(x, set()).add(pair)
        if new[0]:
            self._a2[pair] = new
        else:
            self._a2.pop(pair, None)

    def _bump_connector(self, x: int, delta: int) -> None:
        if x not in self._conn_count or self._conn_count[x] + delta == 0:
            self._toggled.add(x)
        self._bump(self._conn_count, x, delta)

    @staticmethod
    def _bump(counter: Counter, key, delta: int) -> None:
        total = counter[key] + delta
        if total:
            counter[key] = total
        else:
            del counter[key]
