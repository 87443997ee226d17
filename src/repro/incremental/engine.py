"""The incremental maintainer: event batches in, exact structures out.

One :class:`IncrementalMaintainer` owns a live deployment and keeps
every structure of the paper's pipeline — UDG adjacency, clusterhead
roles, connectors, CDS/ICDS, and the planarized LDel backbone graphs —
continuously equal to what a from-scratch build would produce at the
current positions.  Each :meth:`apply` call maps an event batch to its
invalidation footprint and repairs only that:

* **UDG** — :class:`~repro.incremental.udg.DynamicUdg` computes the
  appearing/vanishing links per event from its bucket grid.
* **Election** — the greedy smallest-id MIS is repaired by an exact
  ascending-id cascade seeded at the nodes whose blocker sets changed.
  The heap pops in non-decreasing id order and every push targets a
  larger id, so when a node is recomputed all smaller ids are final —
  the cascade reproduces the global fixed point.  A repair whose
  cascade stays within the election stage halo (``3r``) of the event
  sites is counted *certified*; one that escapes is counted as a
  *fallback* to wider recomputation (the cascade performs it either
  way, exactly).
* **Connectors** — Algorithm 1's fixed point is kept as cached
  proposals, arenas and winners
  (:class:`~repro.incremental.connectors.IncrementalConnectors`) and
  repaired from the nodes whose adjacency, role or dominator set
  changed — joins and leaves included — but only when one of its
  inputs (node set, adjacency, dominator roles, dominator sets)
  actually changed; a pure-geometry batch skips it.
* **PLDel backbone** — :class:`~repro.incremental.pldel.IncrementalPLDel`
  recomputes the stars, verdicts and Gabriel tests of its cavity and
  replays its contests per triangle.  Its dirty ids are *member
  relevant* only: the labels whose member moved, arrived, left or was
  renamed in, and the nodes whose membership flipped; the cavity adds
  their member neighbours before and after the batch.  PLDel is built
  over the backbone subset, so an event that never touches a member —
  a non-member's move that flips no role, whatever links it makes or
  breaks — costs the planarizer nothing.
* **Assembly** — the ICDS edge set and the dominatee–dominator links
  are kept live and patched from the step's own deltas (appeared and
  vanished links, membership flips, changed dominator sets); an edge
  is in LDel(ICDS') iff it is an LDel edge or a link, so the report's
  ``edges_added``/``edges_removed`` are decided on the touched edges
  alone.  Id churn adds the pairs at every label a leave retired or
  renamed into; roles and membership are relabeled in place as the
  events apply.  Full edge sets are built only by
  :meth:`IncrementalMaintainer.snapshot`.

The tripwire: :meth:`verify` rebuilds from scratch and asserts
bit-identical UDG edges, roles, and all four compared backbone graphs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from typing import Sequence, cast

from repro import obs
from repro.geometry.primitives import Point, dist_sq
from repro.incremental.connectors import IncrementalConnectors
from repro.incremental.events import Event, check_batch
from repro.incremental.pldel import IncrementalPLDel
from repro.incremental.tiles import ELECTION_HALO
from repro.incremental.udg import DynamicUdg
from repro.protocols.connectors import _edge

Edge = tuple[int, int]


@dataclass(frozen=True)
class StepReport:
    """What one event batch cost and changed (JSON-ready)."""

    events: int
    node_count: int
    appeared_links: int
    vanished_links: int
    role_changes: int
    repairs_certified: int
    repairs_fallback: int
    dirty_tiles: int
    #: Accepted triangles whose Algorithm 3 contest was replayed.
    contest_triangles: int
    dirty_nodes: int
    dirty_fraction: float
    edges_added: tuple[tuple[int, int], ...]
    edges_removed: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["dirty_fraction"] = round(self.dirty_fraction, 6)
        out["edges_added"] = [list(e) for e in self.edges_added]
        out["edges_removed"] = [list(e) for e in self.edges_removed]
        return out


@dataclass(frozen=True)
class Snapshot:
    """The maintained structures, frozen for comparison/serving."""

    positions: tuple[Point, ...]
    udg_edges: frozenset[tuple[int, int]]
    dominators: frozenset[int]
    connectors: frozenset[int]
    cds_edges: frozenset[tuple[int, int]]
    icds_edges: frozenset[tuple[int, int]]
    ldel_icds_edges: frozenset[tuple[int, int]]
    ldel_icds_prime_edges: frozenset[tuple[int, int]]
    #: Adjacent dominators of every non-dominator (the routing entry map).
    dominators_of: dict[int, frozenset[int]]

    @property
    def backbone_nodes(self) -> frozenset[int]:
        return self.dominators | self.connectors


@dataclass
class IncrementalMaintainer:
    """Maintains the full pipeline output under an event stream."""

    points: Sequence[Point | tuple[float, float]]
    radius: float
    tile_cells: int = 2
    steps: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.udg = DynamicUdg(
            [Point(float(p[0]), float(p[1])) for p in self.points], self.radius
        )
        self.pldel = IncrementalPLDel(self.udg, tile_cells=self.tile_cells)
        #: status[u] is True iff u is a dominator (greedy smallest-id MIS).
        self._status: list[bool] = []
        for u in range(self.udg.node_count):
            self._status.append(
                not any(self._status[w] for w in self.udg.adjacency[u] if w < u)
            )
        self._doms_of: dict[int, frozenset[int]] = {
            w: frozenset(v for v in self.udg.adjacency[w] if self._status[v])
            for w in range(self.udg.node_count)
            if not self._status[w]
        }
        self._iconn = IncrementalConnectors(self.udg)
        self._iconn.rebuild(self._status, self._doms_of)
        #: _member[u] is True iff u is a dominator or a connector.
        self._member = [
            is_dom or self._iconn.is_connector(u)
            for u, is_dom in enumerate(self._status)
        ]
        backbone = [u for u, member in enumerate(self._member) if member]
        self.pldel.step(
            self._member, [self.udg.positions[u] for u in backbone], backbone
        )
        adjacency = self.udg.adjacency
        #: the UDG links between backbone members (the ICDS edges).
        self._icds_edges = {
            (b, w) for b in backbone for w in adjacency[b] if w > b and self._member[w]
        }
        #: every dominatee–dominator link, normalized.
        self._links = {
            _edge(w, d) for w, doms in self._doms_of.items() for d in doms
        }

    # -- derived structures ----------------------------------------------

    def _update_icds(self, touched: set[Edge], membership_diff: set[int]) -> None:
        """Patch the ICDS edges after a batch.

        Only a pair in ``touched`` — a link that appeared or vanished,
        or a pair at a label a leave retired or renamed into — or a
        link at a node whose membership flipped can change its ICDS
        status.
        """
        adjacency = self.udg.adjacency
        member = self._member
        n = len(member)
        for u in membership_diff:
            touched.update(_edge(u, w) for w in adjacency[u])
        inside = {
            e for e in touched
            if e[1] < n and member[e[0]] and member[e[1]] and e[1] in adjacency[e[0]]
        }
        self._icds_edges -= touched - inside
        self._icds_edges |= inside

    def _prime_delta(
        self,
        ldel_added: list[Edge],
        ldel_removed: list[Edge],
        links_added: set[Edge],
        links_removed: set[Edge],
    ) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        """The LDel(ICDS') edges this batch added and removed.

        LDel(ICDS') is the union of the LDel(ICDS) edges and the links,
        so only an edge in one of the four (net, disjoint) deltas can
        change; its before-state is read back from the delta.
        """
        ldel_plus, ldel_minus = set(ldel_added), set(ldel_removed)
        added: list[Edge] = []
        removed: list[Edge] = []
        for e in ldel_plus | ldel_minus | links_added | links_removed:
            ldel_now = self.pldel.has_edge(e)
            link_now = e in self._links
            after = ldel_now or link_now
            before = (
                e in ldel_minus
                or (ldel_now and e not in ldel_plus)
                or e in links_removed
                or (link_now and e not in links_added)
            )
            if after and not before:
                added.append(e)
            elif before and not after:
                removed.append(e)
        return tuple(sorted(added)), tuple(sorted(removed))

    # -- the maintenance step --------------------------------------------

    def apply(self, events: Sequence[Event]) -> StepReport:
        """Apply one event batch; repair the dirty region; report.

        The whole batch is checked first: an invalid one raises
        :class:`~repro.incremental.events.InvalidBatch` and changes
        nothing.
        """
        check_batch(events, self.udg.node_count)
        self.steps += 1
        n_before = self.udg.node_count
        with obs.span("incremental.phase.udg"):
            appeared: list[tuple[int, int]] = []
            vanished: list[tuple[int, int]] = []
            departed_links = 0
            event_points: list[Point] = []
            #: pre-batch positions of backbone members an event displaced,
            #: renamed, or removed — the pre-state side of the PLDel dirt.
            member_points: list[Point] = []
            seeds: set[int] = set()
            #: labels whose node moved, arrived, or was renamed in, and
            #: the labels a member moved at, left or was renamed from
            #: (whose planarizer state is stale whoever holds them now).
            placed: set[int] = set()
            placed_members: set[int] = set()
            #: pre-event neighbours of the members an event moved,
            #: renamed, or removed (the old side of the PLDel cavity).
            near: set[int] = set()
            #: UDG pairs at labels a leave retired or renamed into, and
            #: the links whose dominatee label it did so to.
            relabeled: set[Edge] = set()
            links_out: set[Edge] = set()
            status, member = self._status, self._member
            for event in events:
                if event.kind == "move":
                    mover = cast(int, event.node)
                    placed.add(mover)
                    if member[mover]:
                        member_points.append(self.udg.positions[mover])
                        member_points.append(event.point)
                        placed_members.add(mover)
                        near.update(self.udg.adjacency[mover])
                    delta = self.udg.move(mover, event.point)
                elif event.kind == "join":
                    delta = self.udg.join(event.point)
                    placed.add(self.udg.node_count - 1)
                    status.append(False)
                    member.append(False)
                else:
                    node = cast(int, event.node)
                    last = self.udg.node_count - 1
                    for x in (node,) if node == last else (node, last):
                        if member[x]:
                            member_points.append(self.udg.positions[x])
                            placed_members.add(x)
                            near.update(self.udg.adjacency[x])
                        relabeled.update(_edge(x, w) for w in self.udg.adjacency[x])
                        doms = self._doms_of.pop(x, None)
                        if doms:
                            links_out.update(_edge(x, d) for d in doms)
                    delta = self.udg.leave(node)
                    seeds.discard(node)
                    if delta.renamed is not None:
                        # Swap-remove: the last node's state moves to `node`.
                        status[node], member[node] = status[last], member[last]
                        seeds = _relabel(seeds, last, node)
                        placed = _relabel(placed, last, node)
                        placed.add(node)
                        near = _relabel(near, last, node)
                        relabeled.update(_edge(node, w) for w in self.udg.adjacency[node])
                    status.pop()
                    member.pop()
                appeared.extend(delta.appeared)
                vanished.extend(delta.vanished)
                departed_links += delta.departed_links
                event_points.extend(delta.dirty_points)
                seeds.update(delta.touched)
                for u, v in (*delta.appeared, *delta.vanished):
                    seeds.update((u, v))
            n = self.udg.node_count
            seeds = {s for s in seeds if s < n}

        with obs.span("incremental.phase.election"):
            flipped = self._cascade(seeds)
            certified, fallback = self._classify_repairs(flipped, event_points)

        with obs.span("incremental.phase.roles"):
            affected = set(seeds) | flipped
            for u in flipped:
                affected.update(self.udg.adjacency[u])
            doms_changed: set[int] = set()
            #: links of the dominator sets replaced this batch (raw:
            #: a link may leave one entry and rejoin through another).
            links_in: set[Edge] = set()
            for w in affected:
                old_doms = self._doms_of.get(w)
                if status[w]:
                    if old_doms is not None:
                        del self._doms_of[w]
                        doms_changed.add(w)
                        links_out.update(_edge(w, d) for d in old_doms)
                else:
                    new_doms = frozenset(
                        v for v in self.udg.adjacency[w] if status[v]
                    )
                    if old_doms != new_doms:
                        self._doms_of[w] = new_doms
                        doms_changed.add(w)
                        if old_doms:
                            links_out.update(_edge(w, d) for d in old_doms)
                        links_in.update(_edge(w, d) for d in new_doms)
            # The connector fixed point reads (node set, adjacency,
            # dominators, dominator sets) and nothing geometric; when none
            # of those changed this batch, the previous outcome stands.
            quiet = not (
                n != n_before or relabeled or appeared or vanished or flipped or doms_changed
            )
            membership_diff: set[int] = set()
            if not quiet:
                toggled = self._iconn.update(
                    status, self._doms_of, seeds | flipped, doms_changed
                )
                # Seeds hold every label a join or a rename gave a new node.
                for x in flipped | toggled | seeds:
                    if (status[x] or self._iconn.is_connector(x)) != member[x]:
                        member[x] = not member[x]
                        membership_diff.add(x)

        with obs.span("incremental.phase.pldel"):
            # PLDel is built over the backbone members alone, so its dirty
            # ids are the labels whose member moved, arrived, left or was
            # renamed in, plus every node whose membership flipped; a
            # non-member's move leaves it untouched.
            dirty_ids = {x for x in placed if x < n and member[x]}
            dirty_ids.update(x for x in placed_members if x < n)
            dirty_ids |= membership_diff
            # A member that lost its role without moving still has its
            # pre-batch links (to members; a member that moved is placed).
            for x in membership_diff:
                if not member[x] and x not in placed:
                    near.update(self.udg.adjacency[x])
            pldel_points = list(member_points)
            for s in sorted(dirty_ids):
                pldel_points.append(self.udg.positions[s])
            ldel_added, ldel_removed, pldel_stats = self.pldel.step(
                member, pldel_points, dirty_ids, {x for x in near if x < n}
            )

        with obs.span("incremental.phase.assemble"):
            if not quiet:
                self._update_icds(relabeled.union(appeared, vanished), membership_diff)
            links_added = links_in - links_out
            links_removed = links_out - links_in
            self._links -= links_removed
            self._links |= links_added
            edges_added, edges_removed = self._prime_delta(
                ldel_added, ldel_removed, links_added, links_removed
            )

        role_changes = len(flipped) + len(membership_diff)
        return StepReport(
            events=len(events),
            node_count=n,
            appeared_links=len(appeared),
            vanished_links=len(vanished) + departed_links,
            role_changes=role_changes,
            repairs_certified=certified,
            repairs_fallback=fallback,
            dirty_tiles=pldel_stats.dirty_tiles,
            contest_triangles=pldel_stats.contest_triangles,
            dirty_nodes=pldel_stats.dirty_members,
            dirty_fraction=pldel_stats.dirty_members / n if n else 0.0,
            edges_added=edges_added,
            edges_removed=edges_removed,
        )

    def _cascade(self, seeds: set[int]) -> set[int]:
        """Exact repair of the greedy smallest-id MIS from ``seeds``.

        Pops ascend (every push targets a larger id than the pop that
        caused it), so each recomputation sees final smaller-id
        statuses — the result equals the global ascending pass.
        """
        status = self._status
        adjacency = self.udg.adjacency
        heap = sorted(seeds)
        flipped: set[int] = set()
        while heap:
            u = heapq.heappop(heap)
            new = not any(status[w] for w in adjacency[u] if w < u)
            if new == status[u]:
                continue
            status[u] = new
            flipped.symmetric_difference_update({u})
            for w in adjacency[u]:
                if w > u:
                    heapq.heappush(heap, w)
        return flipped

    def _classify_repairs(
        self, flipped: set[int], dirty_points: Sequence[Point]
    ) -> tuple[int, int]:
        """Count role flips inside vs outside the election halo."""
        if not flipped:
            return 0, 0
        halo = ELECTION_HALO * self.radius
        halo_sq = halo * halo
        certified = fallback = 0
        for u in flipped:
            p = self.udg.positions[u]
            if any(dist_sq(p, q) <= halo_sq for q in dirty_points):
                certified += 1
            else:
                fallback += 1
        return certified, fallback

    # -- inspection and verification -------------------------------------

    def snapshot(self) -> Snapshot:
        """Materialize the maintained structures."""
        ldel = self.pldel.edges()
        return Snapshot(
            positions=tuple(self.udg.positions),
            udg_edges=self.udg.edge_set(),
            dominators=frozenset(
                u for u, is_dom in enumerate(self._status) if is_dom
            ),
            connectors=self._iconn.connectors,
            cds_edges=self._iconn.cds_edges,
            icds_edges=frozenset(self._icds_edges),
            ldel_icds_edges=ldel,
            ldel_icds_prime_edges=ldel.union(self._links),
            dominators_of=dict(self._doms_of),
        )

    def verify(self) -> dict:
        """Rebuild from scratch; report field-by-field bit-identity."""
        from repro.core.spanner import build_backbone

        reference = build_backbone(
            list(self.udg.positions), self.radius, mode="fast"
        )
        snap = self.snapshot()
        mismatches = [
            name
            for name, mine, theirs in (
                ("udg_edges", snap.udg_edges, reference.udg.edge_set()),
                ("dominators", snap.dominators, reference.dominators),
                ("connectors", snap.connectors, reference.connectors),
                ("cds_edges", snap.cds_edges, reference.cds.edge_set()),
                ("icds_edges", snap.icds_edges, reference.icds.edge_set()),
                (
                    "ldel_icds_edges",
                    snap.ldel_icds_edges,
                    reference.ldel_icds.edge_set(),
                ),
                (
                    "ldel_icds_prime_edges",
                    snap.ldel_icds_prime_edges,
                    reference.ldel_icds_prime.edge_set(),
                ),
            )
            if mine != theirs
        ]
        return {"identical": not mismatches, "mismatches": mismatches}


def _relabel(labels: set[int], last: int, node: int) -> set[int]:
    """``labels`` after a leave renamed ``last`` into ``node``."""
    return {node if x == last else x for x in labels}
