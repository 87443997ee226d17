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
* **Connectors** — Algorithm 1's fixed point is a cheap set pass over
  the adjacency (:func:`repro.protocols.cds_fast.fast_connectors`),
  recomputed through a thin adapter over the dynamic adjacency — but
  only when one of its inputs (node set, adjacency, dominator roles,
  dominator sets) actually changed; a pure-geometry batch skips it.
* **PLDel backbone** — :class:`~repro.incremental.pldel.IncrementalPLDel`
  repairs the planarizer tile-by-tile.  Its dirty points are *member
  relevant* only: the old/new positions of moved backbone members, the
  positions of nodes whose membership or id changed — PLDel is built
  over the backbone subset, so an event that never touches a member
  costs the planarizer nothing.

The tripwire: :meth:`verify` rebuilds from scratch and asserts
bit-identical UDG edges, roles, and all four compared backbone graphs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence, cast

from repro import obs
from repro.geometry.primitives import Point, dist_sq
from repro.incremental.connectors import IncrementalConnectors
from repro.incremental.events import Event
from repro.incremental.pldel import IncrementalPLDel
from repro.incremental.udg import DynamicUdg
from repro.protocols.clustering import ClusteringOutcome
from repro.sharding.tiles import stage_halo
from repro.sim.stats import MessageStats


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
    contest_tiles: int
    dirty_nodes: int
    dirty_fraction: float
    edges_added: tuple[tuple[int, int], ...]
    edges_removed: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "node_count": self.node_count,
            "appeared_links": self.appeared_links,
            "vanished_links": self.vanished_links,
            "role_changes": self.role_changes,
            "repairs_certified": self.repairs_certified,
            "repairs_fallback": self.repairs_fallback,
            "dirty_tiles": self.dirty_tiles,
            "contest_tiles": self.contest_tiles,
            "dirty_nodes": self.dirty_nodes,
            "dirty_fraction": round(self.dirty_fraction, 6),
            "edges_added": [list(e) for e in self.edges_added],
            "edges_removed": [list(e) for e in self.edges_removed],
        }


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
        self._refresh_connectors(None, None)
        backbone = self._backbone_nodes()
        membership = self._membership(backbone)
        ldel_edges, _ = self.pldel.step(
            membership, [self.udg.positions[u] for u in sorted(backbone)]
        )
        self._finish_assembly(backbone, ldel_edges, icds_unchanged=False)

    # -- derived structures ----------------------------------------------

    def _refresh_connectors(
        self, changed: set[int] | None, doms_changed: set[int] | None
    ) -> None:
        """Re-elect connectors; ``None`` change sets force a rebuild.

        Rebuilds happen at initialization and on id-churn batches
        (join/leave renames invalidate the cached arena keys); every
        other batch repairs the election incrementally.
        """
        if changed is None or doms_changed is None:
            self._iconn.rebuild(self._status, self._doms_of)
        else:
            self._iconn.update(
                self._status, self._doms_of, changed, doms_changed
            )
        self._clustering = ClusteringOutcome(
            dominators=frozenset(
                u for u, is_dom in enumerate(self._status) if is_dom
            ),
            dominators_of=dict(self._doms_of),
            rounds=0,
            stats=MessageStats(),
        )
        self._connectors = self._iconn.connectors
        self._cds_edges = self._iconn.cds_edges

    def _backbone_nodes(self) -> frozenset[int]:
        return self._clustering.dominators | self._connectors

    def _membership(self, backbone: frozenset[int]) -> list[bool]:
        flags = [False] * self.udg.node_count
        for u in backbone:
            flags[u] = True
        return flags

    def _finish_assembly(
        self,
        backbone: frozenset[int],
        ldel_edges: frozenset[tuple[int, int]],
        *,
        icds_unchanged: bool,
    ) -> None:
        if not icds_unchanged:
            adjacency = self.udg.adjacency
            icds = set()
            for b in backbone:
                for w in adjacency[b]:
                    if w > b and w in backbone:
                        icds.add((b, w))
            self._icds_edges = frozenset(icds)
        prime = set(ldel_edges)
        for w, doms in self._doms_of.items():
            for d in doms:
                prime.add((w, d) if w < d else (d, w))
        self._backbone = backbone
        self._ldel_icds_edges = ldel_edges
        self._ldel_icds_prime_edges = frozenset(prime)

    # -- the maintenance step --------------------------------------------

    def apply(self, events: Sequence[Event]) -> StepReport:
        """Apply one event batch; repair the dirty region; report."""
        self.steps += 1
        with obs.span("incremental.phase.udg"):
            appeared: list[tuple[int, int]] = []
            vanished: list[tuple[int, int]] = []
            event_points: list[Point] = []
            #: pre-batch positions of backbone members an event displaced,
            #: renamed, or removed — the pre-state side of the PLDel dirt.
            member_points: list[Point] = []
            seeds: set[int] = set()
            structural = False
            backbone_prev = set(self._backbone)
            for event in events:
                if event.kind == "move":
                    mover = cast(int, event.node)
                    if mover in backbone_prev:
                        member_points.append(self.udg.positions[mover])
                        member_points.append(event.point)
                    delta = self.udg.move(mover, event.point)
                elif event.kind == "join":
                    structural = True
                    delta = self.udg.join(event.point)
                    self._status.append(False)
                else:
                    structural = True
                    node = cast(int, event.node)
                    last = self.udg.node_count - 1
                    if node in backbone_prev:
                        member_points.append(self.udg.positions[node])
                    if node != last and last in backbone_prev:
                        member_points.append(self.udg.positions[last])
                    delta = self.udg.leave(node)
                    seeds.discard(node)
                    backbone_prev.discard(node)
                    if delta.renamed is not None:
                        old_id, new_id = delta.renamed
                        self._status[new_id] = self._status[old_id]
                        seeds = {new_id if s == old_id else s for s in seeds}
                        if old_id in backbone_prev:
                            backbone_prev.discard(old_id)
                            backbone_prev.add(new_id)
                    self._status.pop()
                    self._doms_of.pop(last, None)
                    self._doms_of.pop(node, None)
                appeared.extend(delta.appeared)
                vanished.extend(delta.vanished)
                event_points.extend(delta.dirty_points)
                seeds.update(delta.touched)
                for u, v in delta.appeared:
                    seeds.update((u, v))
                for u, v in delta.vanished:
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
            for w in affected:
                if self._status[w]:
                    if self._doms_of.pop(w, None) is not None:
                        doms_changed.add(w)
                else:
                    new_doms = frozenset(
                        v for v in self.udg.adjacency[w] if self._status[v]
                    )
                    if self._doms_of.get(w) != new_doms:
                        self._doms_of[w] = new_doms
                        doms_changed.add(w)
            # The connector fixed point reads (node set, adjacency,
            # dominators, dominator sets) and nothing geometric; when none
            # of those changed this batch, the previous outcome stands.
            quiet = not (
                structural or appeared or vanished or flipped or doms_changed
            )
            if quiet:
                backbone = self._backbone
            elif structural:
                self._refresh_connectors(None, None)
                backbone = self._backbone_nodes()
            else:
                self._refresh_connectors(seeds | flipped, doms_changed)
                backbone = self._backbone_nodes()

        with obs.span("incremental.phase.pldel"):
            membership_diff = backbone.symmetric_difference(backbone_prev)
            # PLDel is built over the backbone members alone, so its dirty
            # ids are the event-touched nodes that are members on either
            # side of the batch, plus every node whose membership flipped.
            dirty_ids = {
                s for s in seeds if s in backbone or s in backbone_prev
            } | membership_diff
            pldel_points = list(member_points)
            for s in sorted(dirty_ids):
                pldel_points.append(self.udg.positions[s])
            prev_prime = self._ldel_icds_prime_edges
            ldel_edges, pldel_stats = self.pldel.step(
                self._membership(backbone), pldel_points, dirty_ids
            )

        with obs.span("incremental.phase.assemble"):
            if not quiet or ldel_edges != self._ldel_icds_edges:
                # Quiet batches cannot change the ICDS (same members, same
                # adjacency); they can still move LDel edges via geometry.
                self._finish_assembly(backbone, ldel_edges, icds_unchanged=quiet)

        role_changes = len(flipped) + len(membership_diff)
        return StepReport(
            events=len(events),
            node_count=n,
            appeared_links=len(appeared),
            vanished_links=len(vanished),
            role_changes=role_changes,
            repairs_certified=certified,
            repairs_fallback=fallback,
            dirty_tiles=pldel_stats.dirty_tiles,
            contest_tiles=pldel_stats.contest_tiles,
            dirty_nodes=pldel_stats.dirty_members,
            dirty_fraction=pldel_stats.dirty_members / n if n else 0.0,
            edges_added=tuple(sorted(self._ldel_icds_prime_edges - prev_prime)),
            edges_removed=tuple(sorted(prev_prime - self._ldel_icds_prime_edges)),
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
        halo = stage_halo("election") * self.radius
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
        return Snapshot(
            positions=tuple(self.udg.positions),
            udg_edges=self.udg.edge_set(),
            dominators=self._clustering.dominators,
            connectors=self._connectors,
            cds_edges=self._cds_edges,
            icds_edges=self._icds_edges,
            ldel_icds_edges=self._ldel_icds_edges,
            ldel_icds_prime_edges=self._ldel_icds_prime_edges,
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
