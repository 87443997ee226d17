"""Break-triggered full rebuild: the baseline maintenance policy.

The paper's observation: while nodes move, the *logical* backbone
stays valid as long as none of its links stretches beyond the
transmission radius — the physical drawing may momentarily be
non-planar, but routing state need not change.  The maintainer
implements that policy with one correction: besides breakage it also
watches the appearing UDG links that *invalidate* what is being
maintained — a new link between two backbone nodes changes the
induced subgraph the planarized LDel was computed over (stale spanner
membership), and a new link crossing a structural link breaks the
planarity of the maintained embedding.  Either triggers a full
rebuild; benign gains (a fresh dominatee link with no crossing) do
not.  It is the ``full`` policy of
:func:`~repro.mobility.session.run_mobility_session`; the
``incremental`` policy (:mod:`repro.incremental`) tracks every change
exactly, heals included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.spanner import BackboneResult, build_backbone
from repro.geometry.predicates import segments_cross
from repro.geometry.primitives import Point, dist


@dataclass(frozen=True)
class MaintenanceReport:
    """What one position update did to the backbone."""

    #: Structural links whose endpoints drifted out of range.
    broken_links: tuple[tuple[int, int], ...]
    #: Whether a rebuild was triggered.
    rebuilt: bool
    #: Fraction of old backbone edges surviving into the new backbone
    #: (1.0 when no rebuild happened).
    edge_retention: float
    #: Nodes whose role (dominator/connector/dominatee) changed.
    role_changes: tuple[int, ...]
    #: The current (possibly new) backbone.
    result: BackboneResult
    #: Appearing UDG links that invalidated the maintained structure
    #: (backbone-backbone adjacency, or a crossing with a structural
    #: link) and therefore forced the rebuild.
    invalidating_links: tuple[tuple[int, int], ...] = ()


class BackboneMaintainer:
    """Keeps a backbone valid across position updates."""

    def __init__(self, result: BackboneResult) -> None:
        self.result = result
        self.radius = result.udg.radius
        self.rebuild_count = 0
        self.update_count = 0

    def structural_links(self) -> frozenset[tuple[int, int]]:
        """The links whose breakage forces a rebuild.

        The routed structure is LDel(ICDS') — the planar backbone plus
        every dominatee-to-dominator link — so those are the links
        being watched.
        """
        return self.result.ldel_icds_prime.edge_set()

    def check(self, positions: Sequence[Point]) -> tuple[tuple[int, int], ...]:
        """Structural links broken at the given ``positions``."""
        broken = [
            (u, v)
            for u, v in sorted(self.structural_links())
            if dist(positions[u], positions[v]) > self.radius
        ]
        return tuple(broken)

    def new_links(self, positions: Sequence[Point]) -> tuple[tuple[int, int], ...]:
        """UDG links available at ``positions`` that the old UDG lacked."""
        from repro.graphs.udg import UnitDiskGraph

        new_udg = UnitDiskGraph(list(positions), self.radius)
        gained = sorted(new_udg.edge_set() - self.result.udg.edge_set())
        return tuple(gained)

    def invalidating_links(
        self, positions: Sequence[Point]
    ) -> tuple[tuple[int, int], ...]:
        """Appearing UDG links that invalidate the maintained structure.

        A link that newly comes into range can invalidate the
        maintained structure even while every structural link still
        holds:

        * both endpoints are backbone nodes — the induced subgraph
          PLDel/ICDS were computed over gained an edge, so the cached
          planarization and spanner membership are stale;
        * the link's segment properly crosses a structural link — the
          maintained embedding is no longer planar at these positions.
        """
        gained = self.new_links(positions)
        if not gained:
            return ()
        backbone_nodes = self.result.dominators | self.result.connectors
        structural = sorted(self.structural_links())
        invalidating: list[tuple[int, int]] = []
        for u, v in gained:
            if u in backbone_nodes and v in backbone_nodes:
                invalidating.append((u, v))
                continue
            pu, pv = positions[u], positions[v]
            if any(
                a not in (u, v)
                and b not in (u, v)
                and segments_cross(pu, pv, positions[a], positions[b])
                for a, b in structural
            ):
                invalidating.append((u, v))
        return tuple(invalidating)

    def update(self, positions: Sequence[Point]) -> MaintenanceReport:
        """Apply a position update; rebuild when the structure is invalid.

        The paper's policy watches only *breakage*: as long as every
        structural link holds, the logical backbone stays valid and
        nothing happens.  Two classes of *appearing* link are watched
        on top of that, because ignoring them leaves the maintained
        structure wrong rather than merely suboptimal: new
        backbone-backbone adjacency (stale PLDel/ICDS membership) and
        new links crossing a structural link (broken planarity) — see
        :meth:`invalidating_links`.  Benign links that newly come into
        range are not exploited; the incremental policy heals them.
        """
        if len(positions) != self.result.udg.node_count:
            raise ValueError("position update must cover every node")
        self.update_count += 1
        broken = self.check(positions)
        invalidating = self.invalidating_links(positions)
        if not broken and not invalidating:
            return MaintenanceReport(
                broken_links=(),
                rebuilt=False,
                edge_retention=1.0,
                role_changes=(),
                result=self.result,
            )

        old = self.result
        old_edges = old.ldel_icds_prime.edge_set()
        new = build_backbone(positions, self.radius)
        self.result = new
        self.rebuild_count += 1

        new_edges = new.ldel_icds_prime.edge_set()
        retention = (
            len(old_edges & new_edges) / len(old_edges) if old_edges else 1.0
        )
        role_changes = tuple(
            node
            for node in new.udg.nodes()
            if old.role_of(node) != new.role_of(node)
        )
        return MaintenanceReport(
            broken_links=broken,
            rebuilt=True,
            edge_retention=retention,
            role_changes=role_changes,
            result=new,
            invalidating_links=invalidating,
        )
