"""Mobility sessions: one seeded waypoint loop, two maintenance policies.

:func:`run_mobility_session` is the one mobility loop.  Every step a
seeded share of the nodes advances along a random-waypoint trace, the
backbone is maintained under one of two policies, and routing probes
run over the maintained structure:

* ``"incremental"`` (default) — the moves become one ``move``-event
  batch for :class:`~repro.incremental.engine.IncrementalMaintainer`,
  which repairs only the affected region and stays bit-identical to a
  rebuild (``verify_every=k`` asserts it every k-th step);
* ``"full"`` — the paper's baseline,
  :class:`~repro.mobility.maintenance.BackboneMaintainer`, which
  rebuilds from scratch when a structural link breaks or an appearing
  link invalidates the structure.

Both policies see the same trace and report the same
:class:`SessionStep` shape, so the two are directly comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.route_engine import BackboneRouter
from repro.core.spanner import build_backbone
from repro.geometry.primitives import dist
from repro.graphs.graph import Graph
from repro.incremental.engine import IncrementalMaintainer
from repro.incremental.events import Event
from repro.incremental.session import IncrementalSession
from repro.mobility.maintenance import BackboneMaintainer
from repro.mobility.waypoint import RandomWaypointModel
from repro.workloads.generators import Deployment, QuasiDeployment

POLICIES = ("incremental", "full")


@dataclass(frozen=True)
class SessionStep:
    """Measurements for one mobility step.

    ``rebuilt`` means the LDel(ICDS') edge set changed (under ``full``:
    a rebuild ran); ``broken_links`` counts old LDel(ICDS') edges now
    longer than the radius; ``edge_retention`` is the share of old
    LDel(ICDS') edges kept.
    """

    time: float
    broken_links: int
    rebuilt: bool
    edge_retention: float
    role_changes: int
    routable_probes: int
    total_probes: int


@dataclass(frozen=True)
class SessionResult:
    """A whole session's time series plus aggregates.

    ``counters`` are the cumulative ``incremental.*`` counters of the
    incremental policy (empty under ``full``).
    """

    steps: tuple[SessionStep, ...]
    counters: dict = field(default_factory=dict)

    @property
    def rebuild_count(self) -> int:
        return sum(1 for s in self.steps if s.rebuilt)

    @property
    def rebuild_rate(self) -> float:
        if not self.steps:
            return 0.0
        return self.rebuild_count / len(self.steps)

    @property
    def mean_retention_on_rebuild(self) -> float:
        retentions = [s.edge_retention for s in self.steps if s.rebuilt]
        if not retentions:
            return 1.0
        return sum(retentions) / len(retentions)

    @property
    def availability(self) -> float:
        """Fraction of routing probes that delivered across the session."""
        total = sum(s.total_probes for s in self.steps)
        if total == 0:
            return 1.0
        return sum(s.routable_probes for s in self.steps) / total

    @property
    def all_verified(self) -> bool:
        return self.counters.get("verification_failures", 0) == 0

    @property
    def mean_dirty_fraction(self) -> float:
        return float(self.counters.get("mean_dirty_fraction", 0.0))


def run_mobility_session(
    deployment: Deployment,
    *,
    policy: str = "incremental",
    steps: int,
    dt: float = 1.0,
    speed: float = 2.0,
    pause: float = 1.0,
    move_fraction: float = 0.05,
    seed: int = 0,
    verify_every: int = 0,
    tile_cells: Optional[int] = None,
    probe_pairs: Optional[Sequence[tuple[int, int]]] = None,
) -> SessionResult:
    """Run a seeded random-waypoint session under one maintenance policy.

    Per step, a ``move_fraction`` share of the nodes (at least one,
    picked by a stream seeded with ``seed + 1``) advances by ``dt``;
    the waypoint trajectories are a function of ``seed`` alone, so
    ``move_fraction=1.0`` moves everyone along the same trace.
    ``pause`` caps the per-trip waypoint pause time.  ``probe_pairs``
    are (source, target) routing checks run on the maintained backbone
    after every step; they default to three deterministic long-range
    pairs.  ``verify_every`` and ``tile_cells`` (default 2) configure
    the incremental policy and are refused under ``full``.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown maintenance policy {policy!r}")
    if policy == "full" and (verify_every > 0 or tile_cells is not None):
        raise ValueError("verify_every and tile_cells need policy='incremental'")
    if isinstance(deployment, QuasiDeployment):
        raise ValueError(
            "mobility sessions maintain the sharp-disk UDG; "
            "quasi-UDG deployments are not supported"
        )
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not 0.0 < move_fraction <= 1.0:
        raise ValueError("move_fraction must be in (0, 1]")
    n = len(deployment.points)
    radius = deployment.radius
    if probe_pairs is None:
        probe_pairs = [(0, n - 1), (1, n // 2), (n // 3, n - 2)]
    probe_pairs = [(s, t) for s, t in probe_pairs if s != t]

    model = RandomWaypointModel(
        list(deployment.points),
        deployment.side,
        seed,
        speed_range=(0.5 * speed, 1.5 * speed),
        pause_range=(0.0, max(pause, 0.0)),
    )
    if policy == "full":
        maintainer = BackboneMaintainer(
            build_backbone(deployment.points, radius)
        )
        edges = maintainer.result.ldel_icds_prime.edge_set()
    else:
        session = IncrementalSession(
            IncrementalMaintainer(
                list(deployment.points),
                radius,
                tile_cells=2 if tile_cells is None else tile_cells,
            )
        )
        edges = session.maintainer.snapshot().ldel_icds_prime_edges
    movers_per_step = max(1, round(move_fraction * n))
    picker = random.Random(seed + 1)

    records: list[SessionStep] = []
    for index in range(steps):
        movers = sorted(picker.sample(range(n), movers_per_step))
        positions = model.step(dt, nodes=movers)
        old_edges = edges
        if policy == "full":
            report = maintainer.update(positions)
            rebuilt = report.rebuilt
            role_changes = len(report.role_changes)
            edges = maintainer.result.ldel_icds_prime.edge_set()
            router = BackboneRouter(maintainer.result)
        else:
            events = [
                Event("move", node=u, x=positions[u][0], y=positions[u][1])
                for u in movers
            ]
            verify = verify_every > 0 and (index + 1) % verify_every == 0
            step_report = session.step(events, verify=verify)
            rebuilt = bool(step_report.edges_added or step_report.edges_removed)
            role_changes = step_report.role_changes
            snap = session.maintainer.snapshot()
            edges = snap.ldel_icds_prime_edges
            router = BackboneRouter(
                udg=Graph(snap.positions, snap.udg_edges),
                backbone=Graph(snap.positions, snap.ldel_icds_edges),
                backbone_nodes=snap.backbone_nodes,
                dominators_of=snap.dominators_of,
            )
        broken = sum(
            1 for u, v in old_edges if dist(positions[u], positions[v]) > radius
        )
        retention = (
            len(old_edges & edges) / len(old_edges) if old_edges else 1.0
        )
        routable = router.route_pairs(
            probe_pairs, keep_paths=False, count_unreachable=False
        ).delivered_count
        records.append(
            SessionStep(
                time=model.time,
                broken_links=broken,
                rebuilt=rebuilt,
                edge_retention=retention,
                role_changes=role_changes,
                routable_probes=routable,
                total_probes=len(probe_pairs),
            )
        )
    counters = session.counters() if policy == "incremental" else {}
    return SessionResult(steps=tuple(records), counters=counters)
