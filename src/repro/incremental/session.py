"""Long-lived incremental sessions: an event stream with counters.

An :class:`IncrementalSession` wraps one
:class:`~repro.incremental.engine.IncrementalMaintainer`, applies event
batches to it, optionally asserts the rebuild-equivalence tripwire, and
keeps cumulative counters.  The mobility loop
(:func:`repro.mobility.session.run_mobility_session`, behind
``python -m repro mobility`` and the CI smoke job) feeds it waypoint
``move`` batches; the HTTP session endpoints
(:mod:`repro.service.server`) feed it client-supplied batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.incremental.engine import IncrementalMaintainer, StepReport
from repro.incremental.events import Event


@dataclass
class IncrementalSession:
    """One live maintained deployment plus its cumulative counters."""

    maintainer: IncrementalMaintainer
    reports: list[StepReport] = field(default_factory=list)
    verifications: int = 0
    verification_failures: list[dict] = field(default_factory=list)

    def step(self, events: Sequence[Event], *, verify: bool = False) -> StepReport:
        """Apply one event batch; optionally assert rebuild equivalence."""
        report = self.maintainer.apply(events)
        self.reports.append(report)
        if verify:
            self.verifications += 1
            outcome = self.maintainer.verify()
            if not outcome["identical"]:
                self.verification_failures.append(
                    {"step": len(self.reports), **outcome}
                )
        return report

    def counters(self) -> dict:
        """Cumulative ``incremental.*`` counters over the session."""
        totals = {
            "steps": len(self.reports),
            "events": sum(r.events for r in self.reports),
            "appeared_links": sum(r.appeared_links for r in self.reports),
            "vanished_links": sum(r.vanished_links for r in self.reports),
            "role_changes": sum(r.role_changes for r in self.reports),
            "repairs_certified": sum(r.repairs_certified for r in self.reports),
            "repairs_fallback": sum(r.repairs_fallback for r in self.reports),
            "dirty_tiles": sum(r.dirty_tiles for r in self.reports),
            "dirty_nodes": sum(r.dirty_nodes for r in self.reports),
            "verifications": self.verifications,
            "verification_failures": len(self.verification_failures),
        }
        if self.reports:
            totals["mean_dirty_fraction"] = sum(
                r.dirty_fraction for r in self.reports
            ) / len(self.reports)
        return totals
