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

#: :class:`StepReport` counts the session sums over its steps (the
#: service folds the same ones into ``incremental.*`` metrics).
SUMMED_FIELDS = (
    "events",
    "appeared_links",
    "vanished_links",
    "role_changes",
    "repairs_certified",
    "repairs_fallback",
    "dirty_tiles",
    "contest_triangles",
    "dirty_nodes",
)


@dataclass
class IncrementalSession:
    """One live maintained deployment plus its cumulative counters.

    The session keeps running totals, not the step reports, so a
    long-lived session holds constant state however many steps it
    takes.
    """

    maintainer: IncrementalMaintainer
    #: Event batches applied so far.
    steps: int = field(init=False, default=0)
    verifications: int = 0
    verification_failures: list[dict] = field(default_factory=list)
    _totals: dict[str, int] = field(
        init=False, default_factory=lambda: dict.fromkeys(SUMMED_FIELDS, 0)
    )
    _dirty_fraction_sum: float = field(init=False, default=0.0)

    def step(self, events: Sequence[Event], *, verify: bool = False) -> StepReport:
        """Apply one event batch; optionally assert rebuild equivalence."""
        report = self.maintainer.apply(events)
        self.steps += 1
        for name in SUMMED_FIELDS:
            self._totals[name] += getattr(report, name)
        self._dirty_fraction_sum += report.dirty_fraction
        if verify:
            self.verifications += 1
            outcome = self.maintainer.verify()
            if not outcome["identical"]:
                self.verification_failures.append({"step": self.steps, **outcome})
        return report

    def counters(self) -> dict:
        """Cumulative ``incremental.*`` counters over the session."""
        totals = {
            "steps": self.steps,
            **self._totals,
            "verifications": self.verifications,
            "verification_failures": len(self.verification_failures),
        }
        if self.steps:
            totals["mean_dirty_fraction"] = self._dirty_fraction_sum / self.steps
        return totals
