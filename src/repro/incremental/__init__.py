"""Incremental spanner maintenance under join/leave/move event streams.

The paper's structures are *localized*: every Gabriel test, LDel
acceptance, planarization contest, and clusterhead decision depends
only on a bounded neighborhood of its anchor.  This package exploits
that *temporally*: when a batch of nodes joins, leaves, or moves, only
the tiles (:mod:`repro.incremental.tiles`) whose halo contains a
changed point can produce different outputs, so the maintainer
recomputes exactly those tiles and splices the results into the
retained structures.

The correctness tripwire is non-negotiable and cheap to state: after
every event batch, the maintained UDG, roles, and backbone graphs are
**bit-identical** to a from-scratch rebuild at the new positions
(:meth:`IncrementalMaintainer.verify` asserts it; the equivalence
tests and the mobility loop's ``verify_every`` hold it under long waypoint
traces).
"""

from repro.incremental.engine import IncrementalMaintainer, StepReport
from repro.incremental.events import Event, parse_events
from repro.incremental.session import IncrementalSession

__all__ = [
    "Event",
    "IncrementalMaintainer",
    "IncrementalSession",
    "StepReport",
    "parse_events",
]
