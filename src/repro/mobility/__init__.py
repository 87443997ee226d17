"""Node mobility and incremental backbone maintenance.

The paper argues its topology "can be constructed locally and is easy
to maintain when the nodes move around" and leaves dynamic updating as
future work ("Another interesting open problem is to study the dynamic
updating of the planar backbone efficiently when nodes are moving").
This package studies that claim with one mobility loop,
:func:`~repro.mobility.session.run_mobility_session`: a seeded
random-waypoint trace (:mod:`~repro.mobility.waypoint`) driven through
one of two maintenance policies — the incremental engine
(:mod:`repro.incremental`), which repairs only the affected region and
is bit-identical to a rebuild, or the paper's break-triggered full
rebuild (:mod:`~repro.mobility.maintenance`) as the baseline.
"""

from repro.mobility.waypoint import RandomWaypointModel
from repro.mobility.maintenance import BackboneMaintainer, MaintenanceReport
from repro.mobility.session import (
    SessionResult,
    SessionStep,
    run_mobility_session,
)

__all__ = [
    "RandomWaypointModel",
    "BackboneMaintainer",
    "MaintenanceReport",
    "SessionResult",
    "SessionStep",
    "run_mobility_session",
]
