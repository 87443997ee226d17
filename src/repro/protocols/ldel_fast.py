"""Direct-computation fast path for Algorithms 2 and 3 (oracle mode).

Companion to :mod:`repro.protocols.cds_fast`: computes the fixed point
of the distributed localized-Delaunay protocol
(:mod:`repro.protocols.ldel_protocol`) without running the message
simulator, bit-identically — same PLDel graph, same confirmed
triangles, same Gabriel edges, same round count, and the same per-node
message ledger.

The protocol's schedule is rigid (locations → proposals → responses →
structure → prune → confirm, one phase per round), so every message is
a pure function of the geometry, and every decision comes from the
LDel^1 functions of :mod:`repro.topology.ldel`:

* ``Location``, ``Structure`` and ``Kept`` are one broadcast per node,
  unconditionally.
* ``Proposal`` — node ``u`` proposes exactly the triangles
  :func:`~repro.topology.ldel.proposed_triangles` marks ``u`` as a
  proposer of (both paths triangulate the same sorted point list, so
  tie-breaking matches even on degenerate inputs).
* ``Accept``/``Reject`` — each non-proposing corner of a proposed
  triangle responds once, with its
  :func:`~repro.topology.ldel.corner_verdicts` verdict (a proposal
  implies acceptance, so proposers never respond).  A triangle is
  accepted when every corner that did not propose it accepts it.
* the prune/confirm phases yield the same surviving set as the
  centralized :func:`repro.topology.ldel.planarize_ldel1` — the
  equivalence the protocol module's test suite already pins down.

Round count: five phases after the location round, quiescing with the
last ``Kept`` delivery — 5 rounds for any non-empty graph, 0 for an
empty one.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.core.compat import get_numpy
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.ldel_protocol import LDelProtocolOutcome
from repro.sim.messages import (
    ACCEPT,
    KEPT,
    LOCATION,
    PROPOSAL,
    REJECT,
    STRUCTURE,
)
from repro.sim.stats import MessageStats
from repro.topology.gabriel import gabriel_graph
from repro.topology.ldel import (
    LDelResult,
    corner_verdicts,
    planarize_ldel1,
    proposed_triangles,
)

__all__ = ["fast_ldel_protocol"]


def fast_ldel_protocol(
    udg: UnitDiskGraph,
    *,
    stats: Optional[MessageStats] = None,
) -> LDelProtocolOutcome:
    """Compute the LDel protocol's fixed point directly.

    Bit-identical to
    :func:`~repro.protocols.ldel_protocol.run_ldel_protocol` on every
    field.
    """
    ledger = stats if stats is not None else MessageStats()
    triangles, proposed = proposed_triangles(udg)
    verdicts, circles = corner_verdicts(udg, triangles, with_circles=True)

    n = udg.node_count
    for kind in (LOCATION, STRUCTURE, KEPT):
        ledger.record_counts(kind, range(n), 1)
    # Phases 2-3: one Proposal per (triangle, proposing corner), one
    # Accept/Reject per (triangle, other corner), read off the same rows.
    np = get_numpy()
    if np is None:
        sent: Counter = Counter()
        accepted = []
        for t, by, ok in zip(triangles, proposed, verdicts):
            for node, proposer, verdict in zip(t, by, ok):
                if proposer:
                    sent[node, PROPOSAL] += 1
                else:
                    sent[node, ACCEPT if verdict else REJECT] += 1
            if all(proposer or verdict for proposer, verdict in zip(by, ok)):
                accepted.append(t)
        for (node, kind), count in sorted(sent.items()):
            ledger.record(node, kind, count)
    else:
        for kind, rows in (
            (PROPOSAL, proposed),
            (ACCEPT, ~proposed & verdicts),
            (REJECT, ~proposed & ~verdicts),
        ):
            ledger.record_counts(kind, range(n), np.bincount(triangles[rows], minlength=n))
        keep = (proposed | verdicts).all(axis=1)
        accepted, circles = triangles[keep], circles[keep]

    # Phases 4-6: structure exchange, prune, confirm — the surviving
    # triangle set is the centralized Algorithm 3 replay on the
    # accepted set.
    gabriel = gabriel_graph(udg)
    ldel1 = LDelResult(
        graph=gabriel, triangles=accepted, gabriel_edges=gabriel, k=1, circles=circles
    )
    pruned = planarize_ldel1(udg, ldel1)
    return LDelProtocolOutcome(
        graph=pruned.graph,
        triangles=pruned.triangle_rows,
        gabriel_edges=gabriel,
        rounds=5 if udg.node_count else 0,
        stats=ledger,
    )
