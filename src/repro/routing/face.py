"""Right-hand-rule face routing on planar embedded graphs.

The recovery mode of GPSR and the reason the paper insists the
backbone be planar.  The packet walks the boundary of the face
intersected by the line toward the destination, counterclockwise by
the right-hand rule, and hops to the next face whenever an edge
crosses that line closer to the destination.  On a *planar* connected
graph this provably reaches the destination; on a non-planar graph it
can loop — which is exactly what the tests demonstrate on the
paper's Figure 5 counterexample.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.geometry.predicates import Orientation, on_segment, orientation
from repro.geometry.primitives import Point, dist_sq
from repro.graphs.graph import Graph
from repro.routing.greedy import RouteResult


def _ccw_angle(reference: float, angle: float) -> float:
    """Counterclockwise sweep from ``reference`` to ``angle`` in (0, 2pi]."""
    sweep = (angle - reference) % (2.0 * math.pi)
    if sweep <= 1e-12:
        sweep = 2.0 * math.pi
    return sweep


def _direction(frm: Point, to: Point) -> float:
    return math.atan2(to[1] - frm[1], to[0] - frm[0])


def _rhr_next_positions(
    here: Point,
    neighbors: "dict[int, Point]",
    reference_angle: float,
    exclude: Optional[int],
) -> Optional[int]:
    """Neighbor with the smallest ccw angle from ``reference_angle``.

    Operates on an explicit ``{node: position}`` map so both the
    centralized path-walker and the stateless routing protocol share
    one right-hand-rule implementation.  ``exclude`` is the node we
    arrived from; it is only chosen when it is the sole neighbor
    (dead-end bounce).
    """
    best: Optional[int] = None
    best_sweep = math.inf
    for v in sorted(neighbors):
        if v == exclude:
            continue
        npos = neighbors[v]
        if npos[0] == here[0] and npos[1] == here[1]:
            # Coincident neighbor: the direction (and thus the sweep)
            # is undefined, and hopping to it cannot advance the face
            # walk.  Skip it; the dead-end bounce below still applies.
            continue
        sweep = _ccw_angle(reference_angle, _direction(here, npos))
        if sweep < best_sweep:
            best_sweep = sweep
            best = v
    if best is None and exclude is not None and exclude in neighbors:
        return exclude  # dead end: walk back along the same edge
    return best


def _rhr_next(
    graph: Graph, current: int, reference_angle: float, exclude: Optional[int]
) -> Optional[int]:
    """Right-hand-rule choice over a graph's adjacency."""
    pos = graph.positions
    neighbors = {v: pos[v] for v in graph.neighbors(current)}
    return _rhr_next_positions(pos[current], neighbors, reference_angle, exclude)


def _segment_crossing_point(
    a: Point, b: Point, c: Point, d: Point
) -> Optional[Point]:
    """Intersection point of segments ``ab`` and ``cd`` (None if disjoint).

    Degenerate contacts go through the exact orientation predicate
    instead of the parametric formula: when an endpoint of either
    segment lies (snapped-)exactly on the other segment — the
    source–target line passing through a vertex, or the target sitting
    on a traversed edge — the returned point is that endpoint,
    coordinate-exact, so face-entry comparisons downstream never see
    parametric rounding noise.  A segment running *along* the line
    (both endpoints collinear) stays "no single crossing", matching
    the old near-zero-denominator behaviour.  General-position inputs
    take the same parametric path as before, bit for bit.
    """
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o3 == Orientation.COLLINEAR and o4 == Orientation.COLLINEAR:
        return None  # ab runs along the cd line: no face change
    if o3 == Orientation.COLLINEAR and on_segment(c, d, a):
        return a
    if o4 == Orientation.COLLINEAR and on_segment(c, d, b):
        return b
    if o1 == Orientation.COLLINEAR and on_segment(a, b, c):
        return c
    if o2 == Orientation.COLLINEAR and on_segment(a, b, d):
        return d
    if not (o1 != o2 and o3 != o4):
        return None
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-15:
        return None  # numerically parallel: treat as no face change
    t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
    return Point(a[0] + t * r[0], a[1] + t * r[1])


def face_route(
    graph: Graph,
    source: int,
    target: int,
    *,
    max_hops: Optional[int] = None,
    resume_distance_sq: Optional[float] = None,
) -> RouteResult:
    """Face routing from ``source`` toward ``target``.

    ``resume_distance_sq``: when set (GPSR perimeter mode), stop with
    reason ``"greedy-resume"`` as soon as the packet reaches a node
    whose squared distance to the target is strictly below this.  GPSR
    passes the stuck node's exact ``dist_sq``: squaring a rounded root
    can land a ulp high and resume greedy at a node no closer than the
    stuck one (a two-node livelock).
    """
    if max_hops is None:
        max_hops = 8 * graph.node_count + 32
    pos = graph.positions
    target_pos = pos[target]
    path = [source]
    current = source
    came_from: Optional[int] = None
    face_entry = pos[source]
    first_edge: Optional[tuple[int, int]] = None
    hops = 0
    switches = 0

    while hops < max_hops:
        if current == target:
            return RouteResult(tuple(path), True, "delivered")
        # Compare squared distances: dist_sq is a fixed sequence of
        # correctly rounded ops, so the batch engine reproduces the
        # resume test bit for bit (np.hypot and math.hypot may not agree).
        if (
            resume_distance_sq is not None
            and current != source
            and dist_sq(pos[current], target_pos) < resume_distance_sq
        ):
            return RouteResult(tuple(path), False, "greedy-resume")

        if came_from is None:
            reference = _direction(pos[current], target_pos)
            nxt = _rhr_next(graph, current, reference, exclude=None)
        else:
            reference = _direction(pos[current], pos[came_from])
            nxt = _rhr_next(graph, current, reference, exclude=came_from)
        if nxt is None:
            return RouteResult(tuple(path), False, "stuck")

        # Face change: the chosen edge crosses the (face-entry ->
        # target) segment at a point strictly closer to the target.
        crossing = _segment_crossing_point(
            pos[current], pos[nxt], face_entry, target_pos
        )
        if (
            crossing is not None
            and dist_sq(crossing, target_pos) < dist_sq(face_entry, target_pos) - 1e-12
        ):
            face_entry = crossing
            came_from = None
            first_edge = None
            switches += 1
            if switches > max_hops:
                return RouteResult(tuple(path), False, "loop")
            continue

        edge = (current, nxt)
        if first_edge is None:
            first_edge = edge
        elif edge == first_edge:
            # Completed a full tour of the face without a face change:
            # the destination is unreachable (or the graph is not
            # planar and the traversal degenerated).
            return RouteResult(tuple(path), False, "loop")

        came_from = current
        current = nxt
        path.append(current)
        hops += 1

    return RouteResult(tuple(path), False, "hop-limit")
