"""Basic planar geometry: points, distances and angles.

A :class:`Point` is an immutable pair of floats.  All higher layers
(unit disk graphs, spanner constructions, routing) work with sequences
of points indexed by integer node id, so the functions here are kept
free of any graph-level concepts.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence


class Point(NamedTuple):
    """An immutable point in the plane.

    Being a :class:`~typing.NamedTuple` it unpacks like a pair, hashes
    by value and is cheap enough to use by the hundreds of thousands.
    """

    x: float
    y: float

    def __add__(self, other: object) -> "Point":  # type: ignore[override]
        if not isinstance(other, tuple) or len(other) != 2:
            return NotImplemented
        return Point(self.x + other[0], self.y + other[1])

    def __sub__(self, other: object) -> "Point":
        if not isinstance(other, tuple) or len(other) != 2:
            return NotImplemented
        return Point(self.x - other[0], self.y - other[1])

    def scaled(self, factor: float) -> "Point":
        """Return this point scaled about the origin by ``factor``."""
        return Point(self.x * factor, self.y * factor)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return this point translated by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)


def dist_sq(p: Point, q: Point) -> float:
    """Squared Euclidean distance between ``p`` and ``q``.

    Preferred over :func:`dist` in comparisons: it avoids the square
    root and therefore both a little time and a little rounding.
    """
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def dist(p: Point, q: Point) -> float:
    """Euclidean distance between ``p`` and ``q``."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def midpoint(p: Point, q: Point) -> Point:
    """Midpoint of segment ``pq``."""
    return Point((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def angle_at(apex: Point, p: Point, q: Point) -> float:
    """Angle ``p–apex–q`` in radians, in ``[0, pi]``.

    Raises :class:`ValueError` when either arm is degenerate (``p`` or
    ``q`` coincides with ``apex``) because the angle is then undefined,
    and when the arms are so short that the product of their lengths
    underflows to zero, so the cosine cannot be formed.
    """
    ax, ay = p[0] - apex[0], p[1] - apex[1]
    bx, by = q[0] - apex[0], q[1] - apex[1]
    na = math.hypot(ax, ay)
    nb = math.hypot(bx, by)
    if na * nb == 0.0:
        raise ValueError("angle undefined: an arm of the angle has zero length")
    cosine = (ax * bx + ay * by) / (na * nb)
    cosine = max(-1.0, min(1.0, cosine))
    return math.acos(cosine)


def polygon_area(vertices: Sequence[Point]) -> float:
    """Signed area of a simple polygon (positive when counter-clockwise)."""
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def iter_points(coords: Sequence[tuple[float, float]]) -> Iterator[Point]:
    """Yield :class:`Point` objects for raw coordinate pairs."""
    for x, y in coords:
        yield Point(float(x), float(y))


def as_points(coords: Sequence[tuple[float, float]]) -> list[Point]:
    """Materialize raw coordinate pairs as a list of :class:`Point`."""
    return list(iter_points(coords))
