"""Seeded input generators: every input the program receives comes from here.

The workloads derive one independent stream per purpose from
``--seed`` (``stream(seed, "pairs", i)``), so the same seed always
gives the same deployments, pairs, events and requests, and adding a
draw to one stream never shifts another.  Nothing here imports the
library under test.
"""

from __future__ import annotations

import hashlib
import math
import random

#: The repo's paper recipe: side 10*sqrt(n) and radius 25 keep the
#: expected degree near 20 at every n, so time per node is comparable
#: across sizes.
RADIUS = 25.0


def side_for(n: int) -> float:
    return 10.0 * math.sqrt(n)


def stream(seed: int, purpose: str, index: int = 0) -> random.Random:
    """An independent generator for one purpose of one seeded run."""
    digest = hashlib.sha256(f"{seed}/{purpose}/{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def uniform_points(n: int, rng: random.Random) -> list[tuple[float, float]]:
    side = side_for(n)
    return [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)]


#: Hotspot centers as fractions of the side.  Fixed, so every hotspot
#: deployment has the same density profile and costs about the same to
#: build; only the points drawn around the centers differ.
HOTSPOTS = ((0.3, 0.3), (0.7, 0.35), (0.5, 0.72))


def hotspot_points(n: int, rng: random.Random) -> list[tuple[float, float]]:
    """35% uniform background, the rest in dense Gaussian hotspots."""
    side = side_for(n)
    spread = 0.06 * side
    centers = [(fx * side, fy * side) for fx, fy in HOTSPOTS]
    points = []
    for _ in range(n):
        if rng.random() < 0.35:
            points.append((rng.uniform(0.0, side), rng.uniform(0.0, side)))
        else:
            cx, cy = centers[rng.randrange(len(centers))]
            points.append((
                min(max(rng.gauss(cx, spread), 0.0), side),
                min(max(rng.gauss(cy, spread), 0.0), side),
            ))
    return points


def is_connected(points: list[tuple[float, float]]) -> bool:
    """Whether the unit disk graph over ``points`` is connected."""
    if not points:
        return True
    radius = RADIUS
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(points):
        cells.setdefault((int(x // radius), int(y // radius)), []).append(i)
    r_sq = radius * radius
    seen = [False] * len(points)
    seen[0] = True
    todo = [0]
    reached = 1
    while todo:
        x, y = points[todo.pop()]
        cx, cy = int(x // radius), int(y // radius)
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in cells.get((gx, gy), ()):
                    dx, dy = points[j][0] - x, points[j][1] - y
                    if not seen[j] and dx * dx + dy * dy <= r_sq:
                        seen[j] = True
                        reached += 1
                        todo.append(j)
    return reached == len(points)


def connected_uniform_points(
    n: int, seed: int, purpose: str
) -> list[tuple[float, float]]:
    """The first connected uniform deployment of a seeded sequence.

    Routing checks need every pair deliverable, as in the paper's
    experimental loop (sample until the UDG is connected).
    """
    for attempt in range(1000):
        points = uniform_points(n, stream(seed, purpose, attempt))
        if is_connected(points):
            return points
    raise RuntimeError(f"no connected deployment of {n} nodes in 1000 draws")


def random_pairs(n: int, count: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


class Waypoints:
    """Random-waypoint motion over a live, renumbered node set.

    Each node walks toward its own waypoint at a per-move speed and
    draws a new waypoint on arrival.  ``join``/``leave`` mirror the
    engine's swap-remove ids (the last node takes the vacated id).
    """

    def __init__(self, points: list[tuple[float, float]], rng: random.Random) -> None:
        self.positions = list(points)
        self.side = side_for(len(points))
        self.rng = rng
        self._targets: dict[int, tuple[float, float]] = {}

    def move(self, node: int) -> tuple[float, float]:
        x, y = self.positions[node]
        tx, ty = self._targets.get(node) or self._new_target()
        speed = self.rng.uniform(1.0, 5.0)
        dist = math.hypot(tx - x, ty - y)
        if dist <= speed:
            x, y = tx, ty
            self._targets[node] = self._new_target()
        else:
            x, y = x + (tx - x) * speed / dist, y + (ty - y) * speed / dist
            self._targets[node] = (tx, ty)
        self.positions[node] = (x, y)
        return x, y

    def join(self) -> tuple[float, float]:
        point = self._new_target()
        self.positions.append(point)
        return point

    def leave(self, node: int) -> None:
        last = len(self.positions) - 1
        self.positions[node] = self.positions[last]
        self.positions.pop()
        target = self._targets.pop(last, None)
        self._targets.pop(node, None)
        if node != last and target is not None:
            self._targets[node] = target

    def _new_target(self) -> tuple[float, float]:
        return (self.rng.uniform(0.0, self.side), self.rng.uniform(0.0, self.side))
