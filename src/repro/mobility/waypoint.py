"""Random-waypoint mobility.

Each node picks a uniform destination in the region, moves toward it
at a per-trip uniform speed, pauses, and repeats — the standard ad hoc
network mobility benchmark.  :meth:`RandomWaypointModel.step` advances
the world clock and returns the new positions, which the mobility loop
(:func:`~repro.mobility.session.run_mobility_session`) feeds to the
maintenance policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.geometry.primitives import Point, dist


@dataclass
class _NodeMotion:
    position: Point
    destination: Point
    speed: float
    pause_left: float


class RandomWaypointModel:
    """Random-waypoint motion for a set of nodes in a square region.

    ``rng`` accepts either a :class:`random.Random` instance or a bare
    integer seed; passing the same seed (and issuing the same sequence
    of :meth:`step` calls) reproduces the trace bit-for-bit, which is
    what makes the mobility loop and its CI smoke job deterministic.
    """

    def __init__(
        self,
        initial: Sequence[Point],
        side: float,
        rng: Union[random.Random, int],
        *,
        speed_range: tuple[float, float] = (1.0, 5.0),
        pause_range: tuple[float, float] = (0.0, 2.0),
    ) -> None:
        if speed_range[0] <= 0.0 or speed_range[0] > speed_range[1]:
            raise ValueError("speed_range must be positive and ordered")
        if pause_range[0] < 0.0 or pause_range[0] > pause_range[1]:
            raise ValueError("pause_range must be non-negative and ordered")
        self.side = side
        self._rng = random.Random(rng) if isinstance(rng, int) else rng
        self._speed_range = speed_range
        self._pause_range = pause_range
        self._nodes = [
            _NodeMotion(
                position=Point(p[0], p[1]),
                destination=self._random_point(),
                speed=self._random_speed(),
                pause_left=0.0,
            )
            for p in initial
        ]
        self.time = 0.0

    def _random_point(self) -> Point:
        return Point(
            self._rng.uniform(0.0, self.side), self._rng.uniform(0.0, self.side)
        )

    def _random_speed(self) -> float:
        return self._rng.uniform(*self._speed_range)

    def positions(self) -> list[Point]:
        return [n.position for n in self._nodes]

    def step(self, dt: float, nodes: Optional[Sequence[int]] = None) -> list[Point]:
        """Advance nodes by ``dt`` time units; returns all new positions.

        ``nodes`` restricts motion to a subset of node indices (the
        event-stream experiments move a few nodes per step and keep the
        rest parked); the default advances everyone.
        """
        if dt < 0.0:
            raise ValueError("dt must be non-negative")
        moving = self._nodes if nodes is None else [self._nodes[i] for i in nodes]
        for node in moving:
            remaining = dt
            while remaining > 1e-12:
                if node.pause_left > 0.0:
                    wait = min(node.pause_left, remaining)
                    node.pause_left -= wait
                    remaining -= wait
                    continue
                gap = dist(node.position, node.destination)
                if gap <= 1e-12:
                    node.destination = self._random_point()
                    node.speed = self._random_speed()
                    node.pause_left = self._rng.uniform(*self._pause_range)
                    continue
                travel = node.speed * remaining
                if travel >= gap:
                    node.position = node.destination
                    remaining -= gap / node.speed
                else:
                    frac = travel / gap
                    node.position = Point(
                        node.position[0]
                        + frac * (node.destination[0] - node.position[0]),
                        node.position[1]
                        + frac * (node.destination[1] - node.position[1]),
                    )
                    remaining = 0.0
        self.time += dt
        return self.positions()
