"""The event model: join / leave / move, batched per maintenance step.

Events address nodes by their *current* id.  Ids are dense
(``0..n-1``) at all times: a join allocates the next id, a leave
recycles the vacated id by renaming the last node into it (the
swap-remove convention of :class:`repro.incremental.udg.DynamicUdg`).
Within one batch, events apply in list order, so an event may
legitimately refer to an id introduced or recycled earlier in the same
batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence, cast

from repro.geometry.primitives import Point

KINDS = ("move", "join", "leave")


@dataclass(frozen=True)
class Event:
    """One topology event.

    * ``move`` — node ``node`` relocates to ``(x, y)``;
    * ``join`` — a new node appears at ``(x, y)`` (id assigned on apply);
    * ``leave`` — node ``node`` disappears (the last id is renamed into
      its slot).
    """

    kind: str
    node: int | None = None
    x: float | None = None
    y: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; known: {KINDS}")
        if self.kind in ("move", "leave") and self.node is None:
            raise ValueError(f"{self.kind} event needs a node id")
        if self.kind in ("move", "join") and (self.x is None or self.y is None):
            raise ValueError(f"{self.kind} event needs x and y coordinates")
        if not all(c is None or math.isfinite(c) for c in (self.x, self.y)):
            raise ValueError(f"{self.kind} event coordinates must be finite")

    @property
    def point(self) -> Point:
        if self.x is None or self.y is None:
            raise ValueError(f"{self.kind} event carries no position")
        return Point(float(self.x), float(self.y))

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.x is not None:
            out["x"] = self.x
            out["y"] = self.y
        return out


def parse_event(spec: Mapping[str, Any]) -> Event:
    """Build an :class:`Event` from a JSON-shaped mapping, validating it."""
    kind = spec.get("kind")
    if not isinstance(kind, str):
        raise ValueError("event needs a string 'kind'")
    node = spec.get("node")
    if node is not None and (isinstance(node, bool) or not isinstance(node, int)):
        raise ValueError("event 'node' must be an integer id")
    for axis in ("x", "y"):
        value = spec.get(axis)
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(f"event {axis!r} must be a number")
    try:
        x, y = (None if spec.get(a) is None else float(spec[a]) for a in "xy")
    except OverflowError:
        raise ValueError("event coordinates must be finite") from None
    return Event(kind=kind, node=node, x=x, y=y)


def parse_events(specs: Sequence[Mapping[str, Any]]) -> list[Event]:
    """Parse a batch of event mappings (one maintenance step's input)."""
    return [parse_event(spec) for spec in specs]


class InvalidBatch(ValueError):
    """An event batch that cannot apply as a whole; none of it applied."""


def check_batch(events: Sequence[Event], node_count: int) -> None:
    """Raise :class:`InvalidBatch` unless every event of the batch applies.

    Ids are checked against the node count as the batch's own joins
    and leaves change it, so a batch applies whole or not at all.
    """
    n = node_count
    for i, event in enumerate(events):
        if event.kind != "join" and not 0 <= cast(int, event.node) < n:
            raise InvalidBatch(
                f"event {i}: {event.kind} of unknown node {event.node} "
                f"({n} nodes at that point of the batch)"
            )
        n += {"join": 1, "leave": -1}.get(event.kind, 0)
