"""Per-UDG neighborhood/geometry cache for the construction hot path.

The localized Delaunay pipeline asks the same questions over and over:
``k_hop_neighborhood(u, k)`` is needed once per node by the candidate
generation, three times per candidate triangle by the k-localized
filter, and again per edge by the Gabriel test; a triangle's
circumcircle is needed by the k-localized filter and then again by the
planarization's crossing contest.  A :class:`ConstructionCache` scoped
to one :class:`~repro.graphs.udg.UnitDiskGraph` memoizes both so each
neighborhood and circumcircle is computed exactly once per
construction, and counts hits/misses so the serving layer can report
cache effectiveness.

Every entry point in :mod:`repro.topology.ldel` and
:mod:`repro.topology.gabriel` accepts an optional ``cache``; passing
the same instance across stages (as
:func:`~repro.topology.ldel.planar_local_delaunay_graph` does) shares
the work, while omitting it keeps the old call-by-call behavior.
Results are identical either way — the cache stores exact values, not
approximations — which the equivalence test suite asserts.
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.circle import Circle, circumcircle
from repro.graphs.udg import UnitDiskGraph

Triangle = tuple[int, int, int]

#: Sentinel distinguishing "not cached" from a cached ``None`` circle.
_MISSING = object()


class ConstructionCache:
    """Memoized neighborhoods and circumcircles for one UDG.

    The cache is keyed by node/triangle identity, so it is only valid
    for the graph it was created for; :meth:`for_udg` guards against
    accidental reuse across graphs.
    """

    __slots__ = ("udg", "counters", "_khop", "_circles")

    def __init__(self, udg: UnitDiskGraph) -> None:
        self.udg = udg
        self._khop: dict[tuple[int, int], frozenset[int]] = {}
        self._circles: dict[Triangle, Optional[Circle]] = {}
        self.counters: dict[str, int] = {
            "khop_hits": 0,
            "khop_misses": 0,
            "circumcircle_hits": 0,
            "circumcircle_misses": 0,
            "local_delaunay_calls": 0,
            "triangle_pairs_candidate": 0,
            "triangle_pairs_tested": 0,
            "triangle_pairs_intersecting": 0,
        }

    @classmethod
    def for_udg(
        cls, udg: UnitDiskGraph, cache: Optional["ConstructionCache"]
    ) -> "ConstructionCache":
        """``cache`` when it belongs to ``udg``, else a fresh one."""
        if cache is not None and cache.udg is udg:
            return cache
        return cls(udg)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named counter (created on first use)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def k_hop(self, u: int, k: int) -> frozenset[int]:
        """Memoized ``N_k(u)`` (includes ``u``), shared across stages."""
        key = (u, k)
        hood = self._khop.get(key)
        if hood is not None:
            self.counters["khop_hits"] += 1
            return hood
        self.counters["khop_misses"] += 1
        hood = frozenset(self.udg.k_hop_neighborhood(u, k))
        self._khop[key] = hood
        return hood

    def circumcircle_of(self, triangle: Triangle) -> Optional[Circle]:
        """Memoized circumcircle of a (sorted) vertex triple."""
        circle = self._circles.get(triangle, _MISSING)
        if circle is not _MISSING:
            self.counters["circumcircle_hits"] += 1
            return circle  # type: ignore[return-value]
        self.counters["circumcircle_misses"] += 1
        pos = self.udg.positions
        circle = circumcircle(pos[triangle[0]], pos[triangle[1]], pos[triangle[2]])
        self._circles[triangle] = circle
        return circle

    def snapshot(self) -> dict[str, int]:
        """Copy of the counters (JSON-ready)."""
        return dict(self.counters)
