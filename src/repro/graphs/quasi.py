"""Quasi unit disk graphs: the Damian-Pemmaraju radio model.

The UDG's sharp reception threshold is an idealization; real radios
have a gray zone.  The quasi-UDG model (see PAPERS.md) keeps a link
whenever the distance is at most ``epsilon * r`` (the reliable zone),
never keeps one beyond ``r``, and leaves links in between *arbitrary*.
This module makes "arbitrary" reproducible: each gray-zone pair is kept
or dropped by a keyed hash of ``(link_seed, u, v)``, so the same
deployment and seed regenerate the exact same link set on any platform
— the property the validation farm's frozen corpus entries rely on.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.geometry.primitives import Point, dist_sq
from repro.graphs.udg import UnitDiskGraph


def gray_link_alive(link_seed: int, u: int, v: int, keep_probability: float) -> bool:
    """Deterministic fate of the gray-zone pair ``{u, v}``.

    Keyed 64-bit blake2b of the (sorted) pair mapped to [0, 1) and
    compared against ``keep_probability`` — order-independent, stable
    across platforms and process restarts (unlike ``hash()``, which is
    salted per interpreter).
    """
    a, b = (u, v) if u <= v else (v, u)
    digest = hashlib.blake2b(
        f"{link_seed}:{a}:{b}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2.0**64 < keep_probability


class QuasiUnitDiskGraph(UnitDiskGraph):
    """A unit disk graph with a hash-decided gray zone.

    Links at distance <= ``epsilon * radius`` always exist, links
    beyond ``radius`` never do, and each pair in between exists iff
    :func:`gray_link_alive` says so for ``link_seed``.  Subclasses
    :class:`UnitDiskGraph` so every construction that consumes graph
    adjacency (clustering, connectors, Gabriel, LDel) runs unchanged
    on the harder radio model.
    """

    #: Gray-zone removals break the "short distance implies adjacency"
    #: direction of the disk rule; kernels must not exploit it.
    adjacency_is_disk_rule = False

    def __init__(
        self,
        positions: Sequence[Point],
        radius: float,
        *,
        epsilon: float = 0.75,
        link_seed: int = 0,
        keep_probability: float = 0.6,
        name: str = "quasi-UDG",
    ) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must be in (0, 1]")
        if not 0.0 <= keep_probability <= 1.0:
            raise ValueError("keep_probability must be in [0, 1]")
        self.epsilon = epsilon
        self.link_seed = link_seed
        self.keep_probability = keep_probability
        super().__init__(positions, radius, name=name)

    def _build(self) -> None:
        # Full UDG first (the vectorized path when numpy is up, the
        # pure-Python grid join otherwise — both enumerate the same
        # edge set), then drop the gray-zone losers.  Removal-only, so
        # the quasi edge set is identical under either build path.
        super()._build()
        inner_sq = (self.epsilon * self.radius) ** 2
        doomed = [
            (u, v)
            for u, v in self.edges()
            if dist_sq(self.positions[u], self.positions[v]) > inner_sq
            and not gray_link_alive(self.link_seed, u, v, self.keep_probability)
        ]
        for u, v in doomed:
            self.remove_edge(u, v)


def induced_radio_subgraph(
    udg: UnitDiskGraph, nodes: Sequence[int], *, name: str = "UDG-sub"
) -> UnitDiskGraph:
    """The radio graph ``udg`` induces on ``nodes``, reindexed 0..k-1.

    For a plain :class:`UnitDiskGraph` this equals rebuilding a UDG
    over the selected positions (the distance rule is hereditary), so
    existing pipelines stay bit-identical, and the per-link re-check
    is skipped.  For a quasi-UDG (or any
    subclass whose link set is a subset of the disk rule) the rebuild
    would resurrect dropped gray-zone links; here they stay dropped —
    the induced subgraph keeps exactly the parent's links.
    """
    sub = UnitDiskGraph([udg.positions[i] for i in nodes], udg.radius, name=name)
    if udg.adjacency_is_disk_rule:
        return sub
    doomed = [
        (a, b)
        for a, b in sub.edges()
        if not udg.has_edge(nodes[a], nodes[b])
    ]
    for a, b in doomed:
        sub.remove_edge(a, b)
    if doomed:
        # Like the parent, the subgraph no longer follows the disk
        # rule; kernels must not assume it does.
        sub.adjacency_is_disk_rule = False
    return sub
