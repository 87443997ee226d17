"""The maintainer's r-aligned tile grid and the halo widths it reads.

Each decision the maintainer repairs depends only on nodes within a
constant multiple of the radius ``r`` of its anchor.  The grid sizes
what a step reports, not what it recomputes (the planarizer's cavity
comes from the adjacency):

* :data:`ACCEPTANCE_HALO` — LDel^1 acceptance (and the Gabriel test
  under it) for a triangle anchored in a tile: the triangle's vertices
  lie within ``r`` of the anchor, and its proposers' 1-hop Delaunay
  neighbourhoods and the k=1 filter's witnesses reach another ``r``.
  A step reports the tiles within it of its dirty points;
* :data:`ELECTION_HALO` — the clusterhead election: the repair counts
  a role flip within ``3r`` of a changed point as certified, and one
  farther out as a fallback repair.
"""

from __future__ import annotations

import math

from repro.geometry.primitives import Point

#: Halo width, in radii, of phase A (Gabriel plus LDel^1 acceptance).
ACCEPTANCE_HALO = 2

#: Halo width, in radii, inside which an election repair is certified.
ELECTION_HALO = 3


class DynamicTileGrid:
    """An unbounded, lazy r-aligned tile grid for incremental maintenance.

    Tile keys are plain ``floor`` coordinates over an infinite lattice
    of ``tile_cells * r`` squares anchored at the origin, so the key of
    a point is a deterministic function of its coordinates alone,
    stable as nodes drift past the initial bounding box.  Cores are
    half-open boxes, so a point on a tile line belongs to exactly one
    tile.  Tiles are never materialized; the maintainer counts the
    keys a changed point can influence.
    """

    def __init__(self, radius: float, *, tile_cells: int = 2) -> None:
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        if tile_cells < 1:
            raise ValueError("tile_cells must be at least 1")
        self.tile_cells = tile_cells
        self.tile_side = tile_cells * radius

    def key_of(self, p: Point) -> tuple[int, int]:
        """Grid coordinates of the tile whose half-open core owns ``p``."""
        return (
            math.floor(p[0] / self.tile_side),
            math.floor(p[1] / self.tile_side),
        )

    def box(self, key: tuple[int, int]) -> tuple[float, float, float, float]:
        """Core box ``(x0, y0, x1, y1)`` of the tile at ``key``."""
        x0 = key[0] * self.tile_side
        y0 = key[1] * self.tile_side
        return (x0, y0, x0 + self.tile_side, y0 + self.tile_side)

    def keys_within(self, p: Point, halo_r: float) -> list[tuple[int, int]]:
        """All tile keys whose core box is within ``halo_r`` of ``p``.

        The influence footprint of a changed point: every tile whose
        halo of width ``halo_r`` contains ``p``.  Enumerates the
        covering key window arithmetically, then filters by exact box
        distance, so the result is independent of which tiles happen to
        be populated.
        """
        side = self.tile_side
        return [
            (ix, iy)
            for ix in range(
                math.floor((p[0] - halo_r) / side), math.floor((p[0] + halo_r) / side) + 1
            )
            for iy in range(
                math.floor((p[1] - halo_r) / side), math.floor((p[1] + halo_r) / side) + 1
            )
            if box_distance(self.box((ix, iy)), p) <= halo_r
        ]


def box_distance(box: tuple[float, float, float, float], p: Point) -> float:
    """Euclidean distance from ``p`` to ``box`` (0 inside)."""
    x0, y0, x1, y1 = box
    dx = max(x0 - p[0], 0.0, p[0] - x1)
    dy = max(y0 - p[1], 0.0, p[1] - y1)
    return math.hypot(dx, dy)
