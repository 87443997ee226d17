"""Gabriel graph restricted to the unit disk graph.

An edge ``uv`` of the UDG survives when the disk with diameter ``uv``
contains no third node.  GG is planar, contains the RNG, and has
length stretch factor Theta(sqrt(n)) — better than RNG but still not a
constant-factor spanner, which the Table I benchmark shows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.geometry.circle import gabriel_disk_empty
from repro.graphs.graph import Graph
from repro.graphs.udg import UnitDiskGraph

if TYPE_CHECKING:  # avoid a runtime import cycle with construction_cache
    from repro.topology.construction_cache import ConstructionCache


def _soa_gabriel_keys(udg: UnitDiskGraph):
    """Vectorized Gabriel test over the snapshot's edge arrays.

    Replicates :func:`~repro.geometry.circle.gabriel_disk_empty`
    elementwise — midpoint center, ``dist_sq/4 - tol`` threshold,
    witnesses skipped on id *or* coordinate equality with an endpoint —
    so the surviving edge set is bit-identical to the scalar loop.
    Returns the surviving edges' sorted keys ``u * n + v``, or ``None``
    when numpy is masked out.
    """
    from repro.core.soa import gather_csr_rows, row_blocks, snapshot_for
    from repro.core.compat import get_numpy

    np = get_numpy()
    if np is None:
        return None
    snap = snapshot_for(udg)
    if snap is None:
        return None
    eu, ev = snap.edge_u, snap.edge_v
    if eu.shape[0] == 0:
        return eu
    xs, ys = snap.xs, snap.ys
    ux, uy = xs[eu], ys[eu]
    vx, vy = xs[ev], ys[ev]
    mx = (ux + vx) / 2.0
    my = (uy + vy) / 2.0
    duv = (ux - vx) ** 2 + (uy - vy) ** 2
    threshold = duv / 4.0 - 1e-9

    # A blocker inside the diameter disk of ``uv`` is within ``|uv|``
    # of *both* endpoints (Thales), and ``|uv| <= radius``, so under
    # the pure disk rule every witness the scalar loop can find inside
    # the disk already sits in N(u): scanning only u's CSR rows yields
    # the identical blocked set at half the memory traffic of scanning
    # N(u) ∪ N(v).  Quasi-style models break that implication (the
    # blocker's link to u may be a dropped gray-zone link while its
    # link to v survives), so they scan both endpoints' rows.
    both = not udg.adjacency_is_disk_rule
    deg = snap.degrees()
    witnesses = deg[eu] + deg[ev] if both else deg[eu]
    blocked = np.zeros(eu.shape[0], dtype=bool)
    for block in row_blocks(np, witnesses):
        owner, wit = gather_csr_rows(np, snap.indptr, snap.indices, eu[block])
        if both:
            owner_v, wit_v = gather_csr_rows(np, snap.indptr, snap.indices, ev[block])
            owner = np.concatenate([owner, owner_v])
            wit = np.concatenate([wit, wit_v])
        owner += block.start
        wx, wy = xs[wit], ys[wit]
        ux_o, uy_o = ux[owner], uy[owner]
        vx_o, vy_o = vx[owner], vy[owner]
        skip = (
            (wit == eu[owner])
            | (wit == ev[owner])
            | ((wx == ux_o) & (wy == uy_o))
            | ((wx == vx_o) & (wy == vy_o))
        )
        dxw = mx[owner] - wx
        dyw = my[owner] - wy
        inside = ~skip & (dxw * dxw + dyw * dyw < threshold[owner])
        blocked[owner[inside]] = True
    survive = (threshold <= 0.0) | ~blocked
    return eu[survive] * snap.n + ev[survive]


def gabriel_graph(
    udg: UnitDiskGraph, *, cache: Optional["ConstructionCache"] = None
) -> Graph:
    """GG(V) ∩ UDG(V): the Gabriel graph on UDG edges.

    A blocker inside the diameter disk of ``uv`` is within ``|uv|`` of
    both endpoints, hence a UDG neighbor of both; the emptiness test is
    local to 1-hop neighborhoods.  With numpy available the test runs
    as a ragged-array kernel over the shared SoA snapshot, in blocks of
    edges under :data:`repro.core.soa.BLOCK_ENTRIES` witnesses
    (bit-identical edge set, returned as an array-backed graph);
    otherwise a shared ``cache`` (from the
    LDel pipeline) serves the neighborhoods memoized.
    """
    keys = _soa_gabriel_keys(udg)
    if keys is not None:
        return Graph.from_keys(udg.positions, keys, name="GG")
    gg = Graph(udg.positions, name="GG")
    pos = udg.positions
    if cache is not None and cache.udg is udg:
        hood = lambda u: cache.k_hop(u, 1)  # noqa: E731 - tiny dispatch shim
    else:
        hood = udg.neighbors
    for u, v in udg.edges():
        witnesses = (hood(u) | hood(v)) - {u, v}
        if gabriel_disk_empty(pos[u], pos[v], (pos[w] for w in witnesses)):
            gg.add_edge(u, v)
    return gg
