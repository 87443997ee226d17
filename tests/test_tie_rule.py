"""One Delaunay tie rule, held to its definition and to relabelings.

On cocircular input the Delaunay triangulation is not unique.  Both the
scalar triangulator and the LDel^1 star kernel decide an exactly zero
in-circle sign by one symbolic perturbation
(:func:`~repro.geometry.predicates.incircle_perturbed`): each point's
lift rises by an infinitesimal ordered by lexicographic ``(x, y)``.
The rule is checked against the exact sign of such a lifting in
rational arithmetic.  What it buys is checked end to end: on exact
lattices the triangulation, Algorithm 2's proposals and the PLDel are
the same under every relabeling of the nodes, with numpy and without,
and the message-passing protocol equals the centralized PLDel.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compat
from repro.geometry.predicates import (
    _exact_incircle_row,
    _exact_orient_row,
    incircle_perturbed,
    incircle_perturbed_batch,
    incircle_signs_batch,
    orient_signs_batch,
)
from repro.geometry.primitives import Point
from repro.geometry.triangulation import delaunay
from repro.graphs.udg import UnitDiskGraph
from repro.protocols.ldel_protocol import run_ldel_protocol
from repro.topology.ldel import planar_local_delaunay_graph, proposed_triangles, triangle_tuples

np = compat.np


def _lifted_sign(pts):
    """Sign of the 4x4 in-circle determinant with each lift ``x^2 + y^2``
    raised by ``eps ** (4 - rank)``, ``rank`` the lexicographic rank and
    ``eps`` small enough that the lowest power of it present decides."""
    eps = Fraction(1, 10**12)
    order = sorted(range(4), key=lambda i: pts[i])
    rows = []
    for rank, i in enumerate(order):
        x, y = Fraction(pts[i][0]), Fraction(pts[i][1])
        rows.append((i, [x, y, x * x + y * y + eps ** (4 - rank), Fraction(1)]))
    rows = [row for _, row in sorted(rows)]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
            for j in range(len(m))
        )

    value = det(rows)
    return (value > 0) - (value < 0)


half_lattice = st.integers(-3, 3).map(lambda k: k * 0.5)
quad = st.lists(
    st.tuples(half_lattice, half_lattice), min_size=4, max_size=4, unique=True
)


@settings(max_examples=300, deadline=None)
@given(quad)
def test_tie_rule_is_the_perturbed_lifting(pts):
    flat = [c for p in pts for c in p]
    exact = _exact_incircle_row(*flat)
    want = _lifted_sign(pts)
    if exact:
        assert want == exact  # the perturbation never flips a sign
        return
    got = incircle_perturbed(*(Point(*p) for p in pts))
    cols = [np.array([c]) for c in flat] if np is not None else None
    assert got == want, pts
    if cols is not None:
        assert int(incircle_perturbed_batch(*cols)[0]) == want
    collinear = all(
        _exact_orient_row(*pts[i], *pts[j], *pts[k]) == 0
        for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    )
    assert (got == 0) == collinear


@pytest.mark.skipif(np is None, reason="requires numpy")
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=4, max_size=4),
    st.sampled_from([1.0, 12.5, 0.1, 2.0**-30, 1e6]),
    st.sampled_from([0.0, 1e6, -3.75]),
)
def test_batched_exact_rows_on_lattices(ints, unit, shift):
    # Exactly degenerate rows are settled on scaled integers without a
    # per-row loop; their signs must be the per-row exact ones.
    pts = [(a * unit + shift, b * unit + shift) for a, b in ints]
    flat = [c for p in pts for c in p]
    cols = [np.array([c]) for c in flat]
    assert int(incircle_signs_batch(*cols)[0][0]) == _exact_incircle_row(*flat)
    assert int(orient_signs_batch(*cols[:6])[0][0]) == _exact_orient_row(*flat[:6])


def _relabeled(points, seed):
    perm = list(points)
    random.Random(seed).shuffle(perm)
    return perm


def _pldel_by_coordinates(points, radius):
    graph = planar_local_delaunay_graph(UnitDiskGraph(points, radius)).graph
    return {frozenset((points[u], points[v])) for u, v in graph.edge_set()}


UNIT_GRID = [Point(float(c), float(r)) for r in range(12) for c in range(12)]


@pytest.mark.parametrize("seed", range(5))
def test_pldel_of_an_exact_grid_ignores_labels(seed):
    want = _pldel_by_coordinates(UNIT_GRID, 1.5)
    assert len(want) == 385
    perm = _relabeled(UNIT_GRID, seed)
    assert _pldel_by_coordinates(perm, 1.5) == want
    with compat.numpy_disabled():
        assert _pldel_by_coordinates(perm, 1.5) == want


def _proposals_by_coordinates(points, radius):
    tris, proposed = proposed_triangles(UnitDiskGraph(points, radius))
    return {
        (frozenset(points[i] for i in tri), frozenset(points[i] for i, p in zip(tri, by) if p))
        for tri, by in zip(triangle_tuples(tris), triangle_tuples(proposed))
    }


@st.composite
def relabeled_lattice(draw):
    """Distinct points of a small exact lattice, in two label orders."""
    spacing = draw(st.sampled_from([1.0, 12.5]))
    cells = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=24, unique=True
    ))
    pts = [Point(c * spacing, r * spacing) for c, r in cells]
    radius = spacing * draw(st.sampled_from([1.5, 2.0, 2.3]))
    return pts, draw(st.permutations(pts)), radius


@settings(max_examples=60, deadline=None)
@given(relabeled_lattice())
def test_lattice_triangulations_and_proposals_ignore_labels(case):
    pts, perm, radius = case

    def triangles(points):
        return {frozenset(points[i] for i in t) for t in delaunay(points).triangles}

    assert triangles(perm) == triangles(pts)
    want = _proposals_by_coordinates(pts, radius)
    assert _proposals_by_coordinates(perm, radius) == want
    with compat.numpy_disabled():
        assert _proposals_by_coordinates(perm, radius) == want


@pytest.mark.parametrize("spacing, radius", [(1.0, 1.5), (12.5, 25.0)])
def test_ldel_protocol_equals_centralized_pldel_on_exact_grids(spacing, radius):
    pts = _relabeled([Point(c * spacing, r * spacing) for r in range(6) for c in range(6)], 7)
    udg = UnitDiskGraph(pts, radius)
    protocol = run_ldel_protocol(udg)
    assert protocol.graph.edge_set() == planar_local_delaunay_graph(udg).graph.edge_set()
