"""Unit tests for repro.geometry.primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.primitives import (
    Point,
    angle_at,
    as_points,
    dist,
    dist_sq,
    midpoint,
    polygon_area,
)

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_unpacks_like_a_pair(self):
        x, y = Point(1.5, -2.0)
        assert (x, y) == (1.5, -2.0)

    def test_hashable_by_value(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert len({Point(1.0, 2.0), Point(1.0, 2.0)}) == 1

    def test_add_and_sub(self):
        p = Point(1.0, 2.0) + Point(3.0, 4.0)
        assert p == Point(4.0, 6.0)
        assert Point(4.0, 6.0) - Point(3.0, 4.0) == Point(1.0, 2.0)

    def test_scaled(self):
        assert Point(2.0, -3.0).scaled(2.0) == Point(4.0, -6.0)

    def test_translated(self):
        assert Point(1.0, 1.0).translated(0.5, -0.5) == Point(1.5, 0.5)


class TestDistances:
    def test_dist_matches_pythagoras(self):
        assert dist(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_dist_sq_avoids_sqrt(self):
        assert dist_sq(Point(0, 0), Point(3, 4)) == pytest.approx(25.0)

    def test_zero_distance(self):
        p = Point(2.5, -1.0)
        assert dist(p, p) == 0.0

    @given(points, points)
    def test_symmetry(self, p, q):
        assert dist(p, q) == dist(q, p)

    @given(points, points, points)
    def test_triangle_inequality(self, p, q, r):
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-6

    @given(points, points)
    def test_dist_sq_consistent_with_dist(self, p, q):
        assert math.sqrt(dist_sq(p, q)) == pytest.approx(dist(p, q), abs=1e-6)


class TestMidpoint:
    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(2, 4)) == Point(1, 2)

    @given(points, points)
    def test_midpoint_equidistant(self, p, q):
        m = midpoint(p, q)
        assert dist(m, p) == pytest.approx(dist(m, q), rel=1e-9, abs=1e-6)


class TestAngleAt:
    def test_right_angle(self):
        ang = angle_at(Point(0, 0), Point(1, 0), Point(0, 1))
        assert ang == pytest.approx(math.pi / 2)

    def test_straight_angle(self):
        ang = angle_at(Point(0, 0), Point(1, 0), Point(-1, 0))
        assert ang == pytest.approx(math.pi)

    def test_zero_angle(self):
        ang = angle_at(Point(0, 0), Point(1, 1), Point(2, 2))
        assert ang == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_arm_raises(self):
        apex = Point(1, 1)
        with pytest.raises(ValueError):
            angle_at(apex, apex, Point(2, 2))

    def test_underflowing_arms_raise(self):
        # Each arm is nonzero, but the product of their lengths is 0.0.
        with pytest.raises(ValueError):
            angle_at(Point(0, 0), Point(3.5e-181, 0), Point(0, 2.8e-263))

    def test_clamps_rounding_noise(self):
        # Nearly-collinear arms whose cosine can exceed 1 by rounding.
        ang = angle_at(Point(0, 0), Point(1e8, 1e-8), Point(2e8, 2e-8))
        assert 0.0 <= ang <= math.pi


class TestPolygonArea:
    def test_unit_square_ccw(self):
        square = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert polygon_area(square) == pytest.approx(1.0)

    def test_clockwise_is_negative(self):
        square = [Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)]
        assert polygon_area(square) == pytest.approx(-1.0)

    def test_triangle(self):
        tri = [Point(0, 0), Point(2, 0), Point(0, 2)]
        assert polygon_area(tri) == pytest.approx(2.0)


class TestAsPoints:
    def test_converts_raw_pairs(self):
        pts = as_points([(1, 2), (3.5, 4.5)])
        assert pts == [Point(1.0, 2.0), Point(3.5, 4.5)]
        assert all(isinstance(p, Point) for p in pts)
