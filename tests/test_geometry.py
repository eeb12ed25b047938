"""Unit tests for planar geometry primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.roadnet.geometry import (
    BoundingBox,
    Point,
    project_onto_segment,
)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_to_self_is_zero(self):
        assert Point(7.5, -2.0).distance_to(Point(7.5, -2.0)) == 0.0

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(10, 4)) == Point(5, 2)

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)

    @given(coords, coords, coords, coords)
    def test_distance_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(coords, coords, coords, coords, coords, coords)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


class TestBoundingBox:
    def test_around_points(self):
        box = BoundingBox.around([Point(0, 0), Point(10, 5), Point(3, -2)])
        assert box == BoundingBox(0, -2, 10, 5)

    def test_around_with_margin(self):
        box = BoundingBox.around([Point(0, 0)], margin=5)
        assert box == BoundingBox(-5, -5, 5, 5)

    def test_around_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.around([])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 0, 10)

    def test_contains_boundary(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains(Point(0, 0))
        assert box.contains(Point(10, 10))
        assert not box.contains(Point(10.001, 5))

    def test_dimensions_and_center(self):
        box = BoundingBox(0, 0, 10, 4)
        assert box.width == 10
        assert box.height == 4
        assert box.center == Point(5, 2)

    def test_expanded(self):
        assert BoundingBox(0, 0, 1, 1).expanded(1) == BoundingBox(-1, -1, 2, 2)

    def test_intersects(self):
        a = BoundingBox(0, 0, 10, 10)
        assert a.intersects(BoundingBox(5, 5, 15, 15))
        assert a.intersects(BoundingBox(10, 10, 20, 20))  # corner touch
        assert not a.intersects(BoundingBox(11, 11, 20, 20))


class TestProjection:
    def test_projects_inside(self):
        foot, t = project_onto_segment(Point(5, 3), Point(0, 0), Point(10, 0))
        assert foot == Point(5, 0)
        assert t == 0.5

    def test_clamps_before_start(self):
        foot, t = project_onto_segment(Point(-5, 3), Point(0, 0), Point(10, 0))
        assert foot == Point(0, 0)
        assert t == 0.0

    def test_clamps_after_end(self):
        foot, t = project_onto_segment(Point(15, 3), Point(0, 0), Point(10, 0))
        assert foot == Point(10, 0)
        assert t == 1.0

    def test_zero_length_segment(self):
        foot, t = project_onto_segment(Point(5, 5), Point(1, 1), Point(1, 1))
        assert foot == Point(1, 1)
        assert t == 0.0

    def test_distance_perpendicular(self):
        foot, _ = project_onto_segment(Point(5, 3), Point(0, 0), Point(10, 0))
        assert Point(5, 3).distance_to(foot) == 3.0

    @given(coords, coords)
    def test_projection_distance_never_exceeds_endpoint_distance(self, x, y):
        p = Point(x, y)
        a, b = Point(0, 0), Point(100, 0)
        foot, _ = project_onto_segment(p, a, b)
        d = p.distance_to(foot)
        assert d <= p.distance_to(a) + 1e-6
        assert d <= p.distance_to(b) + 1e-6
