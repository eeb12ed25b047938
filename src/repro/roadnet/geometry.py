"""Planar geometry primitives for road networks.

All coordinates live in a local planar frame measured in metres. The
synthetic cities this package generates are small enough (tens of
kilometres) that a flat-earth approximation is exact for our purposes,
so no geodesic math is needed. Real-world data loaded through
:mod:`repro.roadnet.io` is expected to be pre-projected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the local planar frame, in metres."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        """The point halfway between ``self`` and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def translated(self, dx: float, dy: float) -> "Point":
        """A copy of this point shifted by ``(dx, dy)`` metres."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        """``(x, y)`` tuple form, convenient for numpy interop."""
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """An axis-aligned rectangle, used by the spatial index."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"degenerate bounding box: ({self.min_x}, {self.min_y}) "
                f"to ({self.max_x}, {self.max_y})"
            )

    @classmethod
    def around(cls, points: Iterable[Point], margin: float = 0.0) -> "BoundingBox":
        """The tightest box containing ``points``, grown by ``margin``."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a bounding box around zero points")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return cls(
            min_x=min(xs) - margin,
            min_y=min(ys) - margin,
            max_x=max(xs) + margin,
            max_y=max(ys) + margin,
        )

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside or on the boundary."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """A copy grown by ``margin`` metres on every side."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether the two boxes overlap (boundary contact counts)."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )


def project_onto_segment(point: Point, start: Point, end: Point) -> tuple[Point, float]:
    """Project ``point`` onto the segment ``start``–``end``.

    Returns ``(foot, t)`` where ``foot`` is the closest point on the
    segment and ``t`` in ``[0, 1]`` is its normalised position along the
    segment (0 at ``start``, 1 at ``end``). Degenerate zero-length
    segments project everything onto ``start``.
    """
    dx = end.x - start.x
    dy = end.y - start.y
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        return start, 0.0
    t = ((point.x - start.x) * dx + (point.y - start.y) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return Point(start.x + t * dx, start.y + t * dy), t
