"""The rush-hour predicate over fractional hours of the day.

The time-of-day experiment (F6) splits the test period into "rush hour"
and "off peak" intervals; this predicate defines the split once so
every consumer slices time identically.
"""

from __future__ import annotations

#: Rush-hour windows as [start, end) fractional hours.
RUSH_WINDOWS: tuple[tuple[float, float], ...] = ((7.0, 10.0), (17.0, 20.0))


def is_rush_hour(hour: float) -> bool:
    """Whether a fractional hour falls inside a rush window."""
    return any(lo <= hour < hi for lo, hi in RUSH_WINDOWS)
