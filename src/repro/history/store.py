"""Columnar historical speed statistics.

The :class:`HistoricalSpeedStore` aggregates training-period speed
fields into per-``(road, bucket)`` statistics — mean, standard
deviation, observation count, and the historical *rise frequency* (how
often the road ran at or above its bucket mean). Everything downstream
is defined relative to these statistics:

* a road's **trend** at an interval is its current speed vs. its bucket
  mean (:meth:`trend_of`);
* its **deviation ratio** is current speed / bucket mean, the quantity
  the Step-2 hierarchical linear model regresses;
* the **trend priors** seed the Step-1 graphical model's node potentials.

Storage is columnar numpy — one ``(num_buckets × num_roads)`` matrix per
statistic — which keeps correlation mining and model fitting vectorised.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import DataError
from repro.core.types import Trend
from repro.history.timebuckets import TimeGrid
from repro.core.field import SpeedField

#: Entries (rows x roads) :meth:`HistoricalSpeedStore.trend_matrix`
#: compares per chunk.
_TREND_CHUNK_ENTRIES = 1 << 18


class HistoricalSpeedStore:
    """Per-(road, bucket) historical statistics plus the raw training data.

    Build with :meth:`from_fields`. The raw concatenated training matrix
    is retained because correlation mining and hierarchical-model
    fitting both need interval-level history, not just aggregates.
    """

    def __init__(
        self,
        grid: TimeGrid,
        road_ids: list[int],
        speeds: np.ndarray,
        intervals: np.ndarray,
    ) -> None:
        if speeds.shape != (len(intervals), len(road_ids)):
            raise DataError(
                f"speed matrix shape {speeds.shape} does not match "
                f"{len(intervals)} intervals x {len(road_ids)} roads"
            )
        if len(intervals) == 0:
            raise DataError("historical store needs at least one interval")
        self._grid = grid
        self._road_ids = list(road_ids)
        self._road_index = {road: i for i, road in enumerate(road_ids)}
        self._speeds = speeds
        self._intervals = intervals
        self._buckets = np.array([grid.bucket_of(int(t)) for t in intervals])
        self._compute_statistics()

    @classmethod
    def from_fields(
        cls, grid: TimeGrid, fields: Sequence[SpeedField]
    ) -> "HistoricalSpeedStore":
        """Build a store from one or more training speed fields.

        All fields must cover the same roads; their interval ranges must
        not overlap.
        """
        if not fields:
            raise DataError("need at least one speed field of history")
        road_ids = fields[0].road_ids
        for field in fields[1:]:
            if field.road_ids != road_ids:
                raise DataError("all history fields must cover the same roads")
        seen: set[int] = set()
        for field in fields:
            overlap = seen.intersection(field.intervals)
            if overlap:
                raise DataError(f"history fields overlap at intervals {sorted(overlap)[:5]}")
            seen.update(field.intervals)
        speeds = np.concatenate([f.matrix for f in fields], axis=0)
        intervals = np.concatenate([np.array(list(f.intervals)) for f in fields])
        order = np.argsort(intervals)
        return cls(grid, road_ids, speeds[order], intervals[order])

    def _compute_statistics(self) -> None:
        num_buckets = self._grid.num_buckets
        num_roads = len(self._road_ids)
        sums = np.zeros((num_buckets, num_roads))
        sumsq = np.zeros((num_buckets, num_roads))
        counts = np.zeros(num_buckets, dtype=np.int64)
        for bucket in range(num_buckets):
            rows = self._buckets == bucket
            counts[bucket] = int(rows.sum())
            if counts[bucket]:
                block = self._speeds[rows]
                sums[bucket] = block.sum(axis=0)
                sumsq[bucket] = (block * block).sum(axis=0)

        self._counts = counts
        with np.errstate(invalid="ignore", divide="ignore"):
            means = sums / counts[:, None]
        # Buckets never observed fall back to the road's overall mean.
        overall = self._speeds.mean(axis=0)
        empty = counts == 0
        means[empty] = overall[None, :]
        self._means = means
        with np.errstate(invalid="ignore", divide="ignore"):
            variances = sumsq / counts[:, None] - means * means
        variances[empty] = 0.0
        self._stds = np.sqrt(np.maximum(variances, 0.0))

        # Rise frequency per (bucket, road): P(speed >= bucket mean).
        rises = np.zeros((num_buckets, num_roads))
        for bucket in range(num_buckets):
            rows = self._buckets == bucket
            if rows.any():
                rises[bucket] = (self._speeds[rows] >= means[bucket]).mean(axis=0)
            else:
                rises[bucket] = 0.5
        self._rise_frequency = rises

    # ------------------------------------------------------------------
    # Identity / shape
    # ------------------------------------------------------------------
    @property
    def grid(self) -> TimeGrid:
        return self._grid

    @property
    def road_ids(self) -> list[int]:
        return list(self._road_ids)

    @property
    def num_roads(self) -> int:
        return len(self._road_ids)

    @property
    def num_training_intervals(self) -> int:
        return len(self._intervals)

    @property
    def training_intervals(self) -> np.ndarray:
        return self._intervals.copy()

    def road_column(self, road_id: int) -> int:
        try:
            return self._road_index[road_id]
        except KeyError:
            raise DataError(f"road {road_id} not in historical store") from None

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def mean(self, road_id: int, bucket: int) -> float:
        """Historical mean speed of ``road_id`` in ``bucket``, km/h."""
        return float(self._means[bucket, self.road_column(road_id)])

    def std(self, road_id: int, bucket: int) -> float:
        """Historical speed standard deviation in ``bucket``."""
        return float(self._stds[bucket, self.road_column(road_id)])

    def bucket_count(self, bucket: int) -> int:
        """Number of training intervals observed for ``bucket``."""
        return int(self._counts[bucket])

    def historical_speed(self, road_id: int, interval: int) -> float:
        """The bucket-mean speed for ``road_id`` at ``interval``."""
        return self.mean(road_id, self._grid.bucket_of(interval))

    def mean_row(self, interval: int) -> np.ndarray:
        """Bucket-mean speeds of every road at ``interval`` (store order)."""
        return self._means[self._grid.bucket_of(interval)].copy()

    def bucket_mean_row(self, bucket: int) -> np.ndarray:
        """Historical mean speeds of every road in ``bucket`` (store order)."""
        if not 0 <= bucket < self._grid.num_buckets:
            raise DataError(
                f"bucket {bucket} outside 0..{self._grid.num_buckets - 1}"
            )
        return self._means[bucket].copy()

    def rise_prior(self, road_id: int, bucket: int) -> float:
        """Historical P(trend == RISE) for the road in this bucket.

        Clipped away from 0/1 so graphical-model potentials stay proper.
        """
        raw = float(self._rise_frequency[bucket, self.road_column(road_id)])
        return min(0.95, max(0.05, raw))

    # ------------------------------------------------------------------
    # Derived per-interval quantities
    # ------------------------------------------------------------------
    def trend_of(self, road_id: int, interval: int, current_kmh: float) -> Trend:
        """The trend of a current speed relative to history."""
        return Trend.from_speeds(current_kmh, self.historical_speed(road_id, interval))

    def deviation_ratio(self, road_id: int, interval: int, current_kmh: float) -> float:
        """current speed / historical bucket mean (1.0 = typical)."""
        historical = self.historical_speed(road_id, interval)
        if historical <= 0:
            raise DataError(f"road {road_id} has non-positive historical mean")
        return current_kmh / historical

    def trend_matrix(self) -> np.ndarray:
        """±1 trends of the whole training history (intervals × roads).

        Row order matches :attr:`training_intervals`. This is the input
        to correlation mining. The int8 result is written in place a
        chunk of rows at a time, so the only temporary is one chunk's
        gathered bucket means (about 2 MB), not a whole-history float
        matrix.
        """
        trends = np.empty(self._speeds.shape, dtype=np.int8)
        step = max(1, _TREND_CHUNK_ENTRIES // max(1, self.num_roads))
        for lo in range(0, len(trends), step):
            rows = slice(lo, lo + step)
            chunk = trends[rows]
            np.greater_equal(
                self._speeds[rows], self._means[self._buckets[rows]], out=chunk
            )
            chunk *= 2
            chunk -= 1
        return trends

    def deviation_matrix(self) -> np.ndarray:
        """Deviation ratios of the training history (intervals × roads)."""
        means = self._means[self._buckets]
        if np.any(means <= 0):
            raise DataError("historical means must be positive")
        return self._speeds / means

    def bucket_rows(self, bucket: int) -> np.ndarray:
        """Boolean mask of training rows belonging to ``bucket``."""
        return self._buckets == bucket

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"HistoricalSpeedStore(roads={self.num_roads}, "
            f"intervals={self.num_training_intervals}, "
            f"buckets={self._grid.num_buckets})"
        )
