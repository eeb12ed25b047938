"""Unit tests for the historical speed store."""

import numpy as np
import pytest

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.core.types import Trend
from repro.history import store as store_module
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid


@pytest.fixture(scope="module")
def store(small_dataset):
    return small_dataset.store


class TestConstruction:
    def test_from_fields_shape(self, small_dataset, store):
        assert store.num_roads == small_dataset.network.num_segments
        assert store.num_training_intervals == 7 * 96

    def test_empty_fields_rejected(self, grid15):
        with pytest.raises(DataError):
            HistoricalSpeedStore.from_fields(grid15, [])

    def test_mismatched_roads_rejected(self, grid15):
        a = SpeedField(np.ones((96, 2)) * 30, [1, 2], 0)
        b = SpeedField(np.ones((96, 3)) * 30, [1, 2, 3], 96)
        with pytest.raises(DataError, match="same roads"):
            HistoricalSpeedStore.from_fields(grid15, [a, b])

    def test_overlapping_fields_rejected(self, grid15):
        a = SpeedField(np.ones((96, 2)) * 30, [1, 2], 0)
        b = SpeedField(np.ones((96, 2)) * 30, [1, 2], 48)
        with pytest.raises(DataError, match="overlap"):
            HistoricalSpeedStore.from_fields(grid15, [a, b])

    def test_multiple_fields_concatenate(self, grid15):
        a = SpeedField(np.full((96, 1), 30.0), [7], 0)
        b = SpeedField(np.full((96, 1), 40.0), [7], 96)
        merged = HistoricalSpeedStore.from_fields(grid15, [b, a])  # any order
        assert merged.num_training_intervals == 192
        assert merged.mean(7, 0) == pytest.approx(35.0)

    def test_shape_mismatch_rejected(self, grid15):
        with pytest.raises(DataError):
            HistoricalSpeedStore(grid15, [1, 2], np.ones((5, 3)), np.arange(5))


class TestStatistics:
    def test_mean_matches_manual(self, small_dataset, store):
        road = small_dataset.network.road_ids()[3]
        series = small_dataset.history.series(road)
        bucket = 34
        manual = series.reshape(7, 96)[:, bucket].mean()
        assert store.mean(road, bucket) == pytest.approx(manual)

    def test_std_matches_manual(self, small_dataset, store):
        road = small_dataset.network.road_ids()[3]
        series = small_dataset.history.series(road)
        bucket = 70
        manual = series.reshape(7, 96)[:, bucket].std()
        assert store.std(road, bucket) == pytest.approx(manual, abs=1e-9)

    def test_bucket_count(self, store):
        assert store.bucket_count(0) == 7

    def test_historical_speed_uses_bucket(self, store, grid15):
        road = store.road_ids[0]
        assert store.historical_speed(road, 10) == store.mean(road, 10)
        assert store.historical_speed(road, 96 + 10) == store.mean(road, 10)

    def test_mean_row_order(self, store):
        row = store.mean_row(34)
        for i, road in enumerate(store.road_ids[:5]):
            assert row[i] == store.mean(road, 34)

    def test_rise_prior_clipped(self, store):
        for road in store.road_ids[:10]:
            for bucket in (0, 34, 68):
                assert 0.05 <= store.rise_prior(road, bucket) <= 0.95

    def test_unknown_road_raises(self, store):
        with pytest.raises(DataError):
            store.mean(999999, 0)


class TestDerived:
    def test_trend_definition(self, store):
        road = store.road_ids[0]
        mean = store.historical_speed(road, 50)
        assert store.trend_of(road, 50, mean + 1) is Trend.RISE
        assert store.trend_of(road, 50, mean) is Trend.RISE  # tie -> RISE
        assert store.trend_of(road, 50, mean - 1) is Trend.FALL

    def test_deviation_ratio(self, store):
        road = store.road_ids[0]
        mean = store.historical_speed(road, 50)
        assert store.deviation_ratio(road, 50, mean) == pytest.approx(1.0)
        assert store.deviation_ratio(road, 50, mean * 1.2) == pytest.approx(1.2)

    def test_trend_matrix_consistent_with_trend_of(self, small_dataset, store):
        trends = store.trend_matrix()
        road = store.road_ids[4]
        col = store.road_column(road)
        for row, interval in enumerate(store.training_intervals[:20]):
            speed = small_dataset.history.speed(road, int(interval))
            expected = store.trend_of(road, int(interval), speed)
            assert trends[row, col] == int(expected)

    def test_deviation_matrix_mean_near_one(self, store):
        deviations = store.deviation_matrix()
        assert deviations.mean() == pytest.approx(1.0, abs=0.02)

    def test_trend_matrix_is_signs(self, store):
        trends = store.trend_matrix()
        assert set(np.unique(trends)) <= {-1, 1}

    @pytest.mark.parametrize("rows_per_chunk", [1, 5, 1 << 20])
    def test_trend_matrix_bitwise_equals_the_whole_matrix_expression(
        self, store, rows_per_chunk, monkeypatch
    ):
        """Chunked int8 writes equal the float gather and ``np.where`` they
        replace: one row per chunk, a partial last chunk, one chunk."""
        assert store.num_training_intervals % 5
        monkeypatch.setattr(
            store_module, "_TREND_CHUNK_ENTRIES", rows_per_chunk * store.num_roads
        )
        means = store._means[store._buckets]
        expected = np.where(store._speeds >= means, 1, -1).astype(np.int8)
        trends = store.trend_matrix()
        assert trends.dtype == np.int8
        assert trends.tobytes() == expected.tobytes()

    def test_bucket_rows_partition(self, store, grid15):
        total = sum(store.bucket_rows(b).sum() for b in range(grid15.num_buckets))
        assert total == store.num_training_intervals
