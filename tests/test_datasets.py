"""Unit tests for dataset assembly and interval selectors."""

import numpy as np
import pytest

from repro.core.errors import DataError
from repro.datasets.splits import is_rush_hour
from repro.datasets.synthetic import (
    build_dataset,
    metropolitan_dataset,
    scaled_dataset,
)


class TestBuildDataset:
    def test_fields_consistent(self, small_dataset):
        assert small_dataset.history.intervals.stop == (
            small_dataset.test.intervals.start
        )
        assert small_dataset.store.num_training_intervals == len(
            small_dataset.history.intervals
        )
        assert set(small_dataset.graph.road_ids) == set(
            small_dataset.network.road_ids()
        )

    def test_test_days_unseen(self, small_dataset):
        """History and test fields differ (different RNG streams)."""
        hist_day = small_dataset.history.matrix[:96]
        test_day = small_dataset.test.matrix[:96]
        assert not np.allclose(hist_day, test_day)

    def test_describe_keys(self, small_dataset):
        info = small_dataset.describe()
        assert info["roads"] == small_dataset.network.num_segments
        assert info["history_days"] == 7
        assert "correlation_edges" in info

    def test_test_day_intervals(self, small_dataset):
        intervals = small_dataset.test_day_intervals()
        assert len(intervals) == 96
        assert intervals[0] == 7 * 96
        strided = small_dataset.test_day_intervals(stride=4)
        assert len(strided) == 24

    def test_bad_day_offset(self, small_dataset):
        with pytest.raises(DataError):
            small_dataset.test_day_intervals(day_offset=5)

    def test_validation(self, small_network):
        with pytest.raises(DataError):
            build_dataset("x", small_network, history_days=0)

    def test_deterministic(self, small_network):
        a = build_dataset("a", small_network, history_days=2, seed=3)
        b = build_dataset("b", small_network, history_days=2, seed=3)
        assert np.array_equal(a.history.matrix, b.history.matrix)
        assert np.array_equal(a.test.matrix, b.test.matrix)

    def test_scaled_dataset_cached(self):
        a = scaled_dataset(60, history_days=2)
        b = scaled_dataset(60, history_days=2)
        assert a is b
        assert a.network.num_segments >= 60

    def test_metropolitan_dataset_cached_and_sized(self):
        # Smallest metro (one 12x12 district) keeps tier-1 fast; the
        # full 50k+ configuration runs in the F8 benchmark instead.
        a = metropolitan_dataset(528, history_days=2)
        b = metropolitan_dataset(528, history_days=2)
        assert a is b
        assert a.network.num_segments >= 528
        assert a.history.matrix.shape[1] == a.network.num_segments


class TestSplits:
    def test_is_rush_hour(self):
        assert is_rush_hour(8.0)
        assert is_rush_hour(18.5)
        assert not is_rush_hour(12.0)
        assert not is_rush_hour(3.0)

    def test_rush_duration(self, small_dataset):
        rush = [
            t
            for t in small_dataset.test_day_intervals()
            if is_rush_hour(small_dataset.grid.hour_of(t))
        ]
        # 6 rush hours at 4 intervals/hour.
        assert len(rush) == 24
