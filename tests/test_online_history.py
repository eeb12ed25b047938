"""Tests for the rolling-window online history."""

import numpy as np
import pytest

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.history.online import RollingHistory
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.traffic.simulator import TrafficSimulator
from tests.oracles.history import BatchRollingHistory


@pytest.fixture(scope="module")
def day_fields(small_network):
    grid = TimeGrid(15)
    sim = TrafficSimulator(small_network, grid)
    field, _ = sim.simulate(0, 10, seed=77)
    days = []
    for day in range(10):
        rows = slice(day * 96, (day + 1) * 96)
        days.append(
            SpeedField(field.matrix[rows], field.road_ids, day * 96)
        )
    return grid, days


class TestIngestion:
    def test_empty_state_raises(self, small_network, grid15):
        rolling = RollingHistory(small_network, grid15)
        with pytest.raises(DataError):
            rolling.store
        with pytest.raises(DataError):
            rolling.graph
        assert rolling.newest_day is None

    def test_single_day(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid, window_days=5)
        rolling.ingest_day(days[0])
        assert rolling.num_days == 1
        assert rolling.newest_day == 0
        assert rolling.store.num_training_intervals == 96
        assert rolling.graph.num_roads == small_network.num_segments

    def test_window_eviction(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid, window_days=3)
        for day in days[:6]:
            rolling.ingest_day(day)
        assert rolling.num_days == 3
        assert rolling.is_full
        assert rolling.oldest_day == 3
        assert rolling.newest_day == 5
        assert rolling.store.num_training_intervals == 3 * 96

    def test_store_matches_batch_build(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid, window_days=4)
        for day in days[:4]:
            rolling.ingest_day(day)
        batch = HistoricalSpeedStore.from_fields(grid, days[:4])
        road = small_network.road_ids()[7]
        for bucket in (0, 34, 80):
            assert rolling.store.mean(road, bucket) == pytest.approx(
                batch.mean(road, bucket)
            )

    def test_partial_day_rejected(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid)
        half = SpeedField(days[0].matrix[:48], days[0].road_ids, 0)
        with pytest.raises(DataError, match="exactly one day"):
            rolling.ingest_day(half)

    def test_misaligned_day_rejected(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid)
        shifted = SpeedField(days[0].matrix, days[0].road_ids, 10)
        with pytest.raises(DataError, match="midnight"):
            rolling.ingest_day(shifted)

    def test_gap_rejected(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid)
        rolling.ingest_day(days[0])
        with pytest.raises(DataError, match="non-contiguous"):
            rolling.ingest_day(days[2])

    def test_road_set_change_rejected(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid)
        rolling.ingest_day(days[0])
        fewer = SpeedField(
            days[1].matrix[:, :-1], days[1].road_ids[:-1], days[1].intervals.start
        )
        with pytest.raises(DataError, match="different roads"):
            rolling.ingest_day(fewer)

    def test_validation(self, small_network, grid15):
        with pytest.raises(DataError):
            RollingHistory(small_network, grid15, window_days=0)
        with pytest.raises(DataError):
            RollingHistory(small_network, grid15, remine_every_days=0)


class TestMiningCadence:
    def test_remine_rate_limited(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(
            small_network, grid, window_days=10, remine_every_days=3
        )
        rolling.ingest_day(days[0])
        first_graph = rolling.graph
        assert rolling.mining_epoch == 1
        rolling.ingest_day(days[1])
        rolling.ingest_day(days[2])
        assert rolling.mining_epoch == 1  # not yet due
        rolling.ingest_day(days[3])
        assert rolling.mining_epoch == 2  # 3 days elapsed
        # Incremental mining patches the same graph object in place.
        assert rolling.graph is first_graph
        rolling.verify_incremental()

    def test_remine_rate_limited_batch_mode(self, small_network, day_fields):
        """The batch oracle keeps the fresh-object-per-remine shape."""
        grid, days = day_fields
        rolling = BatchRollingHistory(
            small_network, grid, window_days=10, remine_every_days=3
        )
        rolling.ingest_day(days[0])
        first_graph = rolling.graph
        rolling.ingest_day(days[1])
        rolling.ingest_day(days[2])
        assert rolling.graph is first_graph  # not yet due
        rolling.ingest_day(days[3])
        assert rolling.graph is not first_graph  # 3 days elapsed

    def test_force_remine(self, small_network, day_fields):
        grid, days = day_fields
        rolling = RollingHistory(
            small_network, grid, window_days=10, remine_every_days=99
        )
        rolling.ingest_day(days[0])
        stale_epoch = rolling.mining_epoch
        rolling.ingest_day(days[1])
        fresh = rolling.force_remine()
        assert rolling.mining_epoch == stale_epoch + 1
        assert rolling.graph is fresh
        rolling.verify_incremental()

    def test_first_day_unknown_roads_rejected(self, small_network, day_fields):
        """Day one is validated against the network, not just day two+."""
        grid, days = day_fields
        rolling = RollingHistory(small_network, grid)
        bogus_ids = list(days[0].road_ids)
        bogus_ids[-1] = 999_999
        bogus = SpeedField(days[0].matrix, tuple(bogus_ids), 0)
        with pytest.raises(DataError, match="not in the network"):
            rolling.ingest_day(bogus)
        # The rejected day must not have been retained.
        assert rolling.num_days == 0
        rolling.ingest_day(days[0])
        assert rolling.num_days == 1

    def test_rolling_feeds_estimator(self, small_network, day_fields):
        """The rolling artefacts plug straight into the pipeline."""
        from repro.core.pipeline import SpeedEstimationSystem

        grid, days = day_fields
        rolling = RollingHistory(small_network, grid, window_days=7)
        for day in days[:7]:
            rolling.ingest_day(day)
        system = SpeedEstimationSystem.from_parts(
            small_network, rolling.store, rolling.graph
        )
        seeds = system.select_seeds(8)
        live = days[7]
        ours, ha = [], []
        for interval in list(live.intervals)[8::12]:
            crowd = {r: live.speed(r, interval) for r in seeds}
            estimates = system.estimate(interval, crowd)
            assert len(estimates) == small_network.num_segments
            truth = live.speeds_at(interval)
            for road in small_network.road_ids():
                if road in crowd:
                    continue
                ours.append(abs(estimates[road].speed_kmh - truth[road]))
                ha.append(
                    abs(rolling.store.historical_speed(road, interval) - truth[road])
                )
        assert np.mean(ours) < np.mean(ha)
