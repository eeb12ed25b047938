"""Tests for npz persistence of fields, stores and graphs."""

import numpy as np
import pytest

from repro.core.errors import DataError
from repro.history.persistence import (
    load_field,
    load_graph,
    load_store,
    save_field,
    save_graph,
    save_store,
)


class TestFieldRoundTrip:
    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "field.npz"
        save_field(small_dataset.test, path)
        restored = load_field(path)
        assert restored.road_ids == small_dataset.test.road_ids
        assert restored.intervals == small_dataset.test.intervals
        assert np.array_equal(restored.matrix, small_dataset.test.matrix)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            load_field(tmp_path / "absent.npz")

    def test_not_a_field_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(DataError, match="format marker"):
            load_field(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz at all")
        with pytest.raises(DataError, match="cannot read"):
            load_field(path)


class TestStoreRoundTrip:
    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "store.npz"
        store = small_dataset.store
        save_store(store, path)
        restored = load_store(path)
        assert restored.road_ids == store.road_ids
        assert restored.num_training_intervals == store.num_training_intervals
        assert restored.grid.interval_minutes == store.grid.interval_minutes
        road = store.road_ids[5]
        for bucket in (0, 34, 80):
            assert restored.mean(road, bucket) == pytest.approx(
                store.mean(road, bucket)
            )
            assert restored.std(road, bucket) == pytest.approx(
                store.std(road, bucket)
            )
            assert restored.rise_prior(road, bucket) == pytest.approx(
                store.rise_prior(road, bucket)
            )

    def test_weekend_grid_preserved(self, small_network, tmp_path):
        from repro.history.store import HistoricalSpeedStore
        from repro.history.timebuckets import TimeGrid
        from repro.traffic.simulator import TrafficSimulator

        grid = TimeGrid(30, distinguish_weekend=True)
        field, _ = TrafficSimulator(small_network, grid).simulate(0, 7, seed=1)
        store = HistoricalSpeedStore.from_fields(grid, [field])
        path = tmp_path / "store.npz"
        save_store(store, path)
        restored = load_store(path)
        assert restored.grid.distinguish_weekend
        assert restored.grid.interval_minutes == 30


class TestGraphRoundTrip:
    def test_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "graph.npz"
        graph = small_dataset.graph
        save_graph(graph, path)
        restored = load_graph(path)
        assert restored.road_ids == graph.road_ids
        assert restored.num_edges == graph.num_edges
        for edge in list(graph.edges())[:50]:
            assert restored.agreement(edge.road_u, edge.road_v) == (
                pytest.approx(edge.agreement)
            )

    @pytest.mark.parametrize(
        "road_ids, edges",
        [
            ([], []),
            ([3, 1, 2], []),
            (
                [-(2**40), -7, 0, 5, 2**40],
                [
                    (2**40, -7, 0.1 + 0.2),
                    (-(2**40), 0, 1.0),
                    (0, 5, 0.5),
                    (-7, 5, 2 / 3),
                ],
            ),
        ],
        ids=["no-roads", "no-edges", "extreme-ids"],
    )
    def test_round_trip_keeps_arrays_bitwise(
        self, road_ids, edges, tmp_path, monkeypatch
    ):
        from repro.history.correlation import CorrelationEdge, CorrelationGraph

        road_u, road_v, agreement = (
            np.array(column, dtype=dtype)
            for column, dtype in zip(
                zip(*edges) if edges else ([], [], []),
                (np.int64, np.int64, np.float64),
            )
        )
        graph = CorrelationGraph.from_arrays(road_ids, road_u, road_v, agreement)
        built = []
        post_init = CorrelationEdge.__post_init__
        monkeypatch.setattr(
            CorrelationEdge,
            "__post_init__",
            lambda edge: built.append(edge) or post_init(edge),
        )
        path = tmp_path / "graph.npz"
        save_graph(graph, path)
        restored = load_graph(path)
        assert built == []  # no per-edge objects either way
        assert restored.road_ids == graph.road_ids == sorted(road_ids)
        for mine, theirs in zip(restored.edge_arrays(), graph.edge_arrays()):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()

    def test_loaded_graph_drives_pipeline(self, small_dataset, tmp_path):
        """A persisted world restores into a working system."""
        from repro.core.pipeline import SpeedEstimationSystem

        store_path = tmp_path / "store.npz"
        graph_path = tmp_path / "graph.npz"
        save_store(small_dataset.store, store_path)
        save_graph(small_dataset.graph, graph_path)

        system = SpeedEstimationSystem.from_parts(
            small_dataset.network, load_store(store_path), load_graph(graph_path)
        )
        seeds = system.select_seeds(6)
        interval = small_dataset.test_day_intervals()[30]
        truth = small_dataset.test.speeds_at(interval)
        estimates = system.estimate(interval, {r: truth[r] for r in seeds})
        assert len(estimates) == small_dataset.network.num_segments

        # And it matches the in-memory system exactly.
        reference = SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        reference.select_seeds(6)
        assert reference.seeds == seeds
