"""Dataset assembly: the two synthetic cities standing in for the paper's
Beijing and Tianjin taxi-GPS datasets.

A :class:`TrafficDataset` bundles everything an experiment needs: the
road network, the time grid, the ground-truth simulator, a training
history (used to build the store, correlation graph and models) and a
held-out test period (the "live" days the methods are scored on, which
no model ever sees during fitting).

Builders are deterministic and cached — every test and benchmark in the
repository sees the identical datasets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.history.correlation import CorrelationGraph, mine_correlation_graph
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.roadnet.generators import (
    grid_city,
    ring_radial_city,
    sized_grid,
    sized_metropolis,
)
from repro.roadnet.network import RoadNetwork
from repro.traffic.events import CongestionEvent
from repro.traffic.simulator import TrafficSimulator


@dataclass(frozen=True)
class TrafficDataset:
    """A complete, self-consistent experiment dataset."""

    name: str
    network: RoadNetwork
    grid: TimeGrid
    simulator: TrafficSimulator
    history: SpeedField
    test: SpeedField
    store: HistoricalSpeedStore
    graph: CorrelationGraph
    test_events: tuple[CongestionEvent, ...]
    history_days: int
    test_days: int

    @property
    def first_test_day(self) -> int:
        return self.history_days

    def test_day_intervals(self, day_offset: int = 0, stride: int = 1) -> list[int]:
        """Intervals of the ``day_offset``-th test day, optionally strided."""
        if not 0 <= day_offset < self.test_days:
            raise DataError(
                f"test day offset {day_offset} outside 0..{self.test_days - 1}"
            )
        day = self.first_test_day + day_offset
        return list(self.grid.day_range(day))[::stride]

    def describe(self) -> dict[str, object]:
        """Summary statistics — the rows of the dataset table (T1)."""
        return {
            "name": self.name,
            "intersections": self.network.num_intersections,
            "roads": self.network.num_segments,
            "total_km": round(self.network.total_length_km(), 1),
            "road_classes": self.network.class_counts(),
            "interval_minutes": self.grid.interval_minutes,
            "history_days": self.history_days,
            "test_days": self.test_days,
            "history_intervals": self.store.num_training_intervals,
            "correlation_edges": self.graph.num_edges,
            "correlation_avg_degree": round(self.graph.average_degree(), 2),
        }


def build_dataset(
    name: str,
    network: RoadNetwork,
    history_days: int = 21,
    test_days: int = 2,
    interval_minutes: int = 15,
    seed: int = 0,
    max_hops: int = 2,
    min_agreement: float = 0.6,
) -> TrafficDataset:
    """Simulate history + test days and mine the correlation graph.

    The history and test periods use different RNG streams (derived from
    ``seed``), so test days contain genuinely unseen regional states,
    day offsets and events.
    """
    if history_days < 1 or test_days < 1:
        raise DataError("need at least one history day and one test day")
    grid = TimeGrid(interval_minutes)
    simulator = TrafficSimulator(network, grid)
    history, _history_events = simulator.simulate(0, history_days, seed=seed)
    test, test_events = simulator.simulate(
        history_days, test_days, seed=seed + 1_000_003
    )
    store = HistoricalSpeedStore.from_fields(grid, [history])
    graph = mine_correlation_graph(
        network, store, max_hops=max_hops, min_agreement=min_agreement
    )
    return TrafficDataset(
        name=name,
        network=network,
        grid=grid,
        simulator=simulator,
        history=history,
        test=test,
        store=store,
        graph=graph,
        test_events=tuple(test_events),
        history_days=history_days,
        test_days=test_days,
    )


@functools.lru_cache(maxsize=None)
def synthetic_beijing() -> TrafficDataset:
    """The larger grid-style city (528 directed roads), Beijing's stand-in."""
    return build_dataset(
        "synthetic-beijing",
        grid_city(rows=12, cols=12, block_m=400.0, arterial_every=4),
        history_days=21,
        test_days=2,
        seed=20160516,  # the paper's publication date, for flavour
    )


@functools.lru_cache(maxsize=None)
def synthetic_tianjin() -> TrafficDataset:
    """The smaller ring-radial city (240 directed roads), Tianjin's stand-in."""
    return build_dataset(
        "synthetic-tianjin",
        ring_radial_city(rings=5, spokes=12, ring_spacing_m=700.0),
        history_days=21,
        test_days=2,
        seed=7498298,  # the paper's DOI suffix, for flavour
    )


@functools.lru_cache(maxsize=None)
def scaled_dataset(num_roads_target: int, history_days: int = 10) -> TrafficDataset:
    """A grid dataset sized for scalability sweeps (F3/F8)."""
    network = sized_grid(num_roads_target)
    return build_dataset(
        network.name,
        network,
        history_days=history_days,
        test_days=1,
        seed=num_roads_target,
    )


@functools.lru_cache(maxsize=None)
def metropolitan_dataset(
    num_roads_target: int = 50_000, history_days: int = 5
) -> TrafficDataset:
    """A metropolitan-scale district-city dataset (F8 at 50k+ roads).

    Districts are stitched 12×12 grids (:func:`sized_metropolis`), so
    the correlation graph has the sparse cross-district structure the
    partitioned selection/inference layers exploit. History is kept
    short (simulation dominates build time at this scale); one test day
    is plenty for a latency benchmark.
    """
    network = sized_metropolis(num_roads_target)
    return build_dataset(
        network.name,
        network,
        history_days=history_days,
        test_days=1,
        seed=num_roads_target,
    )
