"""Tests for the end-to-end SpeedEstimationSystem."""

import gc
import weakref

import pytest

from repro.core.config import PipelineConfig
from repro.core.errors import ConfigError, SelectionError
from repro.core.pipeline import SpeedEstimationSystem
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.workers import WorkerPool
from repro.history.timebuckets import TimeGrid


@pytest.fixture(scope="module")
def system(small_dataset):
    return SpeedEstimationSystem.from_parts(
        small_dataset.network, small_dataset.store, small_dataset.graph
    )


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.selection_method == "lazy"
        assert config.inference_method == "propagation"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"selection_method": "magic"},
            {"inference_method": "oracle"},
            {"correlation_max_hops": 0},
            {"correlation_min_agreement": 0.4},
            {"num_partitions": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)


class TestFit:
    def test_fit_from_history(self, small_dataset):
        system = SpeedEstimationSystem.fit(
            small_dataset.network,
            small_dataset.grid,
            [small_dataset.history],
        )
        assert system.graph.num_edges > 0
        assert system.store.num_training_intervals == 7 * 96

    def test_grid_mismatch_rejected(self, small_dataset):
        with pytest.raises(ConfigError):
            SpeedEstimationSystem.fit(
                small_dataset.network,
                TimeGrid(30),
                [small_dataset.history],
                PipelineConfig(interval_minutes=15),
            )


class TestSelection:
    def test_select_records_seeds(self, system):
        seeds = system.select_seeds(6)
        assert len(seeds) == 6
        assert system.seeds == seeds
        assert system.selection is not None
        assert system.selection.method == "lazy-greedy"

    @pytest.mark.parametrize(
        "method", ["greedy", "lazy", "partition", "random", "top-degree", "k-center"]
    )
    def test_all_methods_run(self, system, method):
        seeds = system.select_seeds(4, method=method)
        assert len(seeds) == 4

    def test_unknown_method_rejected(self, system):
        with pytest.raises(SelectionError):
            system.select_seeds(4, method="sorcery")

    @pytest.mark.parametrize("budget", [0, -3])
    def test_non_positive_budget_rejected(self, system, budget):
        with pytest.raises(SelectionError, match="budget"):
            system.select_seeds(budget)

    def test_oversized_budget_rejected(self, system, small_dataset):
        too_many = len(small_dataset.graph.road_ids) + 1
        with pytest.raises(SelectionError, match="exceeds"):
            system.select_seeds(too_many)


class TestEstimation:
    def test_estimate_round(self, system, small_dataset):
        seeds = system.select_seeds(8)
        interval = small_dataset.test_day_intervals()[40]
        truth = {r: small_dataset.test.speed(r, interval) for r in seeds}
        estimates = system.estimate(interval, truth)
        assert len(estimates) == small_dataset.network.num_segments

    def test_run_round_with_crowd(self, system, small_dataset):
        system.select_seeds(8)
        platform = CrowdsourcingPlatform(
            WorkerPool.sample(30, seed=4), workers_per_task=5
        )
        interval = small_dataset.test_day_intervals()[40]
        estimates = system.run_round(
            interval, small_dataset.test, platform, crowd_seed=1
        )
        assert len(estimates) == small_dataset.network.num_segments
        assert platform.total_cost > 0
        seed_estimates = [e for e in estimates.values() if e.is_seed]
        assert len(seed_estimates) == 8

    def test_run_round_outcome_carries_report(self, system, small_dataset):
        seeds = system.select_seeds(8)
        platform = CrowdsourcingPlatform(
            WorkerPool.sample(30, seed=4), workers_per_task=5
        )
        interval = small_dataset.test_day_intervals()[40]
        outcome = system.run_round(
            interval, small_dataset.test, platform, crowd_seed=1
        )
        assert outcome.report.interval == interval
        assert set(outcome.report.answered_roads) == set(seeds)
        assert set(outcome.observed) == set(seeds)
        assert not outcome.degraded
        assert outcome.substituted == {}

    def test_run_round_degrades_when_crowd_fails(self, system, small_dataset):
        from repro.crowd.workers import Worker

        seeds = system.select_seeds(8)
        dead = CrowdsourcingPlatform(
            WorkerPool([Worker(i, 0.05, 0.0, 0.0) for i in range(10)]),
            workers_per_task=3,
            max_postings=2,
        )
        interval = small_dataset.test_day_intervals()[40]
        outcome = system.run_round(interval, small_dataset.test, dead)
        assert outcome.degraded
        assert set(outcome.substituted) == set(seeds)
        assert len(outcome) == small_dataset.network.num_segments
        for road in seeds:
            assert outcome[road].degraded

    def test_run_round_requires_selection(self, small_dataset):
        fresh = SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        platform = CrowdsourcingPlatform(
            WorkerPool.sample(10, seed=1), workers_per_task=3
        )
        with pytest.raises(SelectionError, match="select_seeds"):
            fresh.run_round(0, small_dataset.test, platform)

    @pytest.mark.parametrize("inference", ["propagation", "bp"])
    def test_inference_methods(self, small_dataset, inference):
        system = SpeedEstimationSystem.from_parts(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            PipelineConfig(inference_method=inference),
        )
        seeds = system.select_seeds(5)
        interval = small_dataset.test_day_intervals()[30]
        truth = {r: small_dataset.test.speed(r, interval) for r in seeds}
        estimates = system.estimate(interval, truth)
        assert len(estimates) == small_dataset.network.num_segments


class TestRelease:
    def test_dropped_system_is_freed_without_the_cycle_collector(
        self, small_dataset
    ):
        """A system, its estimator and its compiled plans form no
        reference cycle, so dropping the last reference frees their rows
        and plans at once instead of at the collector's next full pass."""
        interval = small_dataset.test_day_intervals()[40]
        gc.collect()
        gc.disable()
        try:
            with SpeedEstimationSystem.from_parts(
                small_dataset.network, small_dataset.store, small_dataset.graph
            ) as system:
                seeds = system.select_seeds(6)
                truth = {r: small_dataset.test.speed(r, interval) for r in seeds}
                system.estimate(interval, truth)
            released = [weakref.ref(system), weakref.ref(system.estimator)]
            del system
            assert [ref() for ref in released] == [None, None]
        finally:
            gc.enable()
