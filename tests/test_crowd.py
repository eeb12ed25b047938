"""Unit tests for the crowdsourcing substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CrowdsourcingError
from repro.crowd.aggregation import (
    mad_filtered_mean,
    mean_aggregate,
)
from repro.crowd.platform import CrowdsourcingPlatform, SpeedQueryTask
from repro.crowd.workers import Worker, WorkerPool, WorkerPoolParams


class TestWorker:
    def test_honest_worker_near_truth(self):
        worker = Worker(0, noise_std_frac=0.05, bias_frac=0.0, reliability=1.0)
        rng = np.random.default_rng(1)
        answers = [worker.answer(50.0, rng) for _ in range(300)]
        assert np.mean(answers) == pytest.approx(50.0, rel=0.03)

    def test_biased_worker_shifts(self):
        worker = Worker(0, noise_std_frac=0.01, bias_frac=0.2, reliability=1.0)
        rng = np.random.default_rng(1)
        answers = [worker.answer(50.0, rng) for _ in range(200)]
        assert np.mean(answers) == pytest.approx(60.0, rel=0.05)

    def test_unreliable_worker_sometimes_silent(self):
        worker = Worker(0, noise_std_frac=0.05, bias_frac=0.0, reliability=0.5)
        rng = np.random.default_rng(1)
        answers = [worker.answer(50.0, rng) for _ in range(200)]
        silent = sum(1 for a in answers if a is None)
        assert 50 < silent < 150

    def test_spammer_uninformative(self):
        worker = Worker(0, 0.0, 0.0, reliability=1.0, is_spammer=True)
        rng = np.random.default_rng(1)
        answers = [worker.answer(50.0, rng) for _ in range(300)]
        assert np.std(answers) > 20

    def test_answers_never_negative(self):
        worker = Worker(0, noise_std_frac=2.0, bias_frac=-1.5, reliability=1.0)
        rng = np.random.default_rng(1)
        assert all(worker.answer(10.0, rng) >= 0.5 for _ in range(100))

    def test_validation(self):
        with pytest.raises(CrowdsourcingError):
            Worker(0, noise_std_frac=-0.1, bias_frac=0, reliability=1.0)
        with pytest.raises(CrowdsourcingError):
            Worker(0, noise_std_frac=0.1, bias_frac=0, reliability=1.5)


class TestWorkerPool:
    def test_sample_deterministic(self):
        a = WorkerPool.sample(20, seed=5)
        b = WorkerPool.sample(20, seed=5)
        assert [w.noise_std_frac for w in a.workers()] == [
            w.noise_std_frac for w in b.workers()
        ]

    def test_spammer_fraction_respected(self):
        pool = WorkerPool.sample(
            500, WorkerPoolParams(spammer_fraction=0.1), seed=1
        )
        spammers = sum(1 for w in pool.workers() if w.is_spammer)
        assert 20 < spammers < 90

    def test_draw_distinct(self):
        pool = WorkerPool.sample(10, seed=1)
        drawn = pool.draw(5, np.random.default_rng(0))
        assert len({w.worker_id for w in drawn}) == 5

    def test_draw_too_many(self):
        pool = WorkerPool.sample(3, seed=1)
        with pytest.raises(CrowdsourcingError):
            pool.draw(4, np.random.default_rng(0))

    def test_validation(self):
        with pytest.raises(CrowdsourcingError):
            WorkerPool([])
        with pytest.raises(CrowdsourcingError):
            WorkerPool.sample(0)
        with pytest.raises(CrowdsourcingError):
            WorkerPoolParams(spammer_fraction=0.6)


class TestAggregation:
    def test_mean(self):
        assert mean_aggregate([10, 20, 30]) == 20

    def test_mad_filters_spam(self):
        answers = [30.0, 31.0, 29.0, 30.5, 95.0]
        assert mad_filtered_mean(answers) == pytest.approx(30.125)

    def test_mad_identical_answers(self):
        assert mad_filtered_mean([42.0] * 5) == 42.0

    def test_empty_rejected(self):
        for agg in (mean_aggregate, mad_filtered_mean):
            with pytest.raises(CrowdsourcingError):
                agg([])

    def test_negative_rejected(self):
        with pytest.raises(CrowdsourcingError):
            mean_aggregate([-1.0])

    def test_bad_threshold(self):
        with pytest.raises(CrowdsourcingError):
            mad_filtered_mean([1.0, 2.0], threshold=0)

    @settings(max_examples=50, deadline=None)
    @given(
        honest=st.lists(
            st.floats(min_value=25, max_value=35), min_size=5, max_size=15
        ),
        spam=st.lists(
            st.floats(min_value=80, max_value=100), min_size=0, max_size=2
        ),
    )
    def test_mad_mean_bounded_by_honest_range(self, honest, spam):
        """Property: minority spam cannot drag the estimate outside the
        honest answers' range."""
        result = mad_filtered_mean(honest + spam)
        assert min(honest) - 1e-9 <= result <= max(honest) + 15


class TestPlatform:
    @pytest.fixture
    def platform(self):
        return CrowdsourcingPlatform(
            WorkerPool.sample(50, seed=2), workers_per_task=7
        )

    def test_collect_accuracy(self, platform):
        tasks = [SpeedQueryTask(r, 0, 40.0) for r in range(20)]
        answers = platform.collect(tasks, seed=1)
        errors = [abs(a.speed_kmh - 40.0) for a in answers.values()]
        assert np.mean(errors) < 4.0

    def test_collect_accounting(self, platform):
        tasks = [SpeedQueryTask(r, 0, 40.0) for r in range(5)]
        answers = platform.collect(tasks, seed=1)
        assert platform.total_answers == sum(
            a.num_workers for a in answers.values()
        )
        assert platform.total_cost == sum(a.cost for a in answers.values())

    def test_duplicate_roads_rejected(self, platform):
        tasks = [SpeedQueryTask(1, 0, 40.0), SpeedQueryTask(1, 0, 41.0)]
        with pytest.raises(CrowdsourcingError):
            platform.collect(tasks, seed=1)

    def test_mixed_interval_round_rejected(self, platform):
        """One round is one interval: a task list spanning two intervals
        would silently mislabel the RoundReport, so it is rejected."""
        tasks = [SpeedQueryTask(1, 0, 40.0), SpeedQueryTask(2, 1, 40.0)]
        with pytest.raises(CrowdsourcingError):
            platform.collect(tasks, seed=1)

    def test_outlier_threshold_shared_with_aggregator(self):
        """The platform's outlier_threshold drives both the default
        aggregator's spam filter and the attribution mask fed to the
        health tracker: with an enormous threshold nothing is flagged
        as an outlier and nothing is filtered from the aggregate."""
        params = WorkerPoolParams(spammer_fraction=0.3)
        tasks = [SpeedQueryTask(r, 0, 40.0) for r in range(8)]
        strict = CrowdsourcingPlatform(
            WorkerPool.sample(40, params, seed=3), workers_per_task=7
        )
        lax = CrowdsourcingPlatform(
            WorkerPool.sample(40, params, seed=3),
            workers_per_task=7,
            outlier_threshold=1e6,
        )
        strict_round = strict.collect(tasks, seed=5)
        lax_round = lax.collect(tasks, seed=5)
        assert sum(o.num_outliers for o in strict_round.report.outcomes) > 0
        assert all(o.num_outliers == 0 for o in lax_round.report.outcomes)
        # The threshold reaches the aggregator too: unfiltered spam
        # shifts at least one task's aggregate.
        assert any(
            strict_round[r].speed_kmh != lax_round[r].speed_kmh
            for r in strict_round
        )
        with pytest.raises(CrowdsourcingError):
            CrowdsourcingPlatform(
                WorkerPool.sample(5, seed=1),
                workers_per_task=2,
                outlier_threshold=0,
            )

    def test_empty_round_is_legal(self, platform):
        """Light rounds may shrink to zero sentinels: an empty task list
        yields an empty round with an empty report, not an exception."""
        round_ = platform.collect([], seed=1)
        assert len(round_) == 0
        assert round_.report.num_tasks == 0
        assert round_.report.success_rate == 1.0
        assert not round_.report.is_degraded
        assert platform.last_report is round_.report

    def test_collect_speeds_convenience(self, platform):
        speeds = platform.collect_speeds(5, {1: 30.0, 2: 60.0}, seed=3)
        assert set(speeds) == {1, 2}
        assert abs(speeds[1] - 30.0) < 10
        assert abs(speeds[2] - 60.0) < 15

    def test_deterministic_given_seed(self, platform):
        a = platform.collect_speeds(0, {1: 30.0}, seed=9)
        b = platform.collect_speeds(0, {1: 30.0}, seed=9)
        assert a == b

    def test_construction_validation(self):
        pool = WorkerPool.sample(5, seed=1)
        with pytest.raises(CrowdsourcingError):
            CrowdsourcingPlatform(pool, workers_per_task=0)
        with pytest.raises(CrowdsourcingError):
            CrowdsourcingPlatform(pool, workers_per_task=10)
        with pytest.raises(CrowdsourcingError):
            CrowdsourcingPlatform(pool, cost_per_answer=-1)

    def test_unreliable_pool_still_answers(self):
        lazy_pool = WorkerPool(
            [Worker(i, 0.05, 0.0, reliability=0.3) for i in range(10)]
        )
        platform = CrowdsourcingPlatform(lazy_pool, workers_per_task=3)
        answer = platform.collect_one(
            SpeedQueryTask(1, 0, 40.0), np.random.default_rng(0)
        )
        assert answer.num_workers >= 1

    def test_round_never_raises_on_dead_pool(self):
        """A fully silent pool exhausts each task's retry budget and the
        round completes with per-task NO_RESPONSE outcomes."""
        dead = WorkerPool(
            [Worker(i, 0.05, 0.0, reliability=0.0) for i in range(10)]
        )
        platform = CrowdsourcingPlatform(
            dead, workers_per_task=3, max_postings=4
        )
        tasks = [SpeedQueryTask(r, 0, 40.0) for r in range(3)]
        round_ = platform.collect(tasks, seed=1)
        assert len(round_) == 0
        assert round_.report.failed_roads == (0, 1, 2)
        assert round_.report.is_degraded
        assert all(o.postings == 4 for o in round_.report.outcomes)
        assert platform.total_cost == 0.0

    def test_report_accounts_every_task(self, platform):
        tasks = [SpeedQueryTask(r, 3, 40.0) for r in range(6)]
        round_ = platform.collect(tasks, seed=2)
        report = round_.report
        assert report.interval == 3
        assert report.num_tasks == 6
        assert set(report.answered_roads) == set(round_)
        assert report.total_cost == pytest.approx(platform.total_cost)
        outcome = report.outcome_for(2)
        assert outcome.num_answers == round_[2].num_workers
        with pytest.raises(CrowdsourcingError):
            report.outcome_for(999)
