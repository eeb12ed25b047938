"""Unit tests for metrics, reporting and the evaluation harness."""

import pytest

from repro.baselines.historical import HistoricalAverageBaseline
from repro.core.errors import DataError
from repro.core.types import Trend
from repro.evalkit.harness import Evaluation, TwoStepMethod
from repro.evalkit.metrics import (
    improvement_percent,
    speed_errors,
    trend_metrics,
)
from repro.evalkit.reporting import fmt, fmt_pct, fmt_speedup, format_table
from repro.speed.estimator import TwoStepEstimator


class TestSpeedErrors:
    def test_known_values(self):
        errors = speed_errors([10.0, 20.0], [12.0, 16.0])
        assert errors.mae == pytest.approx(3.0)
        assert errors.rmse == pytest.approx((0.5 * (4 + 16)) ** 0.5)
        assert errors.mape == pytest.approx(0.5 * (2 / 12 + 4 / 16))
        assert errors.count == 2

    def test_perfect(self):
        errors = speed_errors([5.0], [5.0])
        assert errors.mae == 0.0
        assert errors.rmse == 0.0

    def test_mape_floors_denominator(self):
        errors = speed_errors([1.0], [0.1])
        assert errors.mape == pytest.approx(0.9)  # / max(0.1, 1)

    def test_validation(self):
        with pytest.raises(DataError):
            speed_errors([1.0], [1.0, 2.0])
        with pytest.raises(DataError):
            speed_errors([], [])

    def test_str(self):
        assert "MAE" in str(speed_errors([1.0], [2.0]))


class TestTrendMetrics:
    def test_perfect(self):
        m = trend_metrics([Trend.RISE, Trend.FALL], [Trend.RISE, Trend.FALL])
        assert m.accuracy == 1.0
        assert m.fall_f1 == 1.0

    def test_confusion_arithmetic(self):
        predicted = [Trend.FALL, Trend.FALL, Trend.RISE, Trend.RISE]
        actual = [Trend.FALL, Trend.RISE, Trend.FALL, Trend.RISE]
        m = trend_metrics(predicted, actual)
        assert m.accuracy == 0.5
        assert m.fall_precision == 0.5
        assert m.fall_recall == 0.5

    def test_no_falls_predicted(self):
        m = trend_metrics([Trend.RISE, Trend.RISE], [Trend.FALL, Trend.RISE])
        assert m.fall_precision == 0.0
        assert m.fall_recall == 0.0
        assert m.fall_f1 == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            trend_metrics([], [])
        with pytest.raises(DataError):
            trend_metrics([Trend.RISE], [])


class TestImprovement:
    def test_positive_when_better(self):
        assert improvement_percent(6.0, 10.0) == pytest.approx(40.0)

    def test_negative_when_worse(self):
        assert improvement_percent(12.0, 10.0) == pytest.approx(-20.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(DataError):
            improvement_percent(1.0, 0.0)


class TestReporting:
    def test_aligned_table(self):
        table = format_table(
            ["method", "mae"], [["two-step", "2.09"], ["ha", "3.71"]],
            title="T2",
        )
        lines = table.splitlines()
        assert lines[0] == "T2"
        assert lines[1].startswith("method")
        assert len(lines) == 5  # title, header, rule, two rows

    def test_row_width_validation(self):
        with pytest.raises(DataError):
            format_table(["a", "b"], [["only-one"]])
        with pytest.raises(DataError):
            format_table([], [])

    def test_formatters(self):
        assert fmt(3.14159, 2) == "3.14"
        assert fmt_pct(42.123) == "42.1%"
        assert fmt_speedup(113.25) == "113.2x"


class TestEvaluation:
    @pytest.fixture(scope="class")
    def evaluation(self, small_dataset):
        seeds = small_dataset.network.road_ids()[::12][:8]
        return Evaluation(
            truth=small_dataset.test,
            store=small_dataset.store,
            seeds=seeds,
            intervals=small_dataset.test_day_intervals(stride=16),
        )

    def test_scored_roads_exclude_seeds(self, evaluation):
        assert not set(evaluation.seeds) & set(evaluation.scored_roads)

    def test_run_baseline(self, small_dataset, evaluation):
        result = evaluation.run(HistoricalAverageBaseline(small_dataset.store))
        assert result.method == "historical-average"
        assert result.speed.count == len(evaluation.scored_roads) * len(
            evaluation.intervals
        )
        assert result.trend is not None
        assert result.wall_time_s > 0

    def test_run_two_step_collects_trends(self, small_dataset, evaluation):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        method = TwoStepMethod(estimator)
        result = evaluation.run(method)
        assert result.trend.count == result.speed.count
        assert method.last_trends  # populated during the run

    def test_crowd_noise_optional(self, small_dataset):
        from repro.crowd.platform import CrowdsourcingPlatform
        from repro.crowd.workers import WorkerPool

        seeds = small_dataset.network.road_ids()[:5]
        noisy = Evaluation(
            truth=small_dataset.test,
            store=small_dataset.store,
            seeds=seeds,
            intervals=small_dataset.test_day_intervals(stride=32),
            crowd_platform=CrowdsourcingPlatform(
                WorkerPool.sample(30, seed=1), workers_per_task=5
            ),
        )
        interval = noisy.intervals[0]
        observed = noisy.seed_speeds_at(interval)
        true = {r: small_dataset.test.speed(r, interval) for r in seeds}
        assert observed != true  # perturbed
        assert all(abs(observed[r] - true[r]) < 20 for r in seeds)

    def test_validation(self, small_dataset):
        with pytest.raises(DataError):
            Evaluation(small_dataset.test, small_dataset.store, [], [0])
        with pytest.raises(DataError):
            Evaluation(small_dataset.test, small_dataset.store, [0], [])
        with pytest.raises(DataError):
            Evaluation(small_dataset.test, small_dataset.store, [10**7], [0])
