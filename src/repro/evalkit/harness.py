"""The experiment harness: run any method over test intervals and score it.

Every benchmark drives this one code path, so methods are compared on
identical seeds, identical intervals and identical scoring. A "method"
is anything with ``estimate_interval(interval, seed_speeds) ->
dict[road, float]`` — all baselines natively, and the two-step estimator
through :class:`TwoStepMethod`, which also exposes its trend posteriors
for trend scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clock import get_clock
from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.core.types import Trend
from repro.evalkit.metrics import SpeedErrors, TrendMetrics, speed_errors, trend_metrics
from repro.obs import get_recorder
from repro.history.store import HistoricalSpeedStore
from repro.speed.estimator import TwoStepEstimator


class TwoStepMethod:
    """Adapter giving :class:`TwoStepEstimator` the baseline interface."""

    name = "two-step"

    def __init__(self, estimator: TwoStepEstimator, name: str = "two-step") -> None:
        self._estimator = estimator
        self.name = name
        self.last_trends: dict[int, Trend] = {}

    def estimate_interval(
        self, interval: int, seed_speeds: dict[int, float]
    ) -> dict[int, float]:
        estimates = self._estimator.estimate_interval(interval, seed_speeds)
        self.last_trends = {
            road: est.trend for road, est in estimates.items() if not est.is_seed
        }
        return {road: est.speed_kmh for road, est in estimates.items()}


@dataclass(frozen=True)
class EvaluationResult:
    """Scores of one method over one run of test intervals."""

    method: str
    speed: SpeedErrors
    trend: TrendMetrics | None
    wall_time_s: float
    num_intervals: int

    @property
    def mae(self) -> float:
        return self.speed.mae


@dataclass
class Evaluation:
    """One evaluation setting, reusable across methods.

    Scoring covers **non-seed roads only** (seeds are observed, not
    estimated) across every interval in ``intervals``. An optional crowd
    platform perturbs the seed observations; without one the methods see
    true seed speeds (the noiseless protocol most of the paper's
    experiments use).
    """

    truth: SpeedField
    store: HistoricalSpeedStore
    seeds: list[int]
    intervals: list[int]
    crowd_platform: object | None = None
    crowd_seed: int = 0
    scored_roads: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.seeds:
            raise DataError("evaluation needs a non-empty seed set")
        if not self.intervals:
            raise DataError("evaluation needs test intervals")
        truth_roads = set(self.truth.road_ids)
        for seed in self.seeds:
            if seed not in truth_roads:
                raise DataError(f"seed road {seed} not in the truth field")
        if not self.scored_roads:
            seed_set = set(self.seeds)
            self.scored_roads = [
                road for road in self.truth.road_ids if road not in seed_set
            ]

    def seed_speeds_at(self, interval: int) -> dict[int, float]:
        """What the method sees: true or crowd-perturbed seed speeds."""
        true_speeds = {
            road: self.truth.speed(road, interval) for road in self.seeds
        }
        if self.crowd_platform is None:
            return true_speeds
        return self.crowd_platform.collect_speeds(
            interval, true_speeds, seed=self.crowd_seed + interval
        )

    def run(self, method) -> EvaluationResult:
        """Evaluate one method over all intervals."""
        all_estimates: list[float] = []
        all_truths: list[float] = []
        predicted_trends: list[Trend] = []
        actual_trends: list[Trend] = []
        collects_trends = isinstance(method, TwoStepMethod)

        clock = get_clock()
        start = clock.monotonic()
        with get_recorder().span(
            "evalkit.run",
            method=method.name,
            intervals=len(self.intervals),
            seeds=len(self.seeds),
        ):
            for interval in self.intervals:
                seed_speeds = self.seed_speeds_at(interval)
                estimates = method.estimate_interval(interval, seed_speeds)
                for road in self.scored_roads:
                    estimate = estimates.get(road)
                    if estimate is None:
                        raise DataError(
                            f"{method.name} produced no estimate for road {road}"
                        )
                    true_speed = self.truth.speed(road, interval)
                    all_estimates.append(estimate)
                    all_truths.append(true_speed)
                    actual = self.store.trend_of(road, interval, true_speed)
                    actual_trends.append(actual)
                    if collects_trends:
                        predicted_trends.append(method.last_trends[road])
                    else:
                        predicted_trends.append(
                            self.store.trend_of(road, interval, estimate)
                        )
        elapsed = clock.monotonic() - start
        get_recorder().observe(
            "evalkit.run_seconds", elapsed, method=method.name
        )

        return EvaluationResult(
            method=method.name,
            speed=speed_errors(all_estimates, all_truths),
            trend=trend_metrics(predicted_trends, actual_trends),
            wall_time_s=elapsed,
            num_intervals=len(self.intervals),
        )

    def run_all(self, methods: list) -> list[EvaluationResult]:
        """Evaluate several methods under identical conditions."""
        return [self.run(method) for method in methods]
