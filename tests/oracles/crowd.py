"""The per-task crowd aggregation the one-pass round filter replaced.

:class:`PerTaskPlatform` runs a round the original way: every answered
task is filtered on its own, right after its draws, by
:func:`mad_outlier_mask` (which workers to blame) and
:func:`per_task_filtered_mean` (the served speed), each with its own
``np.median`` calls. Both use the one cutoff
``threshold * (MAD_SCALE * mad)``, so a worker is blamed iff its answer
was dropped. The simulation (draws, answers, retries, breaker and
health bookkeeping) is the production code's, step for step.
"""

from __future__ import annotations

import numpy as np

from repro.core.breaker import BreakerState
from repro.core.errors import CrowdsourcingError
from repro.core.types import CrowdAnswer
from repro.crowd.aggregation import MAD_SCALE
from repro.crowd.platform import CrowdRound, CrowdsourcingPlatform, SpeedQueryTask
from repro.crowd.report import RoundReport, TaskOutcome, TaskStatus
from repro.obs import get_recorder


def _median_and_mad(answers: list[float]) -> tuple[np.ndarray, float, float]:
    values = np.asarray(answers, dtype=np.float64)
    med = np.median(values)
    return values, med, np.median(np.abs(values - med))


def mad_outlier_mask(answers: list[float], threshold: float = 3.0) -> list[bool]:
    """Which answers are further than ``threshold`` scaled MADs from the
    median: the answers :func:`per_task_filtered_mean` drops."""
    if not answers:
        return []
    if threshold <= 0:
        raise CrowdsourcingError("MAD threshold must be positive")
    values, med, mad = _median_and_mad(answers)
    if mad == 0.0:
        return [False] * len(answers)
    cutoff = threshold * (MAD_SCALE * mad)
    return [bool(d > cutoff) for d in np.abs(values - med)]


def per_task_filtered_mean(answers: list[float], threshold: float = 3.0) -> float:
    """Mean of the answers within ``threshold`` scaled MADs of the median;
    the median when the MAD is zero or nothing is kept."""
    if not answers:
        raise CrowdsourcingError("cannot aggregate zero answers")
    if threshold <= 0:
        raise CrowdsourcingError("MAD threshold must be positive")
    values, med, mad = _median_and_mad(answers)
    if mad == 0.0:
        return float(med)
    kept = values[np.abs(values - med) <= threshold * (MAD_SCALE * mad)]
    if kept.size == 0:
        return float(med)
    return float(kept.mean())


class PerTaskPlatform(CrowdsourcingPlatform):
    """A :class:`CrowdsourcingPlatform` that aggregates task by task."""

    def _run_task(
        self,
        task: SpeedQueryTask,
        rng: np.random.Generator,
        quarantined: frozenset[int],
    ) -> tuple[TaskOutcome, CrowdAnswer | None]:
        dropped = getattr(self._pool, "task_dropped", None)
        if dropped is not None and dropped(task.road_id):
            return (
                TaskOutcome(task.road_id, TaskStatus.DROPPED, 0, 0, 0, 0.0),
                None,
            )
        by_worker: list[tuple[int, float]] = []
        postings = 0
        while not by_worker and postings < self._max_postings:
            postings += 1
            for worker in self._pool.draw(
                self._workers_per_task, rng, exclude=quarantined
            ):
                answer = worker.answer(task.true_speed_kmh, rng)
                if self._health is not None:
                    self._health.record_assignment(
                        worker.worker_id, answer is not None
                    )
                if answer is not None:
                    by_worker.append((worker.worker_id, answer))
        if not by_worker:
            return (
                TaskOutcome(
                    task.road_id, TaskStatus.NO_RESPONSE, postings, 0, 0, 0.0
                ),
                None,
            )
        answers = [value for _, value in by_worker]
        outliers = mad_outlier_mask(answers, self._outlier_threshold)
        if self._health is not None:
            for (worker_id, _), is_outlier in zip(by_worker, outliers):
                if is_outlier:
                    self._health.record_outlier(worker_id)
        cost = len(answers) * self._cost_per_answer
        self.total_cost += cost
        self.total_answers += len(answers)
        outcome = TaskOutcome(
            road_id=task.road_id,
            status=TaskStatus.ANSWERED,
            postings=postings,
            num_answers=len(answers),
            num_outliers=sum(outliers),
            cost=cost,
        )
        aggregate = self._aggregator or (
            lambda values: per_task_filtered_mean(values, self._outlier_threshold)
        )
        answer = CrowdAnswer(
            road_id=task.road_id,
            interval=task.interval,
            speed_kmh=aggregate(answers),
            num_workers=len(answers),
            cost=cost,
        )
        return outcome, answer

    def collect(self, tasks: list[SpeedQueryTask], seed: int) -> CrowdRound:
        recorder = get_recorder()
        if not tasks:
            self._pool.begin_round(None)
            if self._breaker is not None:
                self._breaker.begin_round()
            report = RoundReport.empty()
            self.last_report = report
            return CrowdRound({}, report)
        interval = tasks[0].interval
        rng = np.random.default_rng(seed)
        self._pool.begin_round(interval)
        breaker_state_before = (
            self._breaker.state if self._breaker is not None else None
        )
        if self._breaker is not None:
            self._breaker.begin_round()
        quarantined = (
            self._health.quarantined() if self._health is not None else frozenset()
        )
        answers: dict[int, CrowdAnswer] = {}
        outcomes: list[TaskOutcome] = []
        tripped = False
        for task in tasks:
            if self._breaker is not None and not self._breaker.allow():
                outcomes.append(
                    TaskOutcome(
                        task.road_id, TaskStatus.SKIPPED_CIRCUIT_OPEN, 0, 0, 0, 0.0
                    )
                )
                continue
            outcome, answer = self._run_task(task, rng, quarantined)
            outcomes.append(outcome)
            if answer is not None:
                answers[task.road_id] = answer
            if self._breaker is not None:
                if outcome.status is TaskStatus.ANSWERED:
                    self._breaker.record_success()
                elif outcome.status is TaskStatus.NO_RESPONSE:
                    self._breaker.record_failure()
                    tripped = tripped or self._breaker.state is BreakerState.OPEN
                elif outcome.status is TaskStatus.DROPPED:
                    self._breaker.record_inconclusive()
        report = RoundReport(
            interval=interval,
            outcomes=tuple(outcomes),
            circuit_tripped=tripped,
            quarantined_workers=tuple(sorted(quarantined)),
        )
        self.last_report = report
        self._record_report(recorder, report, breaker_state_before, tripped)
        return CrowdRound(answers, report)
