"""The budgeted, fault-tolerant crowdsourcing platform.

One :meth:`CrowdsourcingPlatform.collect` call is one crowdsourcing
round: for every seed road it assigns ``workers_per_task`` workers and
gathers their noisy answers against the true speed, then aggregates
every answered task robustly in one array pass, and returns a
:class:`CrowdRound` — the aggregated
:class:`~repro.core.types.CrowdAnswer` per answered task plus a
:class:`~repro.crowd.report.RoundReport` recording what happened to
every task. This is the layer that turns "true speeds of the K seeds"
(what the evaluation needs) into "what the system actually sees"
(noisy, possibly partial aggregates).

The round lifecycle is deliberately non-aborting: a task whose retry
budget runs out is recorded as failed and the round continues, so one
unanswered task can never sink a whole round. A
:class:`~repro.core.breaker.CircuitBreaker` stops paying for tasks
during a platform-wide outage, and an optional
:class:`~repro.crowd.health.WorkerHealthTracker` quarantines chronic
non-responders and spammers from future assignment.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.breaker import BreakerState, CircuitBreaker
from repro.core.errors import CrowdsourcingError
from repro.core.types import CrowdAnswer
from repro.crowd.aggregation import mad_filter_rows
from repro.crowd.health import WorkerHealthTracker
from repro.crowd.report import RoundReport, TaskOutcome, TaskStatus
from repro.crowd.workers import WorkerPool
from repro.obs import get_recorder


@dataclass(frozen=True, slots=True)
class SpeedQueryTask:
    """One crowdsourcing task: report the speed on a road now."""

    road_id: int
    interval: int
    true_speed_kmh: float

    def __post_init__(self) -> None:
        if self.true_speed_kmh < 0:
            raise CrowdsourcingError(
                f"task on road {self.road_id} has negative true speed"
            )


class CrowdRound(Mapping):
    """One round's answers (a road id -> answer mapping) plus its report."""

    def __init__(
        self, answers: dict[int, CrowdAnswer], report: RoundReport
    ) -> None:
        self._answers = dict(answers)
        self.report = report

    @property
    def answers(self) -> dict[int, CrowdAnswer]:
        return dict(self._answers)

    def speeds(self) -> dict[int, float]:
        """road id -> aggregated speed for the answered tasks."""
        return {road: a.speed_kmh for road, a in self._answers.items()}

    def __getitem__(self, road_id: int) -> CrowdAnswer:
        return self._answers[road_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._answers)

    def __len__(self) -> int:
        return len(self._answers)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"CrowdRound(answered={len(self)}, report={self.report!r})"


class CrowdsourcingPlatform:
    """Assigns tasks to workers and aggregates their answers."""

    def __init__(
        self,
        pool: WorkerPool,
        workers_per_task: int = 5,
        cost_per_answer: float = 1.0,
        aggregator: Callable[[list[float]], float] | None = None,
        outlier_threshold: float = 3.0,
        max_postings: int = 10,
        health: WorkerHealthTracker | None = None,
        circuit_breaker: CircuitBreaker | None = None,
    ) -> None:
        if workers_per_task < 1:
            raise CrowdsourcingError("workers_per_task must be >= 1")
        if workers_per_task > pool.size:
            raise CrowdsourcingError(
                f"workers_per_task {workers_per_task} exceeds pool size {pool.size}"
            )
        if cost_per_answer < 0:
            raise CrowdsourcingError("cost per answer must be non-negative")
        if outlier_threshold <= 0:
            raise CrowdsourcingError("outlier_threshold must be positive")
        if max_postings < 1:
            raise CrowdsourcingError("max_postings must be >= 1")
        self._pool = pool
        self._workers_per_task = workers_per_task
        self._cost_per_answer = cost_per_answer
        # The same threshold drives the default MAD filter and the
        # worker-attribution mask fed to the health tracker, so a worker
        # is blamed for an outlier iff its answer was dropped. A custom
        # aggregator runs per answered task; callers supplying one should
        # pass the threshold (if any) it filters with.
        self._outlier_threshold = outlier_threshold
        self._aggregator = aggregator
        self._max_postings = max_postings
        self._health = health
        self._breaker = circuit_breaker
        self.total_cost = 0.0
        self.total_answers = 0
        self.last_report: RoundReport | None = None

    @property
    def health(self) -> WorkerHealthTracker | None:
        return self._health

    @property
    def circuit_breaker(self) -> CircuitBreaker | None:
        return self._breaker

    # ------------------------------------------------------------------
    # Posting and settling tasks
    # ------------------------------------------------------------------
    def _post(
        self,
        task: SpeedQueryTask,
        rng: np.random.Generator,
        quarantined: frozenset[int],
    ) -> tuple[TaskStatus, int, list[tuple[int, float]]]:
        """Post one task with a capped retry budget; never raises.

        Returns the task's status, its postings and the (worker id,
        answer) pairs delivered. Aggregation, blame and payment happen
        later in :meth:`_settle`, so a round filters all its answers at
        once.
        """
        dropped = getattr(self._pool, "task_dropped", None)
        if dropped is not None and dropped(task.road_id):
            return TaskStatus.DROPPED, 0, []
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
        status = TaskStatus.ANSWERED if by_worker else TaskStatus.NO_RESPONSE
        return status, postings, by_worker

    def _settle(
        self, answered: list[tuple[SpeedQueryTask, int, list[tuple[int, float]]]]
    ) -> list[tuple[TaskOutcome, CrowdAnswer]]:
        """Aggregate, blame and pay for answered tasks in one pass.

        ``answered`` holds (task, postings, (worker id, answer) pairs)
        per task. One :func:`~repro.crowd.aggregation.mad_filter_rows`
        call filters every task's answers; a worker is blamed for an
        outlier iff its answer was dropped. Only delivered answers are
        paid for.
        """
        rows = [[value for _, value in by_worker] for _, _, by_worker in answered]
        means, outliers = mad_filter_rows(rows, self._outlier_threshold)
        if self._health is not None:
            for i, j in zip(*np.nonzero(outliers)):
                self._health.record_outlier(answered[i][2][j][0])
        num_outliers = outliers.sum(axis=1).tolist()
        settled = []
        for (task, postings, _), answers, mean, flagged in zip(
            answered, rows, means, num_outliers
        ):
            cost = len(answers) * self._cost_per_answer
            self.total_cost += cost
            self.total_answers += len(answers)
            outcome = TaskOutcome(
                road_id=task.road_id,
                status=TaskStatus.ANSWERED,
                postings=postings,
                num_answers=len(answers),
                num_outliers=flagged,
                cost=cost,
            )
            answer = CrowdAnswer(
                road_id=task.road_id,
                interval=task.interval,
                speed_kmh=(
                    mean if self._aggregator is None else self._aggregator(answers)
                ),
                num_workers=len(answers),
                cost=cost,
            )
            settled.append((outcome, answer))
        return settled

    def collect_one(
        self, task: SpeedQueryTask, rng: np.random.Generator
    ) -> CrowdAnswer:
        """Run one task in isolation; raises if nobody ever answers.

        The round path (:meth:`collect`) records such failures instead
        of raising; this strict variant serves callers that need exactly
        one answer.
        """
        quarantined = (
            self._health.quarantined() if self._health is not None else frozenset()
        )
        status, postings, by_worker = self._post(task, rng, quarantined)
        if status is not TaskStatus.ANSWERED:
            raise CrowdsourcingError(
                f"no worker answered the task on road {task.road_id} "
                f"after {postings} postings"
            )
        return self._settle([(task, postings, by_worker)])[0][1]

    # ------------------------------------------------------------------
    # Round path
    # ------------------------------------------------------------------
    def collect(self, tasks: list[SpeedQueryTask], seed: int) -> CrowdRound:
        """Run a full round; never raises mid-round.

        Every task terminates in exactly one
        :class:`~repro.crowd.report.TaskOutcome`: answered, no-response
        (retry budget exhausted), dropped in transit, or skipped because
        the circuit breaker opened. An empty task list is a legal empty
        round — the scheduler's light rounds may shrink to zero
        sentinels.
        """
        recorder = get_recorder()
        if not tasks:
            # Empty rounds still count: advance the pool's scenario
            # clock and the breaker so fault windows expressed in round
            # indices stay aligned with the platform's round sequence.
            self._pool.begin_round(None)
            if self._breaker is not None:
                self._breaker.begin_round()
            report = RoundReport.empty()
            self.last_report = report
            recorder.count("crowd.rounds", kind="empty")
            return CrowdRound({}, report)
        roads = [t.road_id for t in tasks]
        if len(set(roads)) != len(roads):
            raise CrowdsourcingError("duplicate roads in one round")
        intervals = {t.interval for t in tasks}
        if len(intervals) > 1:
            raise CrowdsourcingError(
                f"tasks in one round must share one interval, got {sorted(intervals)}"
            )
        interval = tasks[0].interval
        rng = np.random.default_rng(seed)
        with recorder.span(
            "crowd.round", interval=interval, tasks=len(tasks)
        ) as span:
            self._pool.begin_round(interval)
            breaker_state_before = (
                self._breaker.state if self._breaker is not None else None
            )
            if self._breaker is not None:
                self._breaker.begin_round()
            quarantined = (
                self._health.quarantined()
                if self._health is not None
                else frozenset()
            )

            # Outcome slots of answered tasks stay None until _settle.
            outcomes: list[TaskOutcome | None] = []
            answered: list[tuple[SpeedQueryTask, int, list[tuple[int, float]]]] = []
            tripped = False
            for task in tasks:
                if self._breaker is not None and not self._breaker.allow():
                    outcomes.append(
                        TaskOutcome(
                            task.road_id,
                            TaskStatus.SKIPPED_CIRCUIT_OPEN,
                            0,
                            0,
                            0,
                            0.0,
                        )
                    )
                    continue
                status, postings, by_worker = self._post(task, rng, quarantined)
                if status is TaskStatus.ANSWERED:
                    outcomes.append(None)
                    answered.append((task, postings, by_worker))
                else:
                    outcomes.append(
                        TaskOutcome(task.road_id, status, postings, 0, 0, 0.0)
                    )
                if self._breaker is not None:
                    if status is TaskStatus.ANSWERED:
                        self._breaker.record_success()
                    elif status is TaskStatus.NO_RESPONSE:
                        self._breaker.record_failure()
                        tripped = (
                            tripped
                            or self._breaker.state is BreakerState.OPEN
                        )
                    elif status is TaskStatus.DROPPED:
                        # Lost in transit before any worker saw it — no
                        # verdict on platform health; re-arm a spent probe.
                        self._breaker.record_inconclusive()
            # The quarantine set was frozen above, so blaming workers
            # after every draw leaves the draws unchanged.
            with recorder.span(
                "crowd.aggregate",
                answers=sum(len(by_worker) for _, _, by_worker in answered),
            ):
                settled = iter(self._settle(answered))
            answers: dict[int, CrowdAnswer] = {}
            for slot, outcome in enumerate(outcomes):
                if outcome is None:
                    outcome, answer = next(settled)
                    outcomes[slot] = outcome
                    answers[answer.road_id] = answer
            report = RoundReport(
                interval=interval,
                outcomes=tuple(outcomes),
                circuit_tripped=tripped,
                quarantined_workers=tuple(sorted(quarantined)),
            )
            span.set(
                answered=len(report.answered_roads),
                failed=len(report.failed_roads),
                tripped=tripped,
            )
        self.last_report = report
        self._record_report(recorder, report, breaker_state_before, tripped)
        return CrowdRound(answers, report)

    def _record_report(
        self,
        recorder,
        report: RoundReport,
        breaker_state_before: BreakerState | None,
        tripped: bool,
    ) -> None:
        """Wire one round's :class:`RoundReport` into the metrics registry."""
        recorder.count("crowd.rounds", kind="full")
        for outcome in report.outcomes:
            recorder.count("crowd.tasks", status=outcome.status.value)
        recorder.count("crowd.answers", report.total_answers)
        recorder.count("crowd.postings", report.total_postings)
        recorder.count("crowd.cost", report.total_cost)
        recorder.count(
            "crowd.outliers", sum(o.num_outliers for o in report.outcomes)
        )
        recorder.gauge(
            "crowd.quarantined_workers", len(report.quarantined_workers)
        )
        if tripped:
            recorder.count("crowd.breaker.trips")
        if self._breaker is not None:
            state_after = self._breaker.state
            recorder.gauge(
                "crowd.breaker.open", 1.0 if state_after is BreakerState.OPEN else 0.0
            )
            if breaker_state_before is not None and state_after is not breaker_state_before:
                recorder.count(
                    "crowd.breaker.transitions",
                    from_state=breaker_state_before.value,
                    to_state=state_after.value,
                )

    def collect_speeds(
        self,
        interval: int,
        true_speeds: dict[int, float],
        seed: int,
    ) -> dict[int, float]:
        """Convenience: seed road -> aggregated crowd speed for a round.

        Failed tasks are simply absent from the result; consult
        :attr:`last_report` for their outcomes.
        """
        tasks = [
            SpeedQueryTask(road, interval, speed)
            for road, speed in sorted(true_speeds.items())
        ]
        return self.collect(tasks, seed).speeds()
