"""Worker reputation tracking, one of two defences against a bad crowd.

:class:`WorkerHealthTracker` keeps per-worker response and MAD-outlier
rates (an outlier is an answer the platform's one-pass filter,
:func:`~repro.crowd.aggregation.mad_filter_rows`, dropped) and
**quarantines** chronic non-responders and spammers once they
have enough history to be judged. The platform excludes quarantined
workers from task assignment (falling back to the full pool if
quarantine would starve a draw — availability beats purity).

The other defence is :class:`~repro.core.breaker.CircuitBreaker`
(shared with the serving layer), which protects a round against
platform-wide outage: after ``failure_threshold`` consecutive tasks
with zero answers it *opens* and the remaining tasks of the round are
skipped unpaid instead of burning the full retry budget each. The next
round it goes *half-open*: one probe task is posted, and its outcome
decides whether the breaker closes again or re-opens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import CrowdsourcingError

__all__ = [
    "WorkerHealth",
    "WorkerHealthTracker",
]


@dataclass(frozen=True, slots=True)
class WorkerHealth:
    """One worker's accumulated reputation."""

    worker_id: int
    assigned: int
    answered: int
    outliers: int

    @property
    def response_rate(self) -> float:
        return self.answered / self.assigned if self.assigned else 1.0

    @property
    def outlier_rate(self) -> float:
        return self.outliers / self.answered if self.answered else 0.0


class WorkerHealthTracker:
    """Per-worker reputation with quarantine of chronic offenders.

    A worker is quarantined once it has at least ``min_assignments``
    assignments and either its response rate falls below
    ``min_response_rate`` (chronic non-responder) or its MAD-outlier
    rate exceeds ``max_outlier_rate`` (probable spammer).
    """

    def __init__(
        self,
        min_assignments: int = 10,
        min_response_rate: float = 0.3,
        max_outlier_rate: float = 0.5,
    ) -> None:
        if min_assignments < 1:
            raise CrowdsourcingError("min_assignments must be >= 1")
        if not 0.0 <= min_response_rate <= 1.0:
            raise CrowdsourcingError("min_response_rate must be in [0, 1]")
        if not 0.0 < max_outlier_rate <= 1.0:
            raise CrowdsourcingError("max_outlier_rate must be in (0, 1]")
        self._min_assignments = min_assignments
        self._min_response_rate = min_response_rate
        self._max_outlier_rate = max_outlier_rate
        self._assigned: dict[int, int] = {}
        self._answered: dict[int, int] = {}
        self._outliers: dict[int, int] = {}

    def record_assignment(self, worker_id: int, answered: bool) -> None:
        self._assigned[worker_id] = self._assigned.get(worker_id, 0) + 1
        if answered:
            self._answered[worker_id] = self._answered.get(worker_id, 0) + 1

    def record_outlier(self, worker_id: int) -> None:
        self._outliers[worker_id] = self._outliers.get(worker_id, 0) + 1

    def health_of(self, worker_id: int) -> WorkerHealth:
        return WorkerHealth(
            worker_id=worker_id,
            assigned=self._assigned.get(worker_id, 0),
            answered=self._answered.get(worker_id, 0),
            outliers=self._outliers.get(worker_id, 0),
        )

    def snapshot(self) -> dict[int, WorkerHealth]:
        """Health of every worker ever assigned a task."""
        return {wid: self.health_of(wid) for wid in sorted(self._assigned)}

    def is_quarantined(self, worker_id: int) -> bool:
        health = self.health_of(worker_id)
        if health.assigned < self._min_assignments:
            return False
        if health.response_rate < self._min_response_rate:
            return True
        return (
            health.answered >= self._min_assignments // 2
            and health.outlier_rate > self._max_outlier_rate
        )

    def quarantined(self) -> frozenset[int]:
        """Worker ids currently barred from assignment."""
        return frozenset(
            wid for wid in self._assigned if self.is_quarantined(wid)
        )


