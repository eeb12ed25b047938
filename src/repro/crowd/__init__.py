"""Crowdsourcing substrate: workers, aggregation, budgeted platform,
round reporting, worker health and the adaptive scheduler."""

from repro.crowd.aggregation import (
    mad_filter_rows,
    mad_filtered_mean,
    mean_aggregate,
)
from repro.core.breaker import BreakerState, CircuitBreaker
from repro.crowd.health import WorkerHealth, WorkerHealthTracker
from repro.crowd.platform import CrowdRound, CrowdsourcingPlatform, SpeedQueryTask
from repro.crowd.report import RoundReport, TaskOutcome, TaskStatus
from repro.crowd.scheduler import AdaptiveBudgetScheduler, RoundPlan
from repro.crowd.workers import Worker, WorkerPool, WorkerPoolParams

__all__ = [
    "AdaptiveBudgetScheduler",
    "BreakerState",
    "CircuitBreaker",
    "CrowdRound",
    "CrowdsourcingPlatform",
    "RoundPlan",
    "RoundReport",
    "SpeedQueryTask",
    "TaskOutcome",
    "TaskStatus",
    "Worker",
    "WorkerHealth",
    "WorkerHealthTracker",
    "WorkerPool",
    "WorkerPoolParams",
    "mad_filter_rows",
    "mad_filtered_mean",
    "mean_aggregate",
]
