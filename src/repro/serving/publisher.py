"""The write path: supervised rounds that end in an atomic publish.

:class:`SnapshotPublisher` runs the same round
:class:`~repro.core.pipeline.SpeedEstimationSystem.run_round` does, but
decomposed into watchdog-supervised stages (``collect``, ``estimate``)
so a hung or failing stage is retried with backoff and a blown round
deadline *cancels the round* instead of wedging the serving path — the
:class:`~repro.serving.store.EstimateStore` keeps answering from the
previous snapshot, which is exactly what the staleness policy is for.

A round that completes becomes an immutable, checksummed
:class:`~repro.serving.snapshot.EstimateSnapshot`, persisted to the
snapshot directory (when configured) and then atomically published to
the store. :meth:`SnapshotPublisher.recover` restores the last
known-good persisted snapshot after a restart, skipping corrupt files.
Each round is one ``serving.publish_round`` span; the bands, snapshot
build, save and store verify spans of its write path nest under it.

Chaos comes in through an optional
:class:`~repro.faults.infra.InfraInjector` consulted at the same fixed
points a real deployment fails at: inside collect (outage, hang),
inside estimate (hang), after persist (file corruption), and just
before publish (crash).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.clock import Clock, get_clock
from repro.core.errors import ServingError
from repro.core.field import SpeedField
from repro.core.pipeline import SpeedEstimationSystem
from repro.crowd.platform import CrowdsourcingPlatform, SpeedQueryTask
from repro.faults.infra import InfraInjector, PipelineOutageError, PublisherCrashError
from repro.obs import get_recorder
from repro.serving.snapshot import (
    EstimateSnapshot,
    RecoveryResult,
    RoundProvenance,
    StageTiming,
    recover_latest,
    save_snapshot,
)
from repro.serving.store import EstimateStore
from repro.serving.watchdog import StagePolicy, Watchdog
from repro.speed.estimator import EstimateColumns
from repro.speed.uncertainty import BandColumns, UncertaintyModel

#: Round outcomes a :class:`PublishReport` can carry.
PUBLISHED = "published"
CANCELLED = "cancelled"  # watchdog gave up (timeout / failure / deadline)
CRASHED = "crashed"  # injected publisher crash before publish
REJECTED = "rejected"  # the store refused the snapshot


def default_watchdog(
    interval_s: float, clock: Clock | None = None
) -> Watchdog:
    """The serving watchdog the paper's cadence implies.

    The round deadline is the interval length — an estimate landing
    after the next interval starts answers yesterday's question. The
    crowd-collection stage gets most of the budget (it is the part
    waiting on humans); estimation is pure compute and gets half.
    """
    return Watchdog(
        clock=clock,
        round_deadline_s=interval_s,
        policies={
            "collect": StagePolicy(
                timeout_s=0.75 * interval_s,
                max_attempts=2,
                backoff_base_s=min(1.0, 0.001 * interval_s),
            ),
            "estimate": StagePolicy(
                timeout_s=0.5 * interval_s,
                max_attempts=2,
                backoff_base_s=min(1.0, 0.001 * interval_s),
            ),
        },
    )


@dataclass(frozen=True, slots=True)
class PublishReport:
    """What one :meth:`SnapshotPublisher.publish_round` call did."""

    round_index: int
    interval: int
    outcome: str
    version: int | None = None
    num_roads: int = 0
    degraded: bool = False
    substituted: int = 0
    persisted_path: str | None = None
    corrupted: bool = False
    error: str | None = None
    duration_s: float = 0.0

    @property
    def published(self) -> bool:
        return self.outcome == PUBLISHED


@dataclass(frozen=True, slots=True)
class _RoundResult:
    """Internal: the estimate stage's output, pre-snapshot."""

    estimates: EstimateColumns
    bands: BandColumns
    observed: dict[int, float]
    substituted: dict[int, str]
    report_degraded: bool


class SnapshotPublisher:
    """Drives supervised rounds and atomically publishes their snapshots."""

    def __init__(
        self,
        system: SpeedEstimationSystem,
        store: EstimateStore,
        uncertainty: UncertaintyModel,
        watchdog: Watchdog | None = None,
        clock: Clock | None = None,
        snapshot_dir: str | Path | None = None,
        injector: InfraInjector | None = None,
    ) -> None:
        self._system = system
        self._store = store
        self._uncertainty = uncertainty
        self._clock = clock
        self._watchdog = watchdog or default_watchdog(
            system.config.interval_minutes * 60.0, clock=clock
        )
        self._snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self._injector = injector
        self._round_index = -1
        self._next_version = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def store(self) -> EstimateStore:
        return self._store

    @property
    def watchdog(self) -> Watchdog:
        return self._watchdog

    @property
    def round_index(self) -> int:
        return self._round_index

    @property
    def next_version(self) -> int:
        return self._next_version

    def _now(self) -> float:
        return (self._clock or get_clock()).monotonic()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryResult:
        """Publish the last known-good persisted snapshot, if any.

        Corrupt files are skipped (counted, never served). Returns the
        recovery result whether or not anything was found.
        """
        if self._snapshot_dir is None:
            return RecoveryResult(snapshot=None, scanned=0)
        result = recover_latest(self._snapshot_dir)
        if result.snapshot is not None:
            self._next_version = max(
                self._next_version, result.snapshot.version + 1
            )
            self._store.publish(result.snapshot)
        return result

    # ------------------------------------------------------------------
    # The supervised round
    # ------------------------------------------------------------------
    def _maybe_hang(self, stage: str) -> None:
        if self._injector is None:
            return
        seconds = self._injector.hang_seconds(stage)
        if seconds > 0:
            # The stage "takes this long": on a ManualClock this advances
            # time instantly; on the real clock it genuinely waits.
            (self._clock or get_clock()).sleep(seconds)

    def _collect(self, interval, truth, platform, crowd_seed):
        self._maybe_hang("collect")
        if self._injector is not None and self._injector.pipeline_down():
            raise PipelineOutageError(
                "round pipeline unavailable (injected outage)"
            )
        tasks = [
            SpeedQueryTask(road, interval, truth.speed(road, interval))
            for road in self._system.seeds
        ]
        return platform.collect(tasks, seed=crowd_seed)

    def _estimate(self, interval: int, crowd_round) -> _RoundResult:
        self._maybe_hang("estimate")
        observed = crowd_round.speeds()
        estimates, filled, substituted = self._system.estimate_round(
            interval, observed
        )
        bands = self._uncertainty.bands_for(estimates, filled)
        return _RoundResult(
            estimates=estimates,
            bands=bands,
            observed=observed,
            substituted=substituted,
            report_degraded=crowd_round.report.is_degraded,
        )

    def publish_round(
        self,
        interval: int,
        truth: SpeedField,
        platform: CrowdsourcingPlatform,
        crowd_seed: int = 0,
    ) -> PublishReport:
        """One supervised round: collect, estimate, snapshot, publish.

        Never lets a pipeline fault escape: every failure mode comes
        back as a :class:`PublishReport` with ``outcome != "published"``
        and the store untouched (the previous snapshot keeps serving).
        The round runs under one ``serving.publish_round`` span, the
        root of its span tree.
        """
        self._round_index += 1
        with get_recorder().span(
            "serving.publish_round", round=self._round_index, interval=interval
        ) as span:
            report = self._publish_round(interval, truth, platform, crowd_seed)
            span.set(outcome=report.outcome)
        return report

    def _publish_round(
        self,
        interval: int,
        truth: SpeedField,
        platform: CrowdsourcingPlatform,
        crowd_seed: int,
    ) -> PublishReport:
        recorder = get_recorder()
        if self._injector is not None:
            self._injector.begin_round()
        self._watchdog.begin_round()
        started = self._now()

        def _report(outcome: str, **kwargs) -> PublishReport:
            report = PublishReport(
                round_index=self._round_index,
                interval=interval,
                outcome=outcome,
                duration_s=self._now() - started,
                **kwargs,
            )
            recorder.count("serving.rounds", outcome=outcome)
            recorder.observe(
                "serving.publish_round_seconds",
                report.duration_s,
                outcome=outcome,
            )
            if outcome != PUBLISHED:
                recorder.event(
                    "round_not_published",
                    round=self._round_index,
                    interval=interval,
                    outcome=outcome,
                    error=kwargs.get("error"),
                )
            return report

        try:
            crowd_round = self._watchdog.run(
                "collect", self._collect, interval, truth, platform, crowd_seed
            )
            result = self._watchdog.run(
                "estimate", self._estimate, interval, crowd_round
            )
            # Counted once the stage has returned, so a retried stage
            # never counts its substitutions twice.
            self._system.record_substitutions(result.substituted)
            self._watchdog.check_deadline()
        except ServingError as exc:
            # StageTimeout / StageFailed / RoundDeadlineExceeded (and the
            # injected outage underneath): round cancelled, store intact.
            return _report(CANCELLED, error=str(exc))
        # The round succeeded: it is now safe to advance the degradation
        # policy's last-known-observation state (not inside the stage, so
        # retries never double-apply it).
        self._system.degradation.observe(interval, result.observed)

        version = self._next_version
        self._next_version += 1
        provenance = RoundProvenance(
            round_index=self._round_index,
            seed_budget=len(self._system.seeds),
            degraded=result.report_degraded or bool(result.substituted),
            substituted=len(result.substituted),
            stages=tuple(
                StageTiming(
                    stage=stage,
                    seconds=entry["seconds"],
                    attempts=entry["attempts"],
                    ok=entry["ok"],
                )
                for stage, entry in sorted(
                    self._watchdog.stage_report().items()
                )
            ),
            deadline_s=self._watchdog.round_deadline_s,
            elapsed_s=self._watchdog.round_elapsed_s(),
        )
        snapshot = EstimateSnapshot.build(
            version=version,
            interval=interval,
            estimates=result.estimates,
            bands=result.bands,
            substituted=result.substituted,
            degraded=result.report_degraded,
            provenance=provenance,
        )

        persisted: Path | None = None
        corrupted = False
        if self._snapshot_dir is not None:
            persisted = save_snapshot(snapshot, self._snapshot_dir)
            if self._injector is not None and self._injector.corrupt_snapshot():
                _corrupt_file(persisted)
                corrupted = True
                recorder.event("snapshot_corruption_injected", file=persisted.name)
        common = dict(
            version=version,
            num_roads=snapshot.num_roads,
            degraded=snapshot.degraded,
            substituted=len(snapshot.substituted),
            persisted_path=str(persisted) if persisted else None,
            corrupted=corrupted,
        )
        if self._injector is not None and self._injector.crash_before_publish():
            # The process "dies" here: the snapshot may be on disk (and
            # may be corrupt) but the in-memory store never sees it.
            return _report(
                CRASHED,
                error=str(PublisherCrashError("publisher crashed before publish")),
                **common,
            )
        if not self._store.publish(snapshot):
            return _report(REJECTED, error="store rejected the snapshot", **common)
        return _report(PUBLISHED, **common)


def _corrupt_file(path: Path) -> None:
    """Simulate a torn write: truncate mid-file and scribble."""
    data = path.read_bytes()
    path.write_bytes(data[: max(1, len(data) // 2)] + b"#CORRUPT")
