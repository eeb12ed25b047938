"""Snapshot-based serving: publish/read split with graceful degradation.

The round pipeline (:mod:`repro.core.pipeline`) produces estimates; this
package makes them *servable* under real-world failure:

- :mod:`repro.serving.snapshot` — immutable, checksummed
  :class:`EstimateSnapshot` per interval, with last-known-good
  persistence and recovery;
- :mod:`repro.serving.store` — the lock-free read path: atomic snapshot
  swap, staleness policy (widen → baseline), admission control and a
  serving-side circuit breaker; reads never raise;
- :mod:`repro.serving.watchdog` — deadline supervision for the write
  path: per-stage timeouts, bounded backoff retries, a round deadline
  tied to the interval length;
- :mod:`repro.serving.publisher` — :class:`SnapshotPublisher`, which
  runs supervised rounds and atomically publishes their snapshots.

The chaos suite in :mod:`tests <repro.faults.infra>` drives this stack
through every bundled infrastructure scenario and asserts the two
serving invariants: the store never serves an unverified snapshot, and
a reader never sees an exception.
"""

from repro.serving.publisher import (
    CANCELLED,
    CRASHED,
    PUBLISHED,
    REJECTED,
    PublishReport,
    SnapshotPublisher,
    default_watchdog,
)
from repro.serving.snapshot import (
    SNAPSHOT_FORMAT,
    EstimateSnapshot,
    RecoveryResult,
    RoundProvenance,
    StageTiming,
    load_snapshot,
    recover_latest,
    save_snapshot,
    snapshot_path,
)
from repro.serving.store import (
    BASELINE,
    FRESH,
    READ_STATUSES,
    SHED,
    STALE,
    UNAVAILABLE,
    AdmissionController,
    EstimateStore,
    ReadExplanation,
    RungDecision,
    ServedEstimate,
    StalenessPolicy,
)
from repro.serving.watchdog import (
    RoundDeadlineExceeded,
    StageFailed,
    StagePolicy,
    StageTimeout,
    Watchdog,
)

__all__ = [
    "BASELINE",
    "CANCELLED",
    "CRASHED",
    "FRESH",
    "PUBLISHED",
    "READ_STATUSES",
    "REJECTED",
    "SHED",
    "SNAPSHOT_FORMAT",
    "STALE",
    "UNAVAILABLE",
    "AdmissionController",
    "EstimateSnapshot",
    "EstimateStore",
    "PublishReport",
    "ReadExplanation",
    "RecoveryResult",
    "RoundDeadlineExceeded",
    "RoundProvenance",
    "RungDecision",
    "ServedEstimate",
    "StageTiming",
    "SnapshotPublisher",
    "StageFailed",
    "StagePolicy",
    "StageTimeout",
    "StalenessPolicy",
    "Watchdog",
    "default_watchdog",
    "load_snapshot",
    "recover_latest",
    "save_snapshot",
    "snapshot_path",
]
