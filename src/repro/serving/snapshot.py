"""Immutable, checksummed estimate snapshots and their persistence.

An :class:`EstimateSnapshot` is the unit the publisher hands to the
read path: every road's :class:`~repro.core.types.SpeedEstimate` and
uncertainty :class:`~repro.speed.uncertainty.SpeedBand` for one
interval, under a monotonically increasing version and a content
checksum. Snapshots are deeply immutable (the mappings are read-only
views), so any number of readers can hold one while the next is being
built, and equality of checksum means equality of content.

Persistence is last-known-good recovery, not a database: each snapshot
is one JSON file named by version; :func:`recover_latest` walks them
newest-first and returns the first that passes checksum verification,
counting (not raising on) corrupted files — a torn write must cost a
restart one snapshot of freshness, never an outage or garbage served.
A file is ``{"body":<canonical body>,"checksum":"<sha256 hex>"}``, whose
body bytes are exactly the bytes the checksum hashes. Loading parses
and re-encodes the body, so files written with other JSON whitespace
(older releases used ``json.dumps`` default separators) load the same.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from repro.core.errors import ServingError, SnapshotIntegrityError
from repro.core.types import SpeedEstimate, Trend
from repro.obs import get_recorder
from repro.speed.uncertainty import SpeedBand

#: On-disk snapshot format version. Version 2 added the round
#: provenance block (producing round, seed budget, stage timings).
SNAPSHOT_FORMAT = 2

_FILE_PREFIX = "snapshot-v"
_FILE_SUFFIX = ".json"


@dataclass(frozen=True, slots=True)
class StageTiming:
    """One supervised stage's outcome inside the producing round."""

    stage: str
    seconds: float
    attempts: int
    ok: bool

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageTiming":
        return cls(
            stage=str(payload["stage"]),
            seconds=float(payload["seconds"]),
            attempts=int(payload["attempts"]),
            ok=bool(payload["ok"]),
        )


@dataclass(frozen=True, slots=True)
class RoundProvenance:
    """Why this snapshot says what it says: the round that produced it.

    Carried *inside* the snapshot (and therefore inside its checksum),
    so ``store.explain(road)`` can answer "which round produced this
    number, on what seed budget, and how did its stages run" without
    consulting anything but the served snapshot itself.
    """

    round_index: int
    seed_budget: int
    degraded: bool
    substituted: int
    stages: tuple[StageTiming, ...] = ()
    deadline_s: float | None = None
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ServingError("provenance round_index must be >= 0")
        object.__setattr__(self, "stages", tuple(self.stages))

    def stage(self, name: str) -> StageTiming | None:
        for timing in self.stages:
            if timing.stage == name:
                return timing
        return None

    def to_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "seed_budget": self.seed_budget,
            "degraded": self.degraded,
            "substituted": self.substituted,
            "stages": [s.to_dict() for s in self.stages],
            "deadline_s": self.deadline_s,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RoundProvenance":
        return cls(
            round_index=int(payload["round_index"]),
            seed_budget=int(payload["seed_budget"]),
            degraded=bool(payload["degraded"]),
            substituted=int(payload["substituted"]),
            stages=tuple(
                StageTiming.from_dict(s) for s in payload.get("stages", ())
            ),
            deadline_s=(
                float(payload["deadline_s"])
                if payload.get("deadline_s") is not None
                else None
            ),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )


def _encode(body: dict) -> bytes:
    """The canonical encoding of a snapshot body: the bytes hashed."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(body: dict) -> str:
    return hashlib.sha256(_encode(body)).hexdigest()


def _body_row(est: SpeedEstimate, band: SpeedBand) -> list:
    return [
        est.speed_kmh,
        int(est.trend),
        est.trend_probability,
        1 if est.is_seed else 0,
        1 if est.degraded else 0,
        band.lower_kmh,
        band.upper_kmh,
        band.std_kmh,
        band.confidence,
    ]


@dataclass(frozen=True)
class EstimateSnapshot:
    """One published interval's estimates, versioned and checksummed.

    :meth:`build` encodes the body once: the checksum is the sha256 of
    those bytes, and :func:`save_snapshot` writes the same bytes, so a
    round pays for one encode at build time. The bytes are kept
    privately (not a field, not part of equality). :meth:`verify` never
    reads them: it re-encodes the mappings from scratch.
    """

    version: int
    interval: int
    estimates: Mapping[int, SpeedEstimate]
    bands: Mapping[int, SpeedBand]
    degraded: bool
    substituted: Mapping[int, str]
    checksum: str
    provenance: RoundProvenance | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "estimates", MappingProxyType(dict(self.estimates)))
        object.__setattr__(self, "bands", MappingProxyType(dict(self.bands)))
        object.__setattr__(self, "substituted", MappingProxyType(dict(self.substituted)))

    @classmethod
    def build(
        cls,
        version: int,
        interval: int,
        estimates: Mapping[int, SpeedEstimate],
        bands: Mapping[int, SpeedBand],
        substituted: Mapping[int, str] | None = None,
        degraded: bool = False,
        provenance: RoundProvenance | None = None,
    ) -> "EstimateSnapshot":
        """Assemble a snapshot, encoding its body once for the checksum."""
        if version < 0:
            raise ServingError(f"snapshot version must be >= 0, got {version}")
        if not estimates:
            raise ServingError("a snapshot needs at least one estimate")
        missing = set(estimates) - set(bands)
        if missing:
            raise ServingError(
                f"{len(missing)} estimates lack uncertainty bands "
                f"(first: {sorted(missing)[:3]})"
            )
        substituted = dict(substituted or {})
        snapshot = cls(
            version=version,
            interval=interval,
            estimates=dict(estimates),
            bands=dict(bands),
            degraded=bool(degraded) or bool(substituted),
            substituted=substituted,
            checksum="",
            provenance=provenance,
        )
        with get_recorder().span(
            "serving.snapshot.build", roads=snapshot.num_roads
        ) as span:
            encoded = _encode(snapshot._body())
            object.__setattr__(
                snapshot, "checksum", hashlib.sha256(encoded).hexdigest()
            )
            object.__setattr__(snapshot, "_encoded_body", encoded)
            span.set(bytes=len(encoded))
        return snapshot

    @property
    def num_roads(self) -> int:
        return len(self.estimates)

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def _body(self) -> dict:
        bands = self.bands
        roads = {
            str(road): _body_row(est, bands[road])
            for road, est in self.estimates.items()
        }
        return {
            "format": SNAPSHOT_FORMAT,
            "version": self.version,
            "interval": self.interval,
            "degraded": self.degraded,
            "substituted": {str(r): v for r, v in self.substituted.items()},
            "provenance": (
                self.provenance.to_dict()
                if self.provenance is not None
                else None
            ),
            "roads": roads,
        }

    def verify(self) -> bool:
        """Does the stored checksum match the current content?

        A full, cache-free re-encode of the mappings: the bytes kept
        from :meth:`build` are never consulted, so content changed
        after the build fails here.
        """
        return self.checksum == _checksum(self._body())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _envelope(self) -> bytes:
        """``{"body":<encoded body>,"checksum":"<hex>"}``, as persisted.

        The body bytes are the ones :meth:`build` hashed; a snapshot
        made any other way (the constructor, :meth:`from_json`) encodes
        its mappings here instead.
        """
        body = getattr(self, "_encoded_body", None)
        if body is None:
            body = _encode(self._body())
        checksum = json.dumps(self.checksum).encode("utf-8")
        return b'{"body":' + body + b',"checksum":' + checksum + b"}"

    def to_json(self) -> str:
        return self._envelope().decode("utf-8")

    @classmethod
    def from_json(cls, text: str) -> "EstimateSnapshot":
        """Parse and *verify* a serialized snapshot.

        Raises :class:`SnapshotIntegrityError` on any malformation —
        bad JSON, wrong format version, or checksum mismatch.
        """
        try:
            payload = json.loads(text)
            body = payload["body"]
            checksum = payload["checksum"]
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotIntegrityError(f"malformed snapshot file: {exc}") from exc
        if body.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotIntegrityError(
                f"unsupported snapshot format {body.get('format')!r} "
                f"(expected {SNAPSHOT_FORMAT})"
            )
        if checksum != _checksum(body):
            raise SnapshotIntegrityError("snapshot checksum mismatch")
        try:
            interval = int(body["interval"])
            estimates: dict[int, SpeedEstimate] = {}
            bands: dict[int, SpeedBand] = {}
            for road_text, row in body["roads"].items():
                road = int(road_text)
                speed, trend, p, is_seed, degraded, lower, upper, std, conf = row
                estimates[road] = SpeedEstimate(
                    road_id=road,
                    interval=interval,
                    speed_kmh=float(speed),
                    trend=Trend(int(trend)),
                    trend_probability=float(p),
                    is_seed=bool(is_seed),
                    degraded=bool(degraded),
                )
                bands[road] = SpeedBand(
                    road_id=road,
                    interval=interval,
                    speed_kmh=float(speed),
                    lower_kmh=float(lower),
                    upper_kmh=float(upper),
                    std_kmh=float(std),
                    confidence=float(conf),
                )
            snapshot = cls(
                version=int(body["version"]),
                interval=interval,
                estimates=estimates,
                bands=bands,
                degraded=bool(body["degraded"]),
                substituted={int(r): str(v) for r, v in body["substituted"].items()},
                checksum=checksum,
                provenance=(
                    RoundProvenance.from_dict(body["provenance"])
                    if body.get("provenance") is not None
                    else None
                ),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotIntegrityError(
                f"snapshot body failed to decode: {exc}"
            ) from exc
        if not snapshot.verify():
            # Field reordering or lossy decode would land here.
            raise SnapshotIntegrityError("snapshot re-encode mismatch")
        return snapshot


# ----------------------------------------------------------------------
# Last-known-good persistence
# ----------------------------------------------------------------------
def snapshot_path(directory: str | Path, version: int) -> Path:
    return Path(directory) / f"{_FILE_PREFIX}{version:08d}{_FILE_SUFFIX}"


def save_snapshot(snapshot: EstimateSnapshot, directory: str | Path) -> Path:
    """Persist one snapshot; returns the file written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = snapshot_path(directory, snapshot.version)
    with get_recorder().span("serving.snapshot.save") as span:
        envelope = snapshot._envelope()
        path.write_bytes(envelope)
        span.set(bytes=len(envelope))
    return path


def load_snapshot(path: str | Path) -> EstimateSnapshot:
    """Load and verify one snapshot file."""
    return EstimateSnapshot.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True, slots=True)
class RecoveryResult:
    """What :func:`recover_latest` found."""

    snapshot: EstimateSnapshot | None
    scanned: int
    corrupt: tuple[str, ...] = field(default=())


def recover_latest(directory: str | Path) -> RecoveryResult:
    """The newest checksum-valid snapshot in ``directory``.

    Walks snapshot files newest-version-first; a file that fails
    verification is counted, reported through the
    ``serving.snapshot_corrupt`` metric and skipped — never served.
    """
    directory = Path(directory)
    recorder = get_recorder()
    if not directory.is_dir():
        return RecoveryResult(snapshot=None, scanned=0)
    candidates = sorted(
        directory.glob(f"{_FILE_PREFIX}*{_FILE_SUFFIX}"), reverse=True
    )
    corrupt: list[str] = []
    for path in candidates:
        try:
            snapshot = load_snapshot(path)
        except SnapshotIntegrityError as exc:
            corrupt.append(path.name)
            recorder.count("serving.snapshot_corrupt")
            recorder.event(
                "snapshot_corrupt", file=path.name, reason=str(exc)
            )
            continue
        recorder.count("serving.snapshot_recovered")
        return RecoveryResult(
            snapshot=snapshot, scanned=len(candidates), corrupt=tuple(corrupt)
        )
    return RecoveryResult(
        snapshot=None, scanned=len(candidates), corrupt=tuple(corrupt)
    )
