"""Immutable, checksummed estimate snapshots and their persistence.

An :class:`EstimateSnapshot` is the unit the publisher hands to the
read path: every road's :class:`~repro.core.types.SpeedEstimate` and
uncertainty :class:`~repro.speed.uncertainty.SpeedBand` for one
interval, under a monotonically increasing version and a content
checksum. The estimates and bands are carried as read-only columns
(:class:`~repro.speed.estimator.EstimateColumns`,
:class:`~repro.speed.uncertainty.BandColumns`), so any number of readers
can hold a snapshot while the next is being built, and equality of
checksum means equality of content.

Persistence is last-known-good recovery, not a database: each snapshot
is one file named by version; :func:`recover_latest` walks them
newest-first and returns the first that passes checksum verification,
counting (not raising on) corrupted files — a torn write must cost a
restart one snapshot of freshness, never an outage or garbage served.

A format-3 file is::

    REPRO-SNAPSHOT 3 <sha256 hex>\n
    <canonical JSON header>\n
    <column bytes>

The header (sorted keys, no whitespace) holds the format, version,
interval, degraded flag, substitutions, provenance and the column
names, little-endian dtypes and lengths; the columns follow in header
order with no padding. The checksum is the sha256 of the header bytes
followed by every column byte, so writing and verifying a snapshot is
``tobytes()`` plus one hash. Format-2 files (one canonical-JSON body
with a row per road) still load: they are checked against their own
JSON checksum, then re-checksummed as format 3 in memory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.core.errors import ServingError, SnapshotIntegrityError
from repro.core.types import SpeedEstimate
from repro.obs import get_recorder
from repro.speed.estimator import EstimateColumns
from repro.speed.uncertainty import BandColumns, SpeedBand

#: On-disk snapshot format version. Version 2 added the round
#: provenance block (producing round, seed budget, stage timings);
#: version 3 stores the roads as binary columns.
SNAPSHOT_FORMAT = 3

#: Format 2 (one JSON row per road) still loads.
_JSON_FORMAT = 2

_MAGIC = b"REPRO-SNAPSHOT 3 "

#: (name, little-endian dtype) of every persisted column, in file order.
_COLUMNS = (
    ("road", "<i8"),
    ("speed", "<f8"),
    ("trend", "|i1"),
    ("p_rise", "<f8"),
    ("is_seed", "|b1"),
    ("degraded", "|b1"),
    ("lower", "<f8"),
    ("upper", "<f8"),
    ("std", "<f8"),
    ("confidence", "<f8"),
)

# Snapshot files kept the suffix of the JSON formats, so directories
# written by earlier releases sort and recover together.
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


def _canonical_json(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _digest(header: bytes, columns: list[bytes]) -> str:
    """The checksum: sha256 over the header bytes, then every column byte."""
    digest = hashlib.sha256(header)
    for column in columns:
        digest.update(column)
    return digest.hexdigest()


@dataclass(frozen=True)
class EstimateSnapshot:
    """One published interval's estimates, versioned and checksummed.

    ``estimates`` and ``bands`` are column mappings over the same roads
    in the same order; any other mapping passed in is converted once,
    here. :meth:`build` serialises the columns once: the checksum hashes
    those bytes, and :func:`save_snapshot` writes the same bytes. They
    are kept privately (not a field, not part of equality).
    :meth:`verify` never reads them: it re-serialises the live mappings.
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
        estimates = EstimateColumns.from_mapping(self.estimates, self.interval)
        bands = BandColumns.from_mapping(self.bands, self.interval)
        object.__setattr__(self, "estimates", estimates)
        object.__setattr__(self, "bands", bands.aligned_to(estimates.road_ids))
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
        """Assemble a snapshot, serialising its columns once for the checksum."""
        if version < 0:
            raise ServingError(f"snapshot version must be >= 0, got {version}")
        if not estimates:
            raise ServingError("a snapshot needs at least one estimate")
        substituted = dict(substituted or {})
        with get_recorder().span(
            "serving.snapshot.build", roads=len(estimates)
        ) as span:
            try:
                snapshot = cls(
                    version=version,
                    interval=interval,
                    estimates=estimates,
                    bands=bands,
                    degraded=bool(degraded) or bool(substituted),
                    substituted=substituted,
                    checksum="",
                    provenance=provenance,
                )
            except KeyError:
                missing = set(estimates) - set(bands)
                raise ServingError(
                    f"{len(missing)} estimates lack uncertainty bands "
                    f"(first: {sorted(missing)[:3]})"
                ) from None
            header, columns = snapshot._serialise()
            object.__setattr__(snapshot, "checksum", _digest(header, columns))
            object.__setattr__(snapshot, "_serialised", (header, columns))
            span.set(
                bytes=len(header) + sum(map(len, columns)),
                format=SNAPSHOT_FORMAT,
                columns=len(columns),
            )
        return snapshot

    @property
    def num_roads(self) -> int:
        return len(self.estimates)

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def _serialise(self) -> tuple[bytes, list[bytes]]:
        """(header bytes, column bytes) of the live mappings."""
        estimates = EstimateColumns.from_mapping(self.estimates, self.interval)
        bands = BandColumns.from_mapping(self.bands, self.interval).aligned_to(
            estimates.road_ids
        )
        arrays = (
            np.array(estimates.road_ids, dtype=np.int64),
            estimates.speed,
            estimates.trend,
            estimates.p_rise,
            estimates.is_seed,
            estimates.degraded,
            bands.lower,
            bands.upper,
            bands.std,
            bands.confidence,
        )
        n = len(estimates.road_ids)
        header = _canonical_json(
            {
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
                "columns": [[name, dtype, n] for name, dtype in _COLUMNS],
            }
        )
        columns = [
            np.ascontiguousarray(array, dtype=dtype).tobytes()
            for array, (_, dtype) in zip(arrays, _COLUMNS)
        ]
        return header, columns

    def verify(self) -> bool:
        """Does the stored checksum match the current content?

        A full, cache-free re-serialisation of the live mappings: the
        bytes kept from :meth:`build` are never consulted, so content
        changed after the build fails here.
        """
        try:
            header, columns = self._serialise()
        except (KeyError, TypeError, ValueError):
            return False
        return self.checksum == _digest(header, columns)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The file bytes: magic and checksum line, header line, columns.

        The header and columns are the ones :meth:`build` hashed; a
        snapshot made any other way (the constructor, :meth:`from_bytes`)
        serialises its mappings here instead.
        """
        serialised = getattr(self, "_serialised", None)
        if serialised is None:
            serialised = self._serialise()
        header, columns = serialised
        return b"".join(
            [_MAGIC, self.checksum.encode("ascii"), b"\n", header, b"\n", *columns]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EstimateSnapshot":
        """Parse and *verify* a serialized snapshot (format 3 or 2).

        Raises :class:`SnapshotIntegrityError` on any malformation —
        undecodable bytes, bad JSON, wrong format version, wrong column
        layout or length, or checksum mismatch.
        """
        if data.startswith(_MAGIC):
            snapshot = cls._from_columns(data)
        else:
            snapshot = cls._from_json_rows(data)
        if not snapshot.verify():
            # Field reordering or lossy decode would land here.
            raise SnapshotIntegrityError("snapshot re-encode mismatch")
        return snapshot

    @classmethod
    def _from_columns(cls, data: bytes) -> "EstimateSnapshot":
        start = len(_MAGIC)
        try:
            checksum = data[start:start + 64].decode("ascii")
            if data[start + 64:start + 65] != b"\n":
                raise ValueError("checksum line is not terminated")
            header_end = data.index(b"\n", start + 65)
            header_bytes = data[start + 65:header_end]
            header = json.loads(header_bytes)
            if not isinstance(header, dict):
                raise TypeError("header is not an object")
        except (ValueError, TypeError) as exc:
            raise SnapshotIntegrityError(f"malformed snapshot file: {exc}") from exc
        _check_format(header.get("format"), SNAPSHOT_FORMAT)
        body = memoryview(data)[header_end + 1:]
        if checksum != _digest(header_bytes, [body]):
            raise SnapshotIntegrityError("snapshot checksum mismatch")
        try:
            layout = header["columns"]
            n = layout[0][2]
            if not isinstance(n, int) or n < 0 or layout != [
                [name, dtype, n] for name, dtype in _COLUMNS
            ]:
                raise ValueError(f"unexpected column layout {layout}")
            arrays, offset = {}, 0
            for name, dtype in _COLUMNS:
                arrays[name] = np.frombuffer(body, dtype, n, offset)
                offset += arrays[name].nbytes
            if offset != len(body):
                raise ValueError(f"{len(body)} column bytes, header says {offset}")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise SnapshotIntegrityError(
                f"snapshot body failed to decode: {exc}"
            ) from exc
        return cls._from_arrays(header, checksum, arrays)

    @classmethod
    def _from_json_rows(cls, data: bytes) -> "EstimateSnapshot":
        """A format-2 file: one canonical-JSON body, a row per road."""
        try:
            payload = json.loads(data)
            body = payload["body"]
            checksum = payload["checksum"]
            if not isinstance(body, dict):
                raise TypeError("body is not an object")
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotIntegrityError(f"malformed snapshot file: {exc}") from exc
        _check_format(body.get("format"), _JSON_FORMAT)
        if checksum != hashlib.sha256(_canonical_json(body)).hexdigest():
            raise SnapshotIntegrityError("snapshot checksum mismatch")
        try:
            # The JSON object has no road order: load ascending by id.
            rows = sorted((int(road), row) for road, row in body["roads"].items())
            # A row holds every column but the road, in file order.
            matrix = np.array([row for _, row in rows], dtype=np.float64)
            matrix = matrix.reshape(len(rows), len(_COLUMNS) - 1)
            arrays = {"road": np.array([road for road, _ in rows], dtype=np.int64)}
            arrays.update(
                (name, matrix[:, i]) for i, (name, _) in enumerate(_COLUMNS[1:])
            )
            arrays["trend"] = arrays["trend"].astype(np.int8)
            arrays["is_seed"] = arrays["is_seed"] != 0.0
            arrays["degraded"] = arrays["degraded"] != 0.0
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SnapshotIntegrityError(
                f"snapshot body failed to decode: {exc}"
            ) from exc
        snapshot = cls._from_arrays(body, "", arrays)
        object.__setattr__(snapshot, "checksum", _digest(*snapshot._serialise()))
        return snapshot

    @classmethod
    def _from_arrays(
        cls, header: dict, checksum: str, arrays: dict[str, np.ndarray]
    ) -> "EstimateSnapshot":
        """Assemble a loaded snapshot; raises SnapshotIntegrityError."""
        try:
            if not np.isin(arrays["trend"], (-1, 1)).all():
                raise ValueError("trend outside {-1, 1}")
            for name in ("is_seed", "degraded"):
                if arrays[name].view(np.uint8).max(initial=0) > 1:
                    raise ValueError(f"{name} is not boolean")
            p_rise = arrays["p_rise"]
            if not ((p_rise >= 0.0) & (p_rise <= 1.0)).all():
                raise ValueError("trend probability outside [0, 1]")
            road_ids = tuple(arrays["road"].tolist())
            interval = int(header["interval"])
            estimates = EstimateColumns(
                road_ids,
                interval,
                **{name: arrays[name] for name in EstimateColumns.COLUMNS},
            )
            if len(estimates.position) != len(road_ids):
                raise ValueError("duplicate road ids")
            bands = BandColumns(
                road_ids,
                interval,
                estimates.position,
                **{name: arrays[name] for name in BandColumns.COLUMNS},
            )
            return cls(
                version=int(header["version"]),
                interval=interval,
                estimates=estimates,
                bands=bands,
                degraded=bool(header["degraded"]),
                substituted={
                    int(r): str(v) for r, v in header["substituted"].items()
                },
                checksum=checksum,
                provenance=(
                    RoundProvenance.from_dict(header["provenance"])
                    if header.get("provenance") is not None
                    else None
                ),
            )
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SnapshotIntegrityError(
                f"snapshot body failed to decode: {exc}"
            ) from exc


def _check_format(found: object, expected: int) -> None:
    if found != expected:
        raise SnapshotIntegrityError(
            f"unsupported snapshot format {found!r} (expected {expected})"
        )


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
        data = snapshot.to_bytes()
        path.write_bytes(data)
        span.set(bytes=len(data))
    return path


def load_snapshot(path: str | Path) -> EstimateSnapshot:
    """Load and verify one snapshot file (format 3, or format 2).

    Raises :class:`SnapshotIntegrityError` when the bytes fail to
    decode, parse or verify.
    """
    return EstimateSnapshot.from_bytes(Path(path).read_bytes())


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
