"""The read path: lock-free snapshot serving with graceful staleness.

:class:`EstimateStore` holds the latest published
:class:`~repro.serving.snapshot.EstimateSnapshot` behind a single
reference. Publishing swaps the reference atomically (one assignment
under the GIL), so readers never lock, never block a publish, and never
observe a half-built snapshot — a reader that grabbed the old reference
keeps a complete, internally consistent snapshot for the whole read.

Reads *always* answer; how well depends on the system's state:

======================  ================================================
snapshot age            reader sees
======================  ================================================
below soft threshold    ``fresh`` — the snapshot verbatim
past soft threshold     ``stale`` — same numbers, widened uncertainty
                        band, ``stale`` marker
past hard threshold     ``baseline`` — the historical bucket mean for
                        the interval the clock says it is now, flagged
                        degraded
no snapshot, no history ``unavailable`` — a typed response, not an
                        exception
======================  ================================================

A snapshot's numbers reach readers through per-publish read columns:
publishing turns each of the snapshot's eight served columns into one
Python list (``.tolist()``, trends mapped to
:class:`~repro.core.types.Trend`), so no numpy scalar is touched per
read and no per-road tuple is built per publish. The road -> position
map is reused while consecutive snapshots cover the same roads. A read
judges the snapshot's age once, then costs each road one dict lookup and
one index into each column list; no per-road
:class:`~repro.core.types.SpeedEstimate` is ever built.

Overload is degraded the same way: a bounded in-flight admission gate
sheds excess requests (``shed`` responses, never queue collapse), and a
serving-side :class:`~repro.core.breaker.CircuitBreaker` short-circuits
reads straight to the baseline while the snapshot path keeps failing.
Readers **never** get an exception out of a read method for any
infrastructure fault — that invariant is what the chaos suite asserts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.breaker import BreakerState, CircuitBreaker
from repro.core.clock import Clock, get_clock
from repro.core.errors import ConfigError, ServingError
from repro.core.types import Trend
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.obs.trace import RUNG_ORDER, ReadTracer
from repro.roadnet.network import RoadNetwork
from repro.serving.snapshot import EstimateSnapshot, RoundProvenance
from repro.speed.uncertainty import z_for_confidence

#: Read statuses, from best to worst.
FRESH = "fresh"
STALE = "stale"
BASELINE = "baseline"
SHED = "shed"
UNAVAILABLE = "unavailable"

READ_STATUSES = (FRESH, STALE, BASELINE, SHED, UNAVAILABLE)

#: :class:`Trend` by ``trend + 1`` for a snapshot's int8 trends (always
#: ±1: built ones by construction, loaded ones by validation).
_TRENDS = np.array([Trend.FALL, None, Trend.RISE], dtype=object)

#: What readers see: (snapshot, received_at, road -> position, read
#: columns). The columns are (speed, lower, upper, std, trend, p_rise,
#: is_seed, degraded), one Python list each.
_Current = tuple[EstimateSnapshot, float, dict[int, int], tuple[list, ...]]


@dataclass(frozen=True, slots=True)
class StalenessPolicy:
    """When a snapshot stops being trusted, and by how much.

    ``soft_after_s``: reads are answered from the snapshot with the
    uncertainty band widened by ``stale_inflation`` and a ``stale``
    marker (the degraded-seed treatment of
    :mod:`repro.speed.degradation`, applied to whole snapshots).
    ``hard_after_s``: the snapshot is too old to dress up; reads fall
    back to the historical-mean baseline.
    """

    soft_after_s: float = 1800.0
    hard_after_s: float = 7200.0
    stale_inflation: float = 1.5

    def __post_init__(self) -> None:
        if self.soft_after_s <= 0:
            raise ConfigError("soft_after_s must be positive")
        if self.hard_after_s < self.soft_after_s:
            raise ConfigError("hard_after_s must be >= soft_after_s")
        if self.stale_inflation < 1.0:
            raise ConfigError("stale_inflation must be >= 1")


class ServedEstimate(NamedTuple):
    """What a reader gets back — always, for every road asked.

    ``status`` is one of :data:`READ_STATUSES`; numeric fields are None
    exactly when no answer could be produced (``shed``/``unavailable``).
    A named tuple: immutable, built positionally on the read path
    without per-field attribute writes, and equal to a plain tuple of
    the same fields.
    """

    road_id: int
    status: str
    speed_kmh: float | None = None
    lower_kmh: float | None = None
    upper_kmh: float | None = None
    std_kmh: float | None = None
    trend: Trend | None = None
    trend_probability: float | None = None
    is_seed: bool = False
    degraded: bool = False
    stale: bool = False
    snapshot_version: int | None = None
    age_s: float | None = None
    interval: int | None = None

    @property
    def answered(self) -> bool:
        """Did the reader get a number (fresh, stale or baseline)?"""
        return self.speed_kmh is not None


@dataclass(frozen=True, slots=True)
class RungDecision:
    """One ladder rung's verdict inside an :class:`ReadExplanation`."""

    rung: str
    taken: bool
    reason: str

    def to_dict(self) -> dict:
        return {"rung": self.rung, "taken": self.taken, "reason": self.reason}


@dataclass(frozen=True, slots=True)
class ReadExplanation:
    """Why one road's read answered the way it did.

    The full provenance chain for a single road: the rung the read
    resolved at, every rung the ladder considered (with the reason it
    was or wasn't taken), the snapshot version and age it was judged
    against, and — when the served snapshot carries one — the
    :class:`~repro.serving.snapshot.RoundProvenance` of the round that
    produced it, stage timings included. Built by
    :meth:`EstimateStore.explain` without touching admission or breaker
    state, so explaining a struggling store never makes it worse.
    """

    road_id: int
    status: str
    served: ServedEstimate
    chain: tuple[RungDecision, ...]
    snapshot_version: int | None
    snapshot_age_s: float | None
    staleness: StalenessPolicy
    breaker_open: bool
    provenance: RoundProvenance | None

    def decision(self, rung: str) -> RungDecision | None:
        for entry in self.chain:
            if entry.rung == rung:
                return entry
        return None

    def to_dict(self) -> dict:
        return {
            "road_id": self.road_id,
            "status": self.status,
            "speed_kmh": self.served.speed_kmh,
            "band_kmh": (
                [self.served.lower_kmh, self.served.upper_kmh]
                if self.served.answered
                else None
            ),
            "degraded": self.served.degraded,
            "snapshot_version": self.snapshot_version,
            "snapshot_age_s": self.snapshot_age_s,
            "soft_after_s": self.staleness.soft_after_s,
            "hard_after_s": self.staleness.hard_after_s,
            "breaker_open": self.breaker_open,
            "chain": [entry.to_dict() for entry in self.chain],
            "provenance": (
                self.provenance.to_dict() if self.provenance is not None else None
            ),
        }


class AdmissionController:
    """A bounded in-flight gate: admit up to ``capacity``, shed the rest.

    Thread-safe and deliberately tiny — the point is that overload
    costs the shed requests a cheap typed response instead of costing
    every request unbounded queueing latency.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ConfigError("admission capacity must be >= 1")
        self._capacity = capacity
        self._inflight = 0
        self._lock = threading.Lock()
        self.shed_total = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def inflight(self) -> int:
        return self._inflight

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= self._capacity:
                self.shed_total += 1
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1


class EstimateStore:
    """Serves the latest snapshot to many concurrent readers."""

    def __init__(
        self,
        history: HistoricalSpeedStore | None = None,
        network: RoadNetwork | None = None,
        clock: Clock | None = None,
        staleness: StalenessPolicy | None = None,
        admission: AdmissionController | None = None,
        breaker: CircuitBreaker | None = None,
        confidence: float = 0.90,
        tracer: ReadTracer | None = None,
    ) -> None:
        self._history = history
        self._network = network
        self._clock = clock
        self._staleness = staleness or StalenessPolicy()
        self._admission = admission or AdmissionController()
        self._breaker = breaker
        self._tracer = tracer or ReadTracer()
        # Freshness buckets aligned with the staleness ladder, so the
        # histogram directly answers "what fraction of reads were served
        # inside the soft window" — the freshness SLI.
        soft, hard = self._staleness.soft_after_s, self._staleness.hard_after_s
        self._freshness_buckets = tuple(
            sorted({soft / 4, soft / 2, soft, (soft + hard) / 2, hard, 2 * hard})
        )
        self._z = z_for_confidence(confidence)
        self._publish_lock = threading.Lock()
        # The one mutable cell readers touch: (snapshot, received_at,
        # position, columns). Swapped atomically by publish; readers
        # copy the reference once per read and work off the immutable
        # snapshot and read columns it points to.
        self._current: _Current | None = None
        # (road ids, road -> position) of the last published snapshot.
        self._positions: tuple[tuple[int, ...], dict[int, int]] | None = None
        self._interval_s = (
            history.grid.interval_minutes * 60.0 if history is not None else None
        )
        if history is not None:
            deviations = history.deviation_matrix()
            self._prior_dev_std = deviations.std(axis=0)
            self._column = {road: i for i, road in enumerate(history.road_ids)}
        else:
            self._prior_dev_std = None
            self._column = {}
        if network is not None:
            self._midpoints = {
                road: network.segment_midpoint(road)
                for road in network.road_ids()
            }
        else:
            self._midpoints = {}

    # ------------------------------------------------------------------
    # Write path (the publisher's side)
    # ------------------------------------------------------------------
    @property
    def staleness(self) -> StalenessPolicy:
        return self._staleness

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def breaker(self) -> CircuitBreaker | None:
        return self._breaker

    def latest(self) -> EstimateSnapshot | None:
        current = self._current
        return current[0] if current is not None else None

    @property
    def version(self) -> int | None:
        snapshot = self.latest()
        return snapshot.version if snapshot is not None else None

    def publish(self, snapshot: EstimateSnapshot) -> bool:
        """Atomically install ``snapshot`` as the served state.

        Rejects (returns False, keeps the current snapshot) when the
        checksum does not verify or the version does not advance —
        garbage and replays are dropped at the door, not served.
        """
        recorder = get_recorder()
        with recorder.span("serving.store.verify", version=snapshot.version):
            verified = snapshot.verify()
        if not verified:
            recorder.count("serving.publish_rejected", reason="checksum")
            recorder.event(
                "publish_rejected", version=snapshot.version, reason="checksum"
            )
            return False
        with self._publish_lock:
            current = self._current
            if current is not None and snapshot.version <= current[0].version:
                recorder.count("serving.publish_rejected", reason="version")
                return False
            position, columns = self._read_columns(snapshot)
            self._current = (snapshot, self._now(), position, columns)
        if self._breaker is not None:
            # A fresh snapshot is a new round for the serving breaker:
            # an open breaker gets its half-open probe.
            self._breaker.begin_round()
        recorder.count("serving.publish")
        recorder.gauge("serving.snapshot_version", snapshot.version)
        return True

    def _read_columns(
        self, snapshot: EstimateSnapshot
    ) -> tuple[dict[int, int], tuple[list, ...]]:
        """Road -> position and the read columns for ``snapshot``.

        The columns are (speed, lower, upper, std, trend, p_rise,
        is_seed, degraded), each a list of Python objects in road
        order. The position map is rebuilt only when the snapshot's
        road ids differ from the previous one's.
        """
        estimates, bands = snapshot.estimates, snapshot.bands
        roads = estimates.road_ids
        cached = self._positions
        if cached is None or not (cached[0] is roads or cached[0] == roads):
            cached = (roads, {road: i for i, road in enumerate(roads)})
            self._positions = cached
        columns = (
            estimates.speed.tolist(),
            bands.lower.tolist(),
            bands.upper.tolist(),
            bands.std.tolist(),
            _TRENDS[estimates.trend + 1].tolist(),
            estimates.p_rise.tolist(),
            estimates.is_seed.tolist(),
            estimates.degraded.tolist(),
        )
        return cached[1], columns

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, road_id: int) -> ServedEstimate:
        """One road's current estimate. Never raises."""
        return self.get_many([road_id])[road_id]

    def get_many(self, road_ids: list[int] | tuple[int, ...]) -> dict[int, ServedEstimate]:
        """Several roads, all answered from one consistent snapshot.

        With a flight recorder installed every call is one traced read
        (see :mod:`repro.obs.trace`); with the default
        :class:`~repro.obs.recorder.NullRecorder` the read path is
        exactly the untraced hot path.
        """
        recorder = get_recorder()
        if not recorder.enabled:
            if not self._admission.try_acquire():
                return {r: ServedEstimate(r, SHED) for r in road_ids}
            try:
                return self._read(road_ids)[0]
            finally:
                self._admission.release()
        start = self._now()
        if not self._admission.try_acquire():
            recorder.count("serving.shed", reason="capacity", value=len(road_ids))
            recorder.count("serving.reads", status=SHED, value=len(road_ids))
            out = {r: ServedEstimate(r, SHED) for r in road_ids}
            counts = {SHED: len(road_ids)}
            current = self._current
        else:
            try:
                out, counts, current = self._read(road_ids)
            finally:
                self._admission.release()
        self._trace(recorder, current, counts, self._now() - start)
        return out

    def query_bbox(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> dict[int, ServedEstimate]:
        """Every road whose midpoint falls inside the bounding box."""
        if self._network is None:
            raise ConfigError(
                "bounding-box queries need the store constructed with a "
                "road network"
            )
        roads = [
            road
            for road, mid in self._midpoints.items()
            if min_x <= mid.x <= max_x and min_y <= mid.y <= max_y
        ]
        return self.get_many(roads)

    def explain(self, road_id: int) -> ReadExplanation:
        """The complete provenance chain for one road's read.

        Answers "why did this road get this number": the rung the
        ladder resolved at, a verdict for *every* rung (unavailable
        included), the snapshot version/age judged against, and the
        producing round's provenance when the snapshot carries one.
        Diagnostics only — bypasses admission and never mutates breaker
        state, so explaining a struggling store cannot make it worse.
        Never raises.
        """
        current = self._current
        now = self._now()
        breaker_open = self._breaker_open()
        if breaker_open:
            served = self._baseline_or_unavailable(road_id, current, now)
        else:
            try:
                served = self._serve([road_id], current, now)[road_id]
            except Exception:  # noqa: BLE001 - same invariant as reads
                served = self._baseline_or_unavailable(road_id, current, now)
        snapshot = current[0] if current is not None else None
        age = max(0.0, now - current[1]) if current is not None else None
        served_roads = current[2] if current is not None else {}
        get_recorder().count("serving.explains", status=served.status)
        return ReadExplanation(
            road_id=road_id,
            status=served.status,
            served=served,
            chain=self._explain_chain(
                road_id, served, snapshot, served_roads, age, breaker_open
            ),
            snapshot_version=snapshot.version if snapshot is not None else None,
            snapshot_age_s=age,
            staleness=self._staleness,
            breaker_open=breaker_open,
            provenance=snapshot.provenance if snapshot is not None else None,
        )

    def _explain_chain(
        self,
        road: int,
        served: ServedEstimate,
        snapshot: EstimateSnapshot | None,
        served_roads: dict[int, int],
        age: float | None,
        breaker_open: bool,
    ) -> tuple[RungDecision, ...]:
        """One verdict per ladder rung, in :data:`~repro.obs.trace.RUNG_ORDER`."""
        soft = self._staleness.soft_after_s
        hard = self._staleness.hard_after_s
        decisions: dict[str, RungDecision] = {}
        decisions[SHED] = RungDecision(
            rung=SHED,
            taken=False,
            reason=(
                f"explain bypasses admission "
                f"({self._admission.inflight}/{self._admission.capacity} in flight)"
            ),
        )
        if breaker_open:
            snapshot_reason: str | None = (
                "breaker open: snapshot path short-circuited"
            )
        elif snapshot is None:
            snapshot_reason = "no snapshot has ever been published"
        elif road not in served_roads:
            snapshot_reason = f"road absent from snapshot v{snapshot.version}"
        elif age is not None and age > hard:
            snapshot_reason = (
                f"snapshot age {age:.0f}s past hard threshold {hard:.0f}s"
            )
        else:
            snapshot_reason = None  # the snapshot path answered
        if snapshot_reason is not None:
            decisions[FRESH] = RungDecision(FRESH, False, snapshot_reason)
            decisions[STALE] = RungDecision(STALE, False, snapshot_reason)
        elif served.status == FRESH:
            decisions[FRESH] = RungDecision(
                FRESH,
                True,
                f"snapshot v{snapshot.version} age {age:.0f}s within "
                f"soft threshold {soft:.0f}s",
            )
            decisions[STALE] = RungDecision(
                STALE, False, "not needed: fresh rung answered"
            )
        else:
            decisions[FRESH] = RungDecision(
                FRESH,
                False,
                f"snapshot age {age:.0f}s past soft threshold {soft:.0f}s",
            )
            decisions[STALE] = RungDecision(
                STALE,
                True,
                f"served from snapshot v{snapshot.version} with uncertainty "
                f"band widened x{self._staleness.stale_inflation:g}",
            )
        if served.status == BASELINE:
            decisions[BASELINE] = RungDecision(
                BASELINE,
                True,
                f"historical bucket mean for interval {served.interval}",
            )
            decisions[UNAVAILABLE] = RungDecision(
                UNAVAILABLE, False, "not needed: baseline answered"
            )
        elif served.status == UNAVAILABLE:
            if self._history is None:
                baseline_reason = "no history store configured"
            elif road not in self._column:
                baseline_reason = "road absent from the history store"
            else:
                baseline_reason = "baseline not reached"
            decisions[BASELINE] = RungDecision(BASELINE, False, baseline_reason)
            decisions[UNAVAILABLE] = RungDecision(
                UNAVAILABLE,
                True,
                "typed refusal: no snapshot answer and no baseline",
            )
        else:
            decisions[BASELINE] = RungDecision(
                BASELINE, False, "not needed: snapshot answered"
            )
            decisions[UNAVAILABLE] = RungDecision(
                UNAVAILABLE, False, "not reached"
            )
        return tuple(decisions[rung] for rung in RUNG_ORDER)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return (self._clock or get_clock()).monotonic()

    def _read(
        self, road_ids
    ) -> tuple[dict[int, ServedEstimate], dict[str, int], _Current | None]:
        """Serve ``road_ids``: (reads, status counts, served state).

        The served state is returned so the read's trace names the
        snapshot it was served from, even if a publish lands before the
        trace is written.
        """
        recorder = get_recorder()
        # One reference copy: every road in this read sees the same
        # snapshot even if a publish lands mid-loop.
        current = self._current
        now = self._now()
        if self._breaker is not None and not self._breaker.allow():
            recorder.count("serving.breaker_short_circuit", value=len(road_ids))
            out = {
                r: self._baseline_or_unavailable(r, current, now)
                for r in road_ids
            }
            return self._account_read(recorder, out, current, now)
        try:
            out = self._serve(road_ids, current, now)
        except Exception:  # noqa: BLE001 - the reader never sees this
            if self._breaker is not None:
                self._breaker.record_failure()
            recorder.count("serving.read_errors")
            out = {
                r: self._baseline_or_unavailable(r, current, now)
                for r in road_ids
            }
        else:
            if self._breaker is not None:
                self._breaker.record_success()
        return self._account_read(recorder, out, current, now)

    @staticmethod
    def _account_read(
        recorder,
        out: dict[int, ServedEstimate],
        current: _Current | None,
        now: float,
    ) -> tuple[dict[int, ServedEstimate], dict[str, int], _Current | None]:
        """Count statuses once per read (batched per-status increments)."""
        counts: dict[str, int] = {}
        for served in out.values():
            counts[served.status] = counts.get(served.status, 0) + 1
        for status, n in counts.items():
            recorder.count("serving.reads", status=status, value=n)
        if current is not None:
            recorder.gauge("serving.snapshot_age_seconds", now - current[1])
        return out, counts, current

    def _breaker_open(self) -> bool:
        return self._breaker is not None and self._breaker.state is BreakerState.OPEN

    def _trace(
        self,
        recorder,
        current: _Current | None,
        status_counts: dict[str, int],
        latency_s: float,
    ) -> None:
        """Account one finished read of ``current`` to the tracer and histograms."""
        if current is not None:
            version: int | None = current[0].version
            age: float | None = max(0.0, self._now() - current[1])
        else:
            version = age = None
        recorder.observe("serving.read_seconds", latency_s)
        if age is not None:
            recorder.observe(
                "serving.freshness_seconds", age, buckets=self._freshness_buckets
            )
        self._tracer.record_read(
            recorder,
            status_counts,
            latency_s,
            snapshot_version=version,
            age_s=age,
            breaker_open=self._breaker_open(),
            inflight=self._admission.inflight,
            capacity=self._admission.capacity,
        )

    def _serve(
        self,
        roads: list[int] | tuple[int, ...],
        current: _Current | None,
        now: float,
    ) -> dict[int, ServedEstimate]:
        """Each road's read from ``current``, or its fallback.

        Age and staleness are judged once for the whole read; each road
        then costs one position lookup and one index per column.
        """
        if current is None:
            return {r: self._baseline_or_unavailable(r, current, now) for r in roads}
        snapshot, received_at, position, columns = current
        age = max(0.0, now - received_at)
        if age > self._staleness.hard_after_s:
            return {r: self._baseline_or_unavailable(r, current, now) for r in roads}
        speeds, lowers, uppers, stds, trends, p_rises, seeds, degraded = columns
        stale = age > self._staleness.soft_after_s
        status = STALE if stale else FRESH
        inflate = self._staleness.stale_inflation
        version, interval = snapshot.version, snapshot.interval
        out: dict[int, ServedEstimate] = {}
        for road in roads:
            i = position.get(road)
            if i is None:
                out[road] = self._baseline_or_unavailable(road, current, now)
                continue
            speed, lower, upper, std = speeds[i], lowers[i], uppers[i], stds[i]
            if stale:
                std = std * inflate
                lower = max(0.0, speed - (speed - lower) * inflate)
                upper = speed + (upper - speed) * inflate
            out[road] = ServedEstimate(
                road, status, speed, lower, upper, std, trends[i], p_rises[i],
                seeds[i], degraded[i] or stale, stale, version, age, interval,
            )
        return out

    def _baseline_or_unavailable(
        self,
        road: int,
        current: _Current | None,
        now: float,
    ) -> ServedEstimate:
        """The historical-mean fallback, or a typed refusal."""
        version = age = interval = None
        if current is not None:
            snapshot, received_at = current[0], current[1]
            version = snapshot.version
            age = max(0.0, now - received_at)
            interval = snapshot.interval
            if self._interval_s:
                interval += int(age // self._interval_s)
        if self._history is None or road not in self._column:
            return ServedEstimate(
                road, UNAVAILABLE, None, None, None, None, None, None,
                False, False, False, version, age,
            )
        if interval is None:
            # Cold start: no snapshot ever seen, so no notion of "now"
            # beyond the grid's first interval.
            interval = 0
        speed = self._history.historical_speed(road, interval)
        std = max(0.1, float(self._prior_dev_std[self._column[road]]) * speed)
        margin = self._z * std
        return ServedEstimate(
            road, BASELINE, speed, max(0.0, speed - margin), speed + margin, std,
            None, None, False, True, True, version, age, interval,
        )
