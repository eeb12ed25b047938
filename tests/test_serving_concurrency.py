"""Concurrent reads during publishes: no torn reads, versions monotonic.

The store's publish is a single reference swap, so a reader that starts
on snapshot v must see v's numbers for *every* road of that read even if
v+1 lands mid-loop. To make tears detectable, each published snapshot
encodes its own version into every speed — any read mixing two
snapshots produces a road whose speed disagrees with the read's version.
"""

import threading

import pytest

from repro.core.clock import ManualClock
from repro.core.types import SpeedEstimate, Trend
from repro.obs import FlightRecorder, ReadTracer, recording
from repro.obs.report import EVENT_SCHEMAS
from repro.serving import EstimateSnapshot, EstimateStore, StalenessPolicy
from repro.speed.uncertainty import SpeedBand

ROADS = tuple(range(40))


def snapshot_for_version(version: int) -> EstimateSnapshot:
    """Every road's speed is ``version + road/1000`` — self-identifying."""
    estimates = {}
    bands = {}
    for road in ROADS:
        speed = float(version) + road / 1000.0
        estimates[road] = SpeedEstimate(
            road_id=road,
            interval=version,
            speed_kmh=speed,
            trend=Trend.RISE,
            trend_probability=0.7,
            is_seed=False,
            degraded=False,
        )
        bands[road] = SpeedBand(
            road_id=road,
            interval=version,
            speed_kmh=speed,
            lower_kmh=speed - 1.0,
            upper_kmh=speed + 1.0,
            std_kmh=0.5,
            confidence=0.9,
        )
    return EstimateSnapshot.build(version, version, estimates, bands)


def test_concurrent_reads_see_consistent_snapshots():
    clock = ManualClock()
    store = EstimateStore(
        clock=clock,
        staleness=StalenessPolicy(soft_after_s=1e9, hard_after_s=2e9),
    )
    store.publish(snapshot_for_version(0))

    num_publishes = 120
    stop = threading.Event()
    errors: list[str] = []
    reads_done = [0] * 4

    def reader(slot: int) -> None:
        last_version = -1
        while not stop.is_set():
            try:
                served = store.get_many(list(ROADS))
            except Exception as exc:  # noqa: BLE001 - the invariant
                errors.append(f"reader raised: {exc!r}")
                return
            versions = {s.snapshot_version for s in served.values()}
            if len(versions) != 1:
                errors.append(f"torn read across versions {sorted(versions)}")
                return
            (version,) = versions
            if version < last_version:
                errors.append(
                    f"version went backwards: {last_version} -> {version}"
                )
                return
            last_version = version
            for road, s in served.items():
                expected = float(version) + road / 1000.0
                if s.speed_kmh != pytest.approx(expected):
                    errors.append(
                        f"road {road}: speed {s.speed_kmh} does not match "
                        f"version {version}"
                    )
                    return
            reads_done[slot] += 1

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(len(reads_done))
    ]
    for thread in threads:
        thread.start()
    for version in range(1, num_publishes + 1):
        assert store.publish(snapshot_for_version(version))
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "reader thread wedged"

    assert errors == []
    assert sum(reads_done) > 0, "readers never completed a single read"
    assert store.version == num_publishes


def test_concurrent_publishers_keep_versions_monotonic():
    store = EstimateStore(clock=ManualClock())
    versions = list(range(60))
    accepted: list[int] = []
    lock = threading.Lock()

    def publisher(chunk: list[int]) -> None:
        for version in chunk:
            if store.publish(snapshot_for_version(version)):
                with lock:
                    accepted.append(version)

    threads = [
        threading.Thread(target=publisher, args=(versions[i::3],), daemon=True)
        for i in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)

    # Whatever interleaving happened, each version was accepted at most
    # once and the store ends on the highest accepted one. (The append
    # order of `accepted` is not the publish order, so only set-level
    # properties are asserted here; reader-observed monotonicity is
    # covered by the test above.)
    assert len(accepted) == len(set(accepted))
    assert store.version == max(accepted)
    snapshot = store.latest()
    assert snapshot.verify()


# ----------------------------------------------------------------------
# Tracing under concurrency: no torn events, accounting adds up exactly.
# ----------------------------------------------------------------------
def _traced_store(sample_every: int) -> EstimateStore:
    store = EstimateStore(
        clock=ManualClock(),
        staleness=StalenessPolicy(soft_after_s=1e9, hard_after_s=2e9),
        tracer=ReadTracer(sample_every=sample_every),
    )
    store.publish(snapshot_for_version(0))
    return store


def _hammer(store: EstimateStore, threads: int, reads_per_thread: int) -> None:
    barrier = threading.Barrier(threads)

    def reader() -> None:
        barrier.wait()
        for _ in range(reads_per_thread):
            store.get_many(list(ROADS))

    workers = [
        threading.Thread(target=reader, daemon=True) for _ in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "reader thread wedged"


def test_concurrent_traced_reads_never_tear():
    """With sample_every=1 every read is recorded: trace ids are the
    exact sequence 1..N with no gaps or duplicates, and every event is
    internally complete — the torn-trace detector.

    Assertions run on the recorder's event ring (deque appends and
    itertools id allocation are atomic under the GIL), not on registry
    counters, which make no thread-safety promise.
    """
    store = _traced_store(sample_every=1)
    threads, per_thread = 8, 40
    rec = FlightRecorder(ring_size=10_000)
    with recording(rec):
        _hammer(store, threads, per_thread)

    total = threads * per_thread
    events = [e for e in rec.events if e.get("kind") == "read_trace"]
    assert len(events) == total
    assert sorted(e["trace_id"] for e in events) == list(range(1, total + 1))
    schema = EVENT_SCHEMAS["read_trace"]
    for event in events:
        assert all(field in event for field in schema), event
        assert event["rung"] == "fresh"
        assert event["sampled"] == "interval"
        assert event["roads"] == len(ROADS)
        assert sum(event["statuses"].values()) == len(ROADS)
        assert event["snapshot_version"] == 0


def test_concurrent_healthy_reads_sample_deterministically():
    """Interval sampling is a shared atomic counter, so exactly
    ceil(N / sample_every) healthy reads are recorded no matter how the
    threads interleave."""
    store = _traced_store(sample_every=4)
    threads, per_thread = 4, 25
    rec = FlightRecorder(ring_size=10_000)
    with recording(rec):
        _hammer(store, threads, per_thread)

    total = threads * per_thread
    events = [e for e in rec.events if e.get("kind") == "read_trace"]
    assert len(events) == (total + 3) // 4
    ids = [e["trace_id"] for e in events]
    assert len(ids) == len(set(ids)), "duplicate trace ids"
    assert all(1 <= i <= total for i in ids)


class _PublishingClock(ManualClock):
    """A clock that publishes a snapshot on its n-th call once armed."""

    def __init__(self, publish_on_call: int) -> None:
        super().__init__()
        self.store: EstimateStore | None = None
        self.snapshot: EstimateSnapshot | None = None
        self._calls_left = publish_on_call

    def monotonic(self) -> float:
        if self.snapshot is not None:
            self._calls_left -= 1
            if self._calls_left == 0:
                snapshot, self.snapshot = self.snapshot, None
                self.store.publish(snapshot)
        return super().monotonic()


def test_read_trace_names_the_snapshot_the_read_served():
    """A publish between serving and tracing cannot relabel the read.

    The traced read takes a start time, serves at a second clock call
    and measures its latency at the third; v2 lands inside that third
    call, after the read served v1 and before its trace is written.
    """
    clock = _PublishingClock(publish_on_call=3)
    store = EstimateStore(
        clock=clock,
        staleness=StalenessPolicy(soft_after_s=1e9, hard_after_s=2e9),
        tracer=ReadTracer(sample_every=1),
    )
    store.publish(snapshot_for_version(1))
    clock.store, clock.snapshot = store, snapshot_for_version(2)
    rec = FlightRecorder()
    with recording(rec):
        served = store.get_many(list(ROADS))
    assert store.version == 2, "the publish must land during the read"
    assert {int(s.speed_kmh) for s in served.values()} == {1}
    traced = [
        e["snapshot_version"] for e in rec.events if e.get("kind") == "read_trace"
    ]
    assert traced == [1]
