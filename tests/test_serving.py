"""Snapshot serving: snapshots, the store, and the publisher."""

import hashlib
import json
import struct
from pathlib import Path
from types import MappingProxyType

import pytest

from repro.core.breaker import BreakerState, CircuitBreaker
from repro.core.clock import ManualClock
from repro.core.config import PipelineConfig
from repro.core.errors import ConfigError, ServingError, SnapshotIntegrityError
from repro.core.pipeline import SpeedEstimationSystem
from repro.core.types import SpeedEstimate, Trend
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.workers import WorkerPool, WorkerPoolParams
from repro.obs.trace import RUNG_ORDER
from repro.serving import (
    BASELINE,
    FRESH,
    SHED,
    STALE,
    UNAVAILABLE,
    AdmissionController,
    EstimateSnapshot,
    EstimateStore,
    RoundProvenance,
    SnapshotPublisher,
    StageTiming,
    StalenessPolicy,
    default_watchdog,
    load_snapshot,
    recover_latest,
    save_snapshot,
    snapshot_path,
)
from repro.speed.uncertainty import SpeedBand, UncertaintyModel
from tests.oracles.snapshot import write_format2


def make_provenance(round_index=4, **overrides):
    payload = dict(
        round_index=round_index,
        seed_budget=8,
        degraded=False,
        substituted=0,
        stages=(
            StageTiming(stage="collect", seconds=12.5, attempts=1, ok=True),
            StageTiming(stage="estimate", seconds=3.25, attempts=2, ok=True),
        ),
        deadline_s=900.0,
        elapsed_s=15.75,
    )
    payload.update(overrides)
    return RoundProvenance(**payload)


def make_snapshot(version=0, interval=3, roads=(1, 2, 3), speed=40.0,
                  substituted=None, degraded=False, provenance=None):
    estimates = {}
    bands = {}
    for road in roads:
        estimates[road] = SpeedEstimate(
            road_id=road,
            interval=interval,
            speed_kmh=speed,
            trend=Trend.RISE,
            trend_probability=0.8,
            is_seed=road == roads[0],
            degraded=False,
        )
        bands[road] = SpeedBand(
            road_id=road,
            interval=interval,
            speed_kmh=speed,
            lower_kmh=speed - 2.0,
            upper_kmh=speed + 2.0,
            std_kmh=1.2,
            confidence=0.9,
        )
    return EstimateSnapshot.build(
        version, interval, estimates, bands,
        substituted=substituted, degraded=degraded, provenance=provenance,
    )


class TestEstimateSnapshot:
    def test_build_verifies(self):
        snapshot = make_snapshot()
        assert snapshot.verify()
        assert snapshot.num_roads == 3
        assert not snapshot.degraded

    def test_substitutions_imply_degraded(self):
        snapshot = make_snapshot(substituted={1: "stale"})
        assert snapshot.degraded
        assert snapshot.substituted[1] == "stale"

    def test_mappings_are_read_only(self):
        snapshot = make_snapshot()
        with pytest.raises(TypeError):
            snapshot.estimates[99] = snapshot.estimates[1]

    def test_empty_snapshot_rejected(self):
        with pytest.raises(ServingError):
            EstimateSnapshot.build(0, 0, {}, {})

    def test_negative_version_rejected(self):
        with pytest.raises(ServingError):
            make_snapshot(version=-1)

    def test_missing_band_rejected(self):
        good = make_snapshot()
        bands = dict(good.bands)
        bands.pop(2)
        with pytest.raises(ServingError, match="lack uncertainty bands"):
            EstimateSnapshot.build(1, 3, dict(good.estimates), bands)

    def test_json_roundtrip_preserves_content(self):
        snapshot = make_snapshot(version=7, substituted={2: "prior"})
        restored = EstimateSnapshot.from_bytes(snapshot.to_bytes())
        assert restored.checksum == snapshot.checksum
        assert restored.version == 7
        assert restored.estimates[1] == snapshot.estimates[1]
        assert restored.bands[3] == snapshot.bands[3]
        assert dict(restored.substituted) == {2: "prior"}

    def test_tampered_payload_rejected(self):
        data = make_snapshot().to_bytes()
        # Every road's speed column entry: 40.0 -> 80.0.
        tampered = data.replace(struct.pack("<d", 40.0), struct.pack("<d", 80.0))
        assert tampered != data
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            EstimateSnapshot.from_bytes(tampered)

    def test_truncated_payload_rejected(self):
        data = make_snapshot().to_bytes()
        with pytest.raises(SnapshotIntegrityError):
            EstimateSnapshot.from_bytes(data[: len(data) // 2])

    def test_wrong_format_version_rejected(self):
        data = make_snapshot().to_bytes()
        tampered = data.replace(b'"format":3', b'"format":999')
        assert tampered != data
        with pytest.raises(SnapshotIntegrityError, match="format"):
            EstimateSnapshot.from_bytes(tampered)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        snapshot = make_snapshot(version=12)
        path = save_snapshot(snapshot, tmp_path)
        assert path == snapshot_path(tmp_path, 12)
        assert load_snapshot(path).checksum == snapshot.checksum

    def test_recover_picks_newest(self, tmp_path):
        for version in (0, 1, 2):
            save_snapshot(make_snapshot(version=version), tmp_path)
        result = recover_latest(tmp_path)
        assert result.snapshot.version == 2
        assert result.scanned == 3
        assert result.corrupt == ()

    def test_recover_skips_corrupt_newest(self, tmp_path):
        save_snapshot(make_snapshot(version=0), tmp_path)
        path = save_snapshot(make_snapshot(version=1), tmp_path)
        path.write_bytes(path.read_bytes()[:40] + b"#CORRUPT")
        result = recover_latest(tmp_path)
        assert result.snapshot.version == 0
        assert result.corrupt == (path.name,)

    def test_recover_empty_or_missing_dir(self, tmp_path):
        assert recover_latest(tmp_path).snapshot is None
        assert recover_latest(tmp_path / "nope").snapshot is None


class TestStalenessPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"soft_after_s": 0.0},
            {"soft_after_s": 100.0, "hard_after_s": 50.0},
            {"stale_inflation": 0.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StalenessPolicy(**kwargs)


class TestAdmissionController:
    def test_capacity_enforced(self):
        gate = AdmissionController(capacity=2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        assert gate.shed_total == 1
        gate.release()
        assert gate.try_acquire()

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigError):
            AdmissionController(capacity=0)


class TestEstimateStore:
    def fresh_store(self, **kwargs):
        clock = ManualClock()
        store = EstimateStore(
            clock=clock,
            staleness=StalenessPolicy(soft_after_s=100.0, hard_after_s=1000.0),
            **kwargs,
        )
        return store, clock

    def test_cold_start_is_unavailable_not_an_error(self):
        store, _ = self.fresh_store()
        served = store.get(1)
        assert served.status == UNAVAILABLE
        assert not served.answered

    def test_fresh_read_matches_snapshot(self):
        store, _ = self.fresh_store()
        assert store.publish(make_snapshot(speed=42.0))
        served = store.get(1)
        assert served.status == FRESH
        assert served.speed_kmh == 42.0
        assert served.lower_kmh == 40.0
        assert served.upper_kmh == 44.0
        assert not served.stale and not served.degraded
        assert served.snapshot_version == 0

    def test_soft_staleness_widens_bands(self):
        store, clock = self.fresh_store()
        store.publish(make_snapshot(speed=42.0))
        clock.advance(500.0)
        served = store.get(1)
        assert served.status == STALE
        assert served.stale and served.degraded
        # 2 km/h margins widened by the default 1.5x inflation.
        assert served.lower_kmh == pytest.approx(39.0)
        assert served.upper_kmh == pytest.approx(45.0)
        assert served.std_kmh == pytest.approx(1.2 * 1.5)
        assert served.speed_kmh == 42.0  # the value itself is unchanged

    def test_hard_staleness_serves_baseline(self, small_dataset):
        store = EstimateStore(
            history=small_dataset.store,
            clock=(clock := ManualClock()),
            staleness=StalenessPolicy(soft_after_s=100.0, hard_after_s=1000.0),
        )
        road = small_dataset.network.road_ids()[0]
        interval = 30
        store.publish(make_snapshot(interval=interval, roads=(road,)))
        clock.advance(5000.0)
        served = store.get(road)
        assert served.status == BASELINE
        assert served.degraded and served.stale
        # Age maps to the interval the clock says it is now.
        elapsed = int(5000.0 // (small_dataset.grid.interval_minutes * 60.0))
        expected_interval = interval + elapsed
        assert served.interval == expected_interval
        assert served.speed_kmh == pytest.approx(
            small_dataset.store.historical_speed(road, expected_interval)
        )
        assert served.lower_kmh < served.speed_kmh < served.upper_kmh

    def test_road_missing_from_snapshot_without_history(self):
        store, _ = self.fresh_store()
        store.publish(make_snapshot(roads=(1, 2)))
        assert store.get(999).status == UNAVAILABLE

    def test_replay_and_stale_version_rejected(self):
        store, _ = self.fresh_store()
        assert store.publish(make_snapshot(version=5))
        assert not store.publish(make_snapshot(version=5))
        assert not store.publish(make_snapshot(version=4))
        assert store.version == 5
        assert store.publish(make_snapshot(version=6))

    def test_corrupted_snapshot_never_installed(self):
        store, _ = self.fresh_store()
        good = make_snapshot(version=0)
        store.publish(good)
        bad = make_snapshot(version=1)
        object.__setattr__(bad, "checksum", "0" * 64)
        assert not bad.verify()
        assert not store.publish(bad)
        assert store.version == 0  # still serving the good one

    def test_overload_sheds_with_typed_response(self):
        store, _ = self.fresh_store(
            admission=AdmissionController(capacity=1)
        )
        store.publish(make_snapshot())
        gate = store.admission
        assert gate.try_acquire()  # saturate from "another reader"
        served = store.get(1)
        assert served.status == SHED
        assert not served.answered
        gate.release()
        assert store.get(1).status == FRESH

    def test_open_breaker_short_circuits_to_baseline(self, small_dataset):
        breaker = CircuitBreaker(failure_threshold=1)
        store = EstimateStore(
            history=small_dataset.store,
            clock=ManualClock(),
            breaker=breaker,
        )
        road = small_dataset.network.road_ids()[0]
        store.publish(make_snapshot(roads=(road,)))
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        served = store.get(road)
        assert served.status == BASELINE
        assert served.answered

    def test_get_many_answers_every_road(self):
        store, _ = self.fresh_store()
        store.publish(make_snapshot(roads=(1, 2, 3)))
        served = store.get_many([1, 2, 99])
        assert served[1].status == FRESH
        assert served[2].status == FRESH
        assert served[99].status == UNAVAILABLE

    def test_query_bbox(self, small_dataset):
        store = EstimateStore(
            network=small_dataset.network, clock=ManualClock()
        )
        roads = tuple(small_dataset.network.road_ids())
        store.publish(make_snapshot(roads=roads))
        box = small_dataset.network.bounding_box()
        served = store.query_bbox(box.min_x, box.min_y, box.max_x, box.max_y)
        assert len(served) == len(roads)
        assert all(s.status == FRESH for s in served.values())
        # A degenerate box away from the network matches nothing.
        assert store.query_bbox(-1e9, -1e9, -1e9 + 1, -1e9 + 1) == {}

    def test_query_bbox_without_network_is_a_config_error(self):
        store, _ = self.fresh_store()
        with pytest.raises(ConfigError):
            store.query_bbox(0, 0, 1, 1)


class TestRoundProvenance:
    def test_dict_round_trip(self):
        provenance = make_provenance()
        restored = RoundProvenance.from_dict(provenance.to_dict())
        assert restored == provenance
        assert restored.stage("collect").seconds == 12.5
        assert restored.stage("nope") is None

    def test_negative_round_index_rejected(self):
        with pytest.raises(ServingError):
            make_provenance(round_index=-1)

    def test_snapshot_json_round_trip_preserves_provenance(self):
        snapshot = make_snapshot(provenance=make_provenance())
        restored = EstimateSnapshot.from_bytes(snapshot.to_bytes())
        assert restored.provenance == snapshot.provenance
        assert restored.checksum == snapshot.checksum
        # A provenance-free snapshot restores to None, not a default.
        assert EstimateSnapshot.from_bytes(
            make_snapshot().to_bytes()
        ).provenance is None

    def test_checksum_covers_provenance(self):
        data = make_snapshot(provenance=make_provenance(seed_budget=8)).to_bytes()
        # The persisted header is the canonical (no-whitespace) encoding.
        tampered = data.replace(b'"seed_budget":8,', b'"seed_budget":80,')
        assert tampered != data
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            EstimateSnapshot.from_bytes(tampered)

    def test_persisted_provenance_survives_recovery(self, tmp_path):
        snapshot = make_snapshot(version=3, provenance=make_provenance())
        save_snapshot(snapshot, tmp_path)
        recovered = recover_latest(tmp_path).snapshot
        assert recovered.provenance == snapshot.provenance


class TestExplain:
    def fresh_store(self, **kwargs):
        clock = ManualClock()
        store = EstimateStore(
            clock=clock,
            staleness=StalenessPolicy(soft_after_s=100.0, hard_after_s=1000.0),
            **kwargs,
        )
        return store, clock

    def assert_complete_chain(self, explanation):
        assert tuple(d.rung for d in explanation.chain) == RUNG_ORDER
        assert all(d.reason for d in explanation.chain)
        taken = [d.rung for d in explanation.chain if d.taken]
        assert taken == [explanation.status]

    def test_fresh_read_explained(self):
        store, _ = self.fresh_store()
        store.publish(make_snapshot(provenance=make_provenance(round_index=4)))
        explanation = store.explain(1)
        assert explanation.status == FRESH
        self.assert_complete_chain(explanation)
        assert "within" in explanation.decision(FRESH).reason
        assert explanation.snapshot_version == 0
        assert explanation.snapshot_age_s == 0.0
        # The provenance chain reaches back into the producing round.
        assert explanation.provenance.round_index == 4
        assert explanation.provenance.stage("collect").ok

    def test_stale_read_explained(self):
        store, clock = self.fresh_store()
        store.publish(make_snapshot())
        clock.advance(500.0)
        explanation = store.explain(1)
        assert explanation.status == STALE
        self.assert_complete_chain(explanation)
        assert "past soft threshold" in explanation.decision(FRESH).reason
        assert "widened" in explanation.decision(STALE).reason

    def test_baseline_read_explained(self, small_dataset):
        store = EstimateStore(
            history=small_dataset.store,
            clock=(clock := ManualClock()),
            staleness=StalenessPolicy(soft_after_s=100.0, hard_after_s=1000.0),
        )
        road = small_dataset.network.road_ids()[0]
        store.publish(make_snapshot(roads=(road,)))
        clock.advance(5000.0)
        explanation = store.explain(road)
        assert explanation.status == BASELINE
        self.assert_complete_chain(explanation)
        assert "past hard threshold" in explanation.decision(FRESH).reason
        assert "historical bucket mean" in explanation.decision(BASELINE).reason

    def test_unavailable_cold_start_explained(self):
        store, _ = self.fresh_store()
        explanation = store.explain(1)
        assert explanation.status == UNAVAILABLE
        self.assert_complete_chain(explanation)
        assert (
            explanation.decision(FRESH).reason
            == "no snapshot has ever been published"
        )
        assert (
            explanation.decision(BASELINE).reason
            == "no history store configured"
        )
        assert "typed refusal" in explanation.decision(UNAVAILABLE).reason
        assert explanation.snapshot_version is None
        assert explanation.provenance is None

    def test_road_absent_from_snapshot_explained(self):
        store, _ = self.fresh_store()
        store.publish(make_snapshot(roads=(1, 2)))
        explanation = store.explain(999)
        assert explanation.status == UNAVAILABLE
        assert "absent from snapshot v0" in explanation.decision(FRESH).reason

    def test_open_breaker_explained_without_mutating_it(self, small_dataset):
        breaker = CircuitBreaker(failure_threshold=1)
        store = EstimateStore(
            history=small_dataset.store,
            clock=ManualClock(),
            breaker=breaker,
        )
        road = small_dataset.network.road_ids()[0]
        store.publish(make_snapshot(roads=(road,)))
        breaker.record_failure()
        explanation = store.explain(road)
        assert explanation.status == BASELINE
        assert explanation.breaker_open
        assert "breaker open" in explanation.decision(FRESH).reason
        self.assert_complete_chain(explanation)
        # Diagnostics never consume the breaker's half-open probe.
        assert breaker.state is BreakerState.OPEN

    def test_explain_bypasses_admission(self):
        store, _ = self.fresh_store(admission=AdmissionController(capacity=1))
        store.publish(make_snapshot())
        assert store.admission.try_acquire()  # saturate the gate
        explanation = store.explain(1)
        assert explanation.status == FRESH  # not shed
        assert "bypasses admission" in explanation.decision(SHED).reason

    def test_to_dict_is_json_serialisable(self):
        store, _ = self.fresh_store()
        store.publish(make_snapshot(provenance=make_provenance()))
        doc = json.loads(json.dumps(store.explain(1).to_dict()))
        assert doc["status"] == FRESH
        assert [d["rung"] for d in doc["chain"]] == list(RUNG_ORDER)
        assert doc["provenance"]["seed_budget"] == 8


class TestBreakerExtraction:
    """The breaker is a core utility; the crowd facade re-exports it."""

    def test_crowd_facade_reexports_core_breaker(self):
        import repro.crowd
        from repro.core import breaker as core_breaker
        from repro.crowd import health

        assert repro.crowd.CircuitBreaker is core_breaker.CircuitBreaker
        assert repro.crowd.BreakerState is core_breaker.BreakerState
        assert not hasattr(health, "CircuitBreaker")
        assert not hasattr(health, "BreakerState")

    def test_core_package_exports(self):
        import repro.core

        assert repro.core.CircuitBreaker is CircuitBreaker
        assert repro.core.BreakerState is BreakerState


@pytest.fixture(scope="module")
def served_system(small_dataset):
    system = SpeedEstimationSystem.from_parts(
        small_dataset.network,
        small_dataset.store,
        small_dataset.graph,
        PipelineConfig(),
    )
    system.select_seeds(8)
    return system


@pytest.fixture()
def platform():
    pool = WorkerPool.sample(
        60, WorkerPoolParams(noise_std_frac=0.10), seed=7
    )
    return CrowdsourcingPlatform(pool, workers_per_task=3)


class TestSnapshotPublisher:
    def build(self, system, small_dataset, tmp_path, clock=None):
        clock = clock or ManualClock()
        interval_s = small_dataset.grid.interval_minutes * 60.0
        store = EstimateStore(
            history=small_dataset.store,
            network=small_dataset.network,
            clock=clock,
        )
        publisher = SnapshotPublisher(
            system,
            store,
            UncertaintyModel(system.estimator, small_dataset.store),
            watchdog=default_watchdog(interval_s, clock=clock),
            clock=clock,
            snapshot_dir=tmp_path,
        )
        return publisher, store, clock

    def test_round_publishes_and_persists(
        self, served_system, small_dataset, platform, tmp_path
    ):
        publisher, store, _ = self.build(served_system, small_dataset, tmp_path)
        interval = small_dataset.test_day_intervals()[0]
        report = publisher.publish_round(
            interval, small_dataset.test, platform
        )
        assert report.published
        assert report.outcome == "published"
        assert report.version == 0
        assert report.num_roads == small_dataset.network.num_segments
        assert store.version == 0
        assert snapshot_path(tmp_path, 0).exists()
        served = store.get(small_dataset.network.road_ids()[0])
        assert served.status == FRESH
        # The served numbers are the snapshot's numbers.
        snapshot = store.latest()
        assert served.speed_kmh == snapshot.estimates[served.road_id].speed_kmh

    def test_published_snapshot_carries_round_provenance(
        self, served_system, small_dataset, platform, tmp_path
    ):
        publisher, store, _ = self.build(served_system, small_dataset, tmp_path)
        interval = small_dataset.test_day_intervals()[0]
        publisher.publish_round(interval, small_dataset.test, platform)
        provenance = store.latest().provenance
        assert provenance is not None
        assert provenance.round_index == 0
        assert provenance.seed_budget == len(served_system.seeds)
        assert not provenance.degraded and provenance.substituted == 0
        assert provenance.stages, "supervised stage timings missing"
        assert all(
            timing.ok and timing.attempts >= 1 and timing.seconds >= 0.0
            for timing in provenance.stages
        )
        assert provenance.deadline_s is not None
        assert provenance.elapsed_s >= 0.0
        # The persisted copy carries the same provenance block.
        persisted = load_snapshot(snapshot_path(tmp_path, 0))
        assert persisted.provenance == provenance

    def test_versions_increment_across_rounds(
        self, served_system, small_dataset, platform, tmp_path
    ):
        publisher, store, clock = self.build(
            served_system, small_dataset, tmp_path
        )
        intervals = small_dataset.test_day_intervals()[:3]
        for i, interval in enumerate(intervals):
            report = publisher.publish_round(
                interval, small_dataset.test, platform, crowd_seed=i
            )
            assert report.version == i
            clock.advance(60.0)
        assert store.version == 2

    def test_recover_restores_last_known_good(
        self, served_system, small_dataset, platform, tmp_path
    ):
        publisher, _, _ = self.build(served_system, small_dataset, tmp_path)
        interval = small_dataset.test_day_intervals()[0]
        publisher.publish_round(interval, small_dataset.test, platform)

        # "Restart": a fresh publisher + store over the same directory.
        restarted, store, _ = self.build(
            served_system, small_dataset, tmp_path
        )
        result = restarted.recover()
        assert result.snapshot is not None
        assert store.version == 0
        assert restarted.next_version == 1
        road = small_dataset.network.road_ids()[0]
        assert store.get(road).status == FRESH

    def test_recover_without_directory_is_a_noop(
        self, served_system, small_dataset
    ):
        clock = ManualClock()
        store = EstimateStore(clock=clock)
        publisher = SnapshotPublisher(
            served_system,
            store,
            UncertaintyModel(served_system.estimator, small_dataset.store),
            clock=clock,
        )
        assert publisher.recover().snapshot is None
        assert store.latest() is None


class TestSnapshotEncoding:
    """One serialisation per build: the persisted header and columns are
    exactly the hashed bytes, format-2 files still load, and the store's
    check stays an independent re-serialisation."""

    @staticmethod
    def _persisted_body(path):
        """(checksum written in the file, the bytes it must hash)."""
        data = path.read_bytes()
        magic = b"REPRO-SNAPSHOT 3 "
        assert data.startswith(magic)
        checksum = data[len(magic):len(magic) + 64].decode("ascii")
        assert data[len(magic) + 64:len(magic) + 65] == b"\n"
        header, columns = data[len(magic) + 65:].split(b"\n", 1)
        return checksum, header + columns

    def test_checksum_is_sha256_of_persisted_body(self, tmp_path):
        snapshot = make_snapshot(
            version=2, substituted={2: "prior"}, provenance=make_provenance()
        )
        path = save_snapshot(snapshot, tmp_path)
        checksum, body = self._persisted_body(path)
        assert checksum == snapshot.checksum
        assert hashlib.sha256(body).hexdigest() == snapshot.checksum
        assert path.read_bytes() == snapshot.to_bytes()
        assert load_snapshot(path) == snapshot

    def test_published_round_persists_the_hashed_body(
        self, served_system, small_dataset, platform, tmp_path
    ):
        clock = ManualClock()
        store = EstimateStore(
            history=small_dataset.store, network=small_dataset.network, clock=clock
        )
        publisher = SnapshotPublisher(
            served_system,
            store,
            UncertaintyModel(served_system.estimator, small_dataset.store),
            watchdog=default_watchdog(900.0, clock=clock),
            clock=clock,
            snapshot_dir=tmp_path,
        )
        interval = small_dataset.test_day_intervals()[0]
        report = publisher.publish_round(interval, small_dataset.test, platform)
        assert report.published
        checksum, body = self._persisted_body(Path(report.persisted_path))
        assert checksum == store.latest().checksum
        assert hashlib.sha256(body).hexdigest() == store.latest().checksum

    def test_previous_envelope_still_loads(self, tmp_path):
        """Format-2 files, canonical or written with json.dumps default
        separators, load to the same snapshot: checked against their own
        JSON checksum, then re-checksummed as format 3."""
        snapshot = make_snapshot(version=5, provenance=make_provenance())
        for name, separators in (("canonical", (",", ":")), ("spaced", (", ", ": "))):
            directory = tmp_path / name
            path = write_format2(snapshot, directory, separators)
            assert path == snapshot_path(directory, snapshot.version)
            data = path.read_bytes()
            assert data.startswith(b'{"body":' if name == "canonical" else b'{"body": {')
            loaded = load_snapshot(path)
            assert loaded == snapshot
            assert loaded.checksum == snapshot.checksum
            recovered = recover_latest(directory)
            assert recovered.snapshot == snapshot
            assert recovered.corrupt == ()
            # Re-saving writes format 3 with the same checksum.
            resaved = save_snapshot(loaded, directory / "resaved")
            checksum, body = self._persisted_body(resaved)
            assert checksum == snapshot.checksum
            assert hashlib.sha256(body).hexdigest() == snapshot.checksum
            # A format-2 file is held to its own checksum.
            tampered = data.replace(b"40.0", b"80.0")
            assert tampered != data
            with pytest.raises(SnapshotIntegrityError, match="checksum"):
                EstimateSnapshot.from_bytes(tampered)

    def test_store_rejects_snapshot_tampered_after_build(self):
        store = EstimateStore(clock=ManualClock())
        snapshot = make_snapshot(version=1)
        estimates = dict(snapshot.estimates)
        estimates[2] = estimates[2].replace(speed_kmh=99.0)
        object.__setattr__(snapshot, "estimates", MappingProxyType(estimates))
        assert not snapshot.verify()
        assert not store.publish(snapshot)
        assert store.latest() is None
