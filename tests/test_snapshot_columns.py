"""Columnar rounds and ``SNAPSHOT_FORMAT`` 3 against the per-road path.

A round travels as columns from the compiled plan to the store:
:class:`~repro.speed.estimator.EstimateColumns`, then
:class:`~repro.speed.uncertainty.BandColumns`, then a binary snapshot
body, then per-publish read columns. The per-road path it replaced is kept
in ``tests/oracles``: the ``SpeedEstimate`` loop
(:func:`tests.oracles.snapshot.per_road_round`), the band loop
(:class:`tests.oracles.uncertainty.ScalarBands`) and the format-2 JSON
writer, all three reading Step 2 from the whole-city oracle plan
(:mod:`tests.oracles.plan`). Every served value must be bitwise the
oracle's — speed, trend, probability, seed and degraded flags, lower,
upper, std and confidence — in memory, after a reload from a format-3
file, and through the oracle's own format-2 file, which must re-checksum
to the same format-3 checksum. Cases: the default one-district plan and
a 2-worker x 4-district plan, substituted seeds, ``estimate_roads``
subsets and stale-inflated reads.

Integrity: any single flipped byte or any truncation of a format-3 file
fails to load, and recovery skips and counts it. Work: a published
round builds no per-road record objects.
"""

from __future__ import annotations

import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.config import PipelineConfig
from repro.core.errors import SnapshotIntegrityError
from repro.core.pipeline import SpeedEstimationSystem
from repro.core.pool import SharedWorkerPool
from repro.core.types import SpeedEstimate, Trend
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.workers import WorkerPool, WorkerPoolParams
from repro.history.fidelity import FidelityCacheService
from repro.obs import FlightRecorder, recording
from repro.serving import (
    EstimateSnapshot,
    EstimateStore,
    ServedEstimate,
    SnapshotPublisher,
    StalenessPolicy,
    default_watchdog,
    load_snapshot,
    recover_latest,
    save_snapshot,
    snapshot_path,
)
from repro.speed.estimator import EstimateColumns, TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.speed.plan import IntervalPlanner
from repro.speed.uncertainty import BandColumns, SpeedBand, UncertaintyModel
from repro.trend.propagation import TrendPropagationInference
from tests.oracles import MonolithicPlanner, ScalarBands
from tests.oracles.snapshot import per_road_round, write_format2

STALE_INFLATION = 1.5


@pytest.fixture(scope="module")
def fitted(small_dataset):
    params = HlmParams()
    hlm = HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph, params
    )
    return small_dataset, hlm, params


def _estimator(dataset, hlm, params, partitions=None, pool=None):
    """A production estimator and the Step-1 inference it runs on.

    ``partitions`` None is the default one-district plan.
    """
    def factory(store, network, hlm_, road_ids):
        return IntervalPlanner(
            store, network, hlm_, road_ids, partitions, pool=pool
        )
    fidelity = FidelityCacheService()
    inference = TrendPropagationInference(
        min_fidelity=params.min_fidelity, fidelity_service=fidelity
    )
    estimator = TwoStepEstimator(
        dataset.network,
        dataset.store,
        dataset.graph,
        hlm=hlm,
        trend_inference=inference,
        hlm_params=params,
        fidelity_service=fidelity,
        planner_factory=factory,
    )
    return estimator, inference


def _chunks(road_ids, num_districts):
    roads = list(road_ids)
    bounds = np.linspace(0, len(roads), num_districts + 1).astype(int)
    return [tuple(roads[bounds[i]:bounds[i + 1]]) for i in range(num_districts)]


def _speeds(dataset, seeds, interval, factor=1.0):
    return {r: dataset.test.speed(r, interval) * factor for r in seeds}


def _bits(values):
    """Floats as their exact hex (and must be Python floats), rest as is."""
    out = []
    for value in values:
        if isinstance(value, float):
            assert type(value) is float, f"{value!r} is {type(value).__name__}"
            out.append(value.hex())
        else:
            out.append(value)
    return tuple(out)


def _record_bits(est: SpeedEstimate, band: SpeedBand):
    return _bits(
        (
            est.road_id, est.interval, est.speed_kmh, est.trend,
            est.trend_probability, est.is_seed, est.degraded,
            band.road_id, band.interval, band.speed_kmh, band.lower_kmh,
            band.upper_kmh, band.std_kmh, band.confidence,
        )
    )


def _expected_read(est: SpeedEstimate, band: SpeedBand, stale: bool):
    """What a reader must get for one oracle road (the store's formula)."""
    speed, lower, upper, std = (
        est.speed_kmh, band.lower_kmh, band.upper_kmh, band.std_kmh
    )
    if stale:
        std = std * STALE_INFLATION
        lower = max(0.0, speed - (speed - lower) * STALE_INFLATION)
        upper = speed + (upper - speed) * STALE_INFLATION
    return _bits(
        (speed, lower, upper, std, est.trend, est.trend_probability,
         est.is_seed, est.degraded or stale, stale)
    )


def _assert_matches_oracle(snapshot, oracle_est, oracle_bands):
    assert list(snapshot.estimates) == list(oracle_est)
    assert list(snapshot.bands) == list(oracle_est)
    for road, est in oracle_est.items():
        assert _record_bits(snapshot.estimates[road], snapshot.bands[road]) == (
            _record_bits(est, oracle_bands[road])
        ), f"road {road}"
    store = EstimateStore(
        clock=(clock := ManualClock()),
        staleness=StalenessPolicy(
            soft_after_s=100.0, hard_after_s=1000.0, stale_inflation=STALE_INFLATION
        ),
    )
    assert store.publish(snapshot)
    roads = list(oracle_est)
    for stale in (False, True):
        served = store.get_many(roads)
        for road in roads:
            got = served[road]
            assert got.trend is None or isinstance(got.trend, Trend)
            assert _bits(
                (got.speed_kmh, got.lower_kmh, got.upper_kmh, got.std_kmh,
                 got.trend, got.trend_probability, got.is_seed, got.degraded,
                 got.stale)
            ) == _expected_read(oracle_est[road], oracle_bands[road], stale), (
                f"road {road} stale={stale}"
            )
        clock.advance(500.0)


def _whole_city(dataset, estimator, inference):
    """The same fitted model serving Step 2 through the whole-city oracle plan."""
    return TwoStepEstimator(
        dataset.network,
        dataset.store,
        dataset.graph,
        hlm=estimator.hlm,
        trend_inference=inference,
        hlm_params=estimator.hlm.params,
        fidelity_service=FidelityCacheService(),
        planner_factory=MonolithicPlanner,
    )


def _check_round(tmp_path, dataset, estimator, inference, interval, speeds,
                 roads=None, substituted=()):
    """One round through production and through the per-road oracle."""
    if roads is None:
        estimates = estimator.estimate_interval(interval, speeds)
    else:
        estimates = estimator.estimate_roads(interval, speeds, roads)
    estimates = estimates.with_degraded(substituted)
    bands = UncertaintyModel(estimator, dataset.store).bands_for(estimates, speeds)
    assert isinstance(estimates, EstimateColumns)
    assert isinstance(bands, BandColumns)

    reference = _whole_city(dataset, estimator, inference)
    oracle_est = per_road_round(
        reference, dataset.store, inference, interval, speeds, roads
    )
    for road in substituted:
        oracle_est[road] = oracle_est[road].replace(degraded=True)
    oracle_bands = ScalarBands(reference, dataset.store).bands_for(oracle_est, speeds)

    reasons = {road: "prior" for road in substituted}
    snapshot = EstimateSnapshot.build(4, interval, estimates, bands, substituted=reasons)
    _assert_matches_oracle(snapshot, oracle_est, oracle_bands)

    reloaded = load_snapshot(save_snapshot(snapshot, tmp_path / "format3"))
    assert reloaded == snapshot
    assert reloaded.checksum == snapshot.checksum
    _assert_matches_oracle(reloaded, oracle_est, oracle_bands)

    oracle_file = write_format2(
        SimpleNamespace(
            version=4, interval=interval, estimates=oracle_est, bands=oracle_bands,
            substituted=reasons, degraded=False, provenance=None,
        ),
        tmp_path / "format2",
    )
    from_oracle = load_snapshot(oracle_file)
    assert from_oracle.checksum == snapshot.checksum
    assert from_oracle == snapshot
    return estimates


class TestAgainstPerRoadPath:
    @pytest.mark.parametrize("factor", [1.0, 0.7])
    def test_monolithic_rounds(self, fitted, tmp_path, factor):
        dataset, hlm, params = fitted
        estimator, inference = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        seeds = roads[::13][:8]
        for k, interval in enumerate(dataset.test_day_intervals()[:3]):
            speeds = _speeds(dataset, seeds, interval, factor)
            _check_round(
                tmp_path / str(k), dataset, estimator, inference, interval, speeds
            )

    def test_substituted_seeds(self, fitted, tmp_path):
        dataset, hlm, params = fitted
        estimator, inference = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        seeds = roads[::13][:8]
        interval = dataset.test_day_intervals()[4]
        speeds = _speeds(dataset, seeds, interval)
        estimates = _check_round(
            tmp_path, dataset, estimator, inference, interval, speeds,
            substituted=(seeds[0], seeds[3]),
        )
        assert [road for road in estimates if estimates[road].degraded] == sorted(
            (seeds[0], seeds[3]), key=roads.index
        )

    def test_estimate_roads_subset(self, fitted, tmp_path):
        dataset, hlm, params = fitted
        estimator, inference = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        seeds = roads[::13][:8]
        interval = dataset.test_day_intervals()[2]
        speeds = _speeds(dataset, seeds, interval)
        subset = [roads[50], seeds[1], roads[3], roads[-1], roads[3]]
        estimates = _check_round(
            tmp_path, dataset, estimator, inference, interval, speeds,
            roads=subset, substituted=(seeds[1],),
        )
        assert list(estimates) == sorted(set(subset))

    def test_sharded_two_workers_four_districts(self, fitted, tmp_path):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        with SharedWorkerPool(2) as pool:
            estimator, inference = _estimator(
                dataset, hlm, params, partitions=_chunks(roads, 4), pool=pool
            )
            seeds = roads[::13][:8]
            for k, interval in enumerate(dataset.test_day_intervals()[:2]):
                speeds = _speeds(dataset, seeds, interval)
                _check_round(
                    tmp_path / f"all{k}", dataset, estimator, inference,
                    interval, speeds, substituted=(seeds[2],),
                )
                _check_round(
                    tmp_path / f"sub{k}", dataset, estimator, inference,
                    interval, speeds, roads=[seeds[0], roads[4], roads[90]],
                )


class TestColumns:
    def test_columns_are_read_only(self, fitted):
        dataset, hlm, params = fitted
        estimator, _ = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        interval = dataset.test_day_intervals()[0]
        speeds = _speeds(dataset, roads[::13][:8], interval)
        estimates = estimator.estimate_interval(interval, speeds)
        bands = UncertaintyModel(estimator, dataset.store).bands_for(estimates, speeds)
        snapshot = EstimateSnapshot.build(0, interval, estimates, bands)
        for columns in (estimates, bands, snapshot.estimates, snapshot.bands):
            for name in columns.COLUMNS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(columns, name)[0] = 0
        # with_degraded copies; the round it came from is unchanged.
        flagged = estimates.with_degraded([roads[0]])
        assert flagged[roads[0]].degraded and not estimates[roads[0]].degraded
        assert flagged == estimates.with_degraded([roads[0]])
        assert flagged != estimates

    def test_plain_dicts_convert_at_the_boundary(self, fitted):
        dataset, hlm, params = fitted
        estimator, _ = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        interval = dataset.test_day_intervals()[1]
        speeds = _speeds(dataset, roads[::13][:8], interval)
        estimates = estimator.estimate_interval(interval, speeds)
        model = UncertaintyModel(estimator, dataset.store)
        bands = model.bands_for(estimates, speeds)
        assert model.bands_for(dict(estimates), speeds) == bands
        from_dicts = EstimateSnapshot.build(1, interval, dict(estimates), dict(bands))
        assert from_dicts == EstimateSnapshot.build(1, interval, estimates, bands)
        assert dict(from_dicts.estimates) == dict(estimates)


# ----------------------------------------------------------------------
# The store's read columns
# ----------------------------------------------------------------------
def _served_from_records(snapshot, road, age, policy):
    """The read a store must serve, built from the snapshot's records."""
    est, band = snapshot.estimates[road], snapshot.bands[road]
    speed, lower, upper, std = (
        est.speed_kmh, band.lower_kmh, band.upper_kmh, band.std_kmh
    )
    stale = age > policy.soft_after_s
    if stale:
        inflate = policy.stale_inflation
        std = std * inflate
        lower = max(0.0, speed - (speed - lower) * inflate)
        upper = speed + (upper - speed) * inflate
    return ServedEstimate(
        road_id=road,
        status="stale" if stale else "fresh",
        speed_kmh=speed,
        lower_kmh=lower,
        upper_kmh=upper,
        std_kmh=std,
        trend=est.trend,
        trend_probability=est.trend_probability,
        is_seed=est.is_seed,
        degraded=est.degraded or stale,
        stale=stale,
        snapshot_version=snapshot.version,
        age_s=age,
        interval=snapshot.interval,
    )


class TestStoreColumns:
    def test_reads_equal_records_fresh_stale_and_absent(self, fitted):
        dataset, hlm, params = fitted
        estimator, _ = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        seeds = roads[::13][:8]
        interval = dataset.test_day_intervals()[5]
        speeds = _speeds(dataset, seeds, interval)
        present, absent = roads[:-6], roads[-6:] + [max(roads) + 1]
        estimates = estimator.estimate_roads(interval, speeds, present)
        estimates = estimates.with_degraded([seeds[1]])
        bands = UncertaintyModel(estimator, dataset.store).bands_for(
            estimates, speeds
        )
        snapshot = EstimateSnapshot.build(
            7, interval, estimates, bands, substituted={seeds[1]: "prior"}
        )
        policy = StalenessPolicy(
            soft_after_s=100.0, hard_after_s=1000.0, stale_inflation=STALE_INFLATION
        )
        store = EstimateStore(clock=(clock := ManualClock()), staleness=policy)
        assert store.publish(snapshot)
        statuses = set()
        for age in (0.0, 60.0, 400.0):  # fresh, fresh, stale
            served = store.get_many(roads + absent[-1:])
            for road in estimates:
                want = _served_from_records(snapshot, road, age, policy)
                got = served[road]
                assert got == want, f"road {road} age {age}"
                assert _bits(tuple(got)) == _bits(tuple(want))
                assert type(got.is_seed) is bool and type(got.degraded) is bool
                assert isinstance(got.trend, Trend)
                statuses.add(got.status)
            for road in absent:
                assert served[road] == ServedEstimate(
                    road_id=road, status="unavailable",
                    snapshot_version=7, age_s=age,
                )
            assert store.explain(seeds[1]).served == served[seeds[1]]
            clock.advance(60.0 if age == 0.0 else 340.0)
        assert statuses == {"fresh", "stale"}


# ----------------------------------------------------------------------
# Integrity of format-3 files
# ----------------------------------------------------------------------
def _small_snapshot(version, speed):
    roads = (11, 5, 42, 7)
    estimates = {
        road: SpeedEstimate(road, 9, speed + road, Trend.FALL, 0.25, road == 5)
        for road in roads
    }
    bands = {
        road: SpeedBand(road, 9, speed + road, speed, speed + 2 * road, 1.5, 0.9)
        for road in roads
    }
    return EstimateSnapshot.build(
        version, 9, estimates, bands, substituted={5: "stale"}
    )


OLDER = _small_snapshot(0, 30.0)
NEWER = _small_snapshot(1, 35.0)
NEWER_BYTES = NEWER.to_bytes()


def _assert_rejected_and_skipped(corrupted: bytes) -> None:
    with tempfile.TemporaryDirectory() as directory:
        save_snapshot(OLDER, directory)
        path = snapshot_path(directory, NEWER.version)
        path.write_bytes(corrupted)
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)
        with recording(FlightRecorder()) as rec:
            result = recover_latest(directory)
        assert result.snapshot == OLDER
        assert result.corrupt == (path.name,)
        assert rec.registry.counter("serving.snapshot_corrupt").value == 1


class TestFileIntegrity:
    def test_intact_file_loads(self):
        assert EstimateSnapshot.from_bytes(NEWER_BYTES) == NEWER

    @settings(max_examples=150, deadline=None)
    @given(
        offset=st.integers(0, len(NEWER_BYTES) - 1), mask=st.integers(1, 255)
    )
    def test_any_flipped_byte_is_rejected(self, offset, mask):
        corrupted = bytearray(NEWER_BYTES)
        corrupted[offset] ^= mask
        _assert_rejected_and_skipped(bytes(corrupted))

    @settings(max_examples=150, deadline=None)
    @given(length=st.integers(0, len(NEWER_BYTES) - 1))
    def test_any_truncation_is_rejected(self, length):
        _assert_rejected_and_skipped(NEWER_BYTES[:length])

    def test_non_utf8_torn_file_is_counted_not_raised(self, tmp_path):
        save_snapshot(OLDER, tmp_path)
        path = snapshot_path(tmp_path, NEWER.version)
        path.write_bytes(b'{"body":\xff\xfe\x00 torn')
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(path)
        result = recover_latest(tmp_path)
        assert result.snapshot == OLDER
        assert result.corrupt == (path.name,)
        store = EstimateStore(clock=ManualClock())
        assert store.publish(result.snapshot)
        served = store.get(5)
        assert served.snapshot_version == OLDER.version
        assert served.speed_kmh == OLDER.estimates[5].speed_kmh


# ----------------------------------------------------------------------
# The publisher's round
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def system(small_dataset):
    system = SpeedEstimationSystem.from_parts(
        small_dataset.network, small_dataset.store, small_dataset.graph,
        PipelineConfig(),
    )
    system.select_seeds(8)
    return system


def _platform():
    pool = WorkerPool.sample(60, WorkerPoolParams(noise_std_frac=0.10), seed=7)
    return CrowdsourcingPlatform(pool, workers_per_task=3)


class _NoShow:
    """A platform on which one seed's task is never answered."""

    def __init__(self, platform, road):
        self._platform = platform
        self._road = road

    def collect(self, tasks, seed=0):
        return self._platform.collect(
            [task for task in tasks if task.road_id != self._road], seed=seed
        )


class _HangEstimateOnce:
    """Infra faults: the first estimate attempt overruns its timeout."""

    def __init__(self, seconds):
        self._seconds = seconds

    def begin_round(self):
        pass

    def hang_seconds(self, stage):
        if stage != "estimate" or not self._seconds:
            return 0.0
        seconds, self._seconds = self._seconds, 0.0
        return seconds

    def pipeline_down(self):
        return False

    def corrupt_snapshot(self):
        return False

    def crash_before_publish(self):
        return False


def _publisher(system, dataset, tmp_path, injector=None):
    clock = ManualClock()
    store = EstimateStore(
        history=dataset.store, network=dataset.network, clock=clock
    )
    publisher = SnapshotPublisher(
        system,
        store,
        UncertaintyModel(system.estimator, dataset.store),
        watchdog=default_watchdog(900.0, clock=clock),
        clock=clock,
        snapshot_dir=tmp_path,
        injector=injector,
    )
    return publisher, store


class TestPublisherRound:
    def test_round_builds_no_record_objects(
        self, system, small_dataset, tmp_path, monkeypatch
    ):
        built = {"estimates": 0, "bands": 0}
        new_estimate, init_band = SpeedEstimate.__new__, SpeedBand.__init__

        def counting_new(cls, *args, **kwargs):
            built["estimates"] += 1
            return new_estimate(cls, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            built["bands"] += 1
            init_band(self, *args, **kwargs)

        publisher, store = _publisher(system, small_dataset, tmp_path)
        interval = small_dataset.test_day_intervals()[0]
        monkeypatch.setattr(SpeedEstimate, "__new__", counting_new)
        monkeypatch.setattr(SpeedBand, "__init__", counting_init)
        report = publisher.publish_round(interval, small_dataset.test, _platform())
        assert report.published
        assert built["estimates"] <= len(system.seeds)
        assert built["bands"] == 0
        roads = list(small_dataset.graph.road_ids)
        served = store.get_many(roads)
        assert all(served[road].status == "fresh" for road in roads)
        store.explain(roads[0])
        # Reads and explains answer from the read columns, not the records.
        assert built == {"estimates": 0, "bands": 0}
        monkeypatch.undo()
        snapshot = store.latest()
        assert served[roads[0]].speed_kmh == snapshot.estimates[roads[0]].speed_kmh

    def test_no_show_counts_substitution_once(self, system, small_dataset, tmp_path):
        missing = system.seeds[2]
        # The first estimate attempt overruns its 450 s timeout and is
        # retried: the retry must not count the substitution again.
        publisher, store = _publisher(
            system, small_dataset, tmp_path, injector=_HangEstimateOnce(460.0)
        )
        interval = small_dataset.test_day_intervals()[1]
        with recording(FlightRecorder()) as rec:
            report = publisher.publish_round(
                interval, small_dataset.test, _NoShow(_platform(), missing)
            )
        assert report.published and report.substituted == 1
        totals = rec.registry.scalar_totals()
        assert totals["serving.stage_retries{stage=estimate}"] == 1
        snapshot = store.latest()
        assert list(snapshot.substituted) == [missing]
        reason = snapshot.substituted[missing]
        substitutions = {
            key: value for key, value in totals.items()
            if key.startswith("pipeline.substitutions")
        }
        assert substitutions == {f"pipeline.substitutions{{reason={reason}}}": 1}
        assert totals["speed.degraded_estimates"] == 1
        degraded = [road for road in snapshot.estimates if snapshot.estimates[road].degraded]
        assert degraded == [missing]
        assert store.get(missing).degraded
