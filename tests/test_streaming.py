"""Long-horizon streaming soak: incremental mining + selective eviction.

A 31-simulated-day run (7 warmup + 24 streamed) through the full stack
— rolling history, estimation pipeline, snapshot serving store — built
so the expected cache behaviour is *provable*, not probabilistic:

* Streamed days repeat the warmup week cyclically. Because co-trend
  counts are order-independent sums over the window's rows, sliding a
  day out and the identical day back in leaves every statistic — and
  therefore the mined graph — untouched. Those days MUST produce empty
  deltas, zero shard evictions and zero plan shard compiles.
* Three "incident" days (a congestion pattern halving speeds on a
  scattered road subset) perturb the window. Only those days may move
  edges, drop fidelity rows, mark plan shards stale and recompile them.

The headline assertions: across the whole soak there is not a single
wholesale invalidation (``fidelity.invalidations{scope=graph}`` and
``plan.cache_flushes`` both stay 0), the incremental graph is
differential-equal to a batch re-mine after every single day, and the
flight-recorder timeline shows plan-compile work only on incident days
— the structural form of "no latency spikes".
"""

import json

import pytest

from repro.core.clock import ManualClock
from repro.core.field import SpeedField
from repro.core.pipeline import SpeedEstimationSystem
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.workers import WorkerPool, WorkerPoolParams
from repro.history.online import RollingHistory
from repro.history.timebuckets import TimeGrid
from repro.obs import FlightRecorder, set_recorder
from repro.serving import EstimateStore, SnapshotPublisher, default_watchdog
from repro.speed.uncertainty import UncertaintyModel
from repro.traffic.simulator import TrafficSimulator

WARMUP_DAYS = 7
STREAM_DAYS = 24
#: Streamed day indices that replay a perturbed day instead of the
#: cyclic repeat. Spaced one window apart (all == 3 mod 7) so each
#: incident's eviction coincides with the next incident's ingest and
#: every other day slides an identical multiset.
INCIDENT_DAYS = (10, 17, 24)
SERVE_OFFSETS = (22, 46, 71)


def _day_field(base_field, day_index):
    return SpeedField(base_field.matrix, base_field.road_ids, day_index * 96)


def _incident_field(base_field, day_index, severity):
    matrix = base_field.matrix.copy()
    # Halve speeds on every third road for a 50-interval stretch: the
    # perturbed roads disagree with their unperturbed neighbours, which
    # moves pairwise agreements (and hence edges).
    matrix[20:70, ::3] *= severity
    return SpeedField(matrix, base_field.road_ids, day_index * 96)


@pytest.fixture(scope="module")
def base_week(small_network):
    grid = TimeGrid(15)
    sim = TrafficSimulator(small_network, grid)
    field, _ = sim.simulate(0, WARMUP_DAYS, seed=29)
    days = [
        SpeedField(field.matrix[d * 96 : (d + 1) * 96], field.road_ids, d * 96)
        for d in range(WARMUP_DAYS)
    ]
    return grid, days


def _counter(rec, name, **labels):
    return rec.registry.counter(name, **labels).value


def _shard_compiles(rec):
    return sum(
        series.value for _, series in rec.registry.series("plan.shard_compiles")
    )


class TestStreamingSoak:
    def test_31_day_soak_no_wholesale_flushes(
        self, small_network, base_week, tmp_path
    ):
        grid, week = base_week
        trace_path = tmp_path / "soak_trace.jsonl"
        clock = ManualClock()
        interval_s = grid.interval_minutes * 60.0
        with FlightRecorder(path=trace_path, clock=clock) as rec:
            previous = set_recorder(rec)
            try:
                report = self._run_soak(
                    small_network, grid, week, tmp_path, clock, interval_s, rec
                )
            finally:
                set_recorder(previous)

        # --- no wholesale invalidation, ever -------------------------
        assert _counter(rec, "fidelity.invalidations", scope="graph") == 0
        assert _counter(rec, "plan.cache_flushes") == 0
        assert report["flushes"] == 0

        # --- deltas only on incident days ----------------------------
        assert set(report["delta_days"]) == set(INCIDENT_DAYS)
        assert report["rows_dropped_on_quiet_days"] == 0
        assert _counter(rec, "mining.delta_edges", kind="added") + _counter(
            rec, "mining.delta_edges", kind="removed"
        ) + _counter(rec, "mining.delta_edges", kind="reweighted") > 0

        # --- plan work only on incident days -------------------------
        assert report["compiles_on_quiet_days"] == 0
        assert report["compiles_on_incident_days"] > 0
        assert report["fidelity_misses_on_quiet_days"] == 0
        assert report["shards_evicted_on_quiet_days"] == 0
        assert _counter(rec, "plan.shards_evicted") == report["shard_evictions"]
        assert report["shard_evictions"] > 0

        # --- serving stayed healthy ----------------------------------
        assert report["rounds"] == STREAM_DAYS * len(SERVE_OFFSETS)
        assert report["published"] == report["rounds"]

        # --- flight-recorder timeline: compile spans match the counted
        #     compiles, i.e. no hidden compile work outside the counted
        #     incident-day recompiles. A plan compile is one span per
        #     cache miss; each district compile (cold or a stale-shard
        #     refresh) is one span with a district attr.
        events = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        compile_spans = [
            e
            for e in events
            if e["type"] == "span" and e["name"] == "speed.plan.compile"
        ]
        district_spans = [e for e in compile_spans if "district" in e["attrs"]]
        assert len(compile_spans) - len(district_spans) == _counter(
            rec, "plan.cache", hit="false"
        )
        assert len(district_spans) == _shard_compiles(rec)
        remine_spans = [
            e
            for e in events
            if e["type"] == "span" and e["name"] == "history.remine"
        ]
        # One re-mine per ingested day (daily cadence): the first is the
        # bootstrap, everything after is incremental.
        assert len(remine_spans) == WARMUP_DAYS + STREAM_DAYS
        assert remine_spans[0]["attrs"]["mode"] == "bootstrap"
        assert all(
            span["attrs"]["mode"] == "incremental" for span in remine_spans[1:]
        )

    def _run_soak(self, network, grid, week, tmp_path, clock, interval_s, rec):
        rolling = RollingHistory(
            network, grid, window_days=WARMUP_DAYS, remine_every_days=1
        )
        for day in week:
            rolling.ingest_day(day)
        system = SpeedEstimationSystem.from_parts(
            network, rolling.store, rolling.graph
        ).bind_rolling(rolling)
        system.reselect_seeds(8)

        store = EstimateStore(
            history=rolling.store, network=network, clock=clock
        )
        publisher = SnapshotPublisher(
            system,
            store,
            UncertaintyModel(system.estimator, rolling.store),
            watchdog=default_watchdog(interval_s, clock=clock),
            clock=clock,
            snapshot_dir=tmp_path / "snapshots",
        )
        platform = CrowdsourcingPlatform(
            WorkerPool.sample(60, WorkerPoolParams(noise_std_frac=0.1), seed=7),
            workers_per_task=3,
        )

        def serve_day(day_field, crowd_seed):
            published = 0
            for offset in SERVE_OFFSETS:
                report = publisher.publish_round(
                    day_field.intervals.start + offset,
                    day_field,
                    platform,
                    crowd_seed=crowd_seed,
                )
                published += bool(report.published)
                clock.advance(interval_s)
            return published

        # Warm the plan cache on the last warmup day so quiet streamed
        # days can be asserted compile-free from day one.
        published = serve_day(week[-1], crowd_seed=6)
        rounds = len(SERVE_OFFSETS)
        # Warmup compiles/publishes are setup, not part of the soak.
        published = 0
        rounds = 0

        delta_days = []
        compiles_quiet = compiles_incident = 0
        fidelity_misses_quiet = 0
        rows_dropped_quiet = 0
        shards_evicted_quiet = 0
        severities = {day: 0.4 + 0.1 * i for i, day in enumerate(INCIDENT_DAYS)}
        for day_index in range(WARMUP_DAYS, WARMUP_DAYS + STREAM_DAYS):
            base = week[day_index % WARMUP_DAYS]
            if day_index in severities:
                field = _incident_field(
                    base, day_index, severities[day_index]
                )
            else:
                field = _day_field(base, day_index)

            compiles_before = _shard_compiles(rec)
            fid_misses_before = _counter(rec, "fidelity.cache", hit="false")
            rows_before = _counter(rec, "fidelity.invalidations", scope="rows")
            evictions_before = _counter(rec, "plan.shards_evicted")

            rolling.ingest_day(field)
            # The differential guarantee, checked on every window state.
            rolling.verify_incremental()
            delta = rolling.last_delta
            if delta is not None and not delta.is_empty:
                delta_days.append(day_index)

            system.reselect_seeds(8)
            published += serve_day(field, crowd_seed=day_index)
            rounds += len(SERVE_OFFSETS)

            compiled = _shard_compiles(rec) - compiles_before
            if day_index in severities:
                compiles_incident += compiled
            else:
                compiles_quiet += compiled
                fidelity_misses_quiet += (
                    _counter(rec, "fidelity.cache", hit="false")
                    - fid_misses_before
                )
                rows_dropped_quiet += (
                    _counter(rec, "fidelity.invalidations", scope="rows")
                    - rows_before
                )
                shards_evicted_quiet += (
                    _counter(rec, "plan.shards_evicted") - evictions_before
                )

        stats = system.plan_cache.stats()
        return {
            "delta_days": delta_days,
            "compiles_on_quiet_days": compiles_quiet,
            "compiles_on_incident_days": compiles_incident,
            "fidelity_misses_on_quiet_days": fidelity_misses_quiet,
            "rows_dropped_on_quiet_days": rows_dropped_quiet,
            "shards_evicted_on_quiet_days": shards_evicted_quiet,
            "shard_evictions": stats.shard_evictions,
            "flushes": stats.flushes,
            "rounds": rounds,
            "published": published,
        }
