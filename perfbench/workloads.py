"""The benchmark's workloads: ``serve-rounds``, ``cold-start`` and ``stream-days``.

The cities, their simulated traffic and the incident block are fixed, so
the cost of mining, selection and incident days does not swing with
whichever graph or district a seed happens to pick. The workload seed
draws the live inputs: the crowd worker pool, the crowd answers and the
read sweeps. The program only receives the generated inputs.

Load shape: closed loops. One ``publish_round`` runs per interval and a
:class:`~repro.core.clock.ManualClock` advances one interval after each
round. Between rounds a single reader sends ``SWEEPS_PER_ROUND``
``get_many`` sweeps of ``SWEEP_ROADS`` seeded-random roads. Process
pools use at most ``POOL_WORKERS`` workers.

``serve-rounds`` and ``cold-start`` run a fixed prefix of work that is
always completed, then keep cycling until ``seconds`` have passed;
``stream-days`` runs a number of whole incident periods set by
``seconds``, so every run has the same mix of quiet and incident days.
Correctness figures (``mae_kmh``, the output digest) come from the
fixed prefix only, so they do not depend on how fast the program is.

Program calls are timed in reference units: their seconds divided by
the seconds a fixed reference computation takes around them
(:func:`measure`, :func:`host_speed_s`). The host this was built on
runs the same code ~1.6x faster or slower from one few-second stretch
to the next (other tenants); the ratio cancels that swing, the raw
seconds do not.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.core.clock import ManualClock
from repro.core.config import PipelineConfig
from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.core.pipeline import SpeedEstimationSystem
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.workers import WorkerPool, WorkerPoolParams
from repro.datasets.synthetic import build_dataset
from repro.history.online import RollingHistory
from repro.history.timebuckets import TimeGrid
from repro.roadnet.generators import sized_metropolis
from repro.serving import EstimateStore, SnapshotPublisher, default_watchdog
from repro.serving.snapshot import load_snapshot
from repro.speed.uncertainty import UncertaintyModel
from repro.traffic.simulator import TrafficSimulator

INTERVAL_MINUTES = 15
INTERVAL_S = INTERVAL_MINUTES * 60.0
SEED_FRACTION = 0.01  # K = 1% of the roads
SWEEP_ROADS = 50
SWEEPS_PER_ROUND = 100
SWEEPS_PER_PROBE = 10  # a group of ~4 ms between two host probes
POOL_WORKERS = 2
#: The cheap part of set-up (city, simulation, mining) is repeated and
#: its median reported, so ``setup_s`` is steadier than one sample.
SETUP_REPEATS = 3

METRO_TARGET = 5000  # sized_metropolis(5000): 6,438 roads
METRO_HISTORY_DAYS = 5
METRO_TRAFFIC_SEED = 5000  # as repro.datasets.metropolitan_dataset(5000)
#: serve-rounds visits these test-day slots; see _serve_slot.
SERVE_SLOTS = tuple(range(4, 96, 8))
SERVE_MIN_ROUNDS = 24
COLD_DISTRICTS = 16
COLD_MIN_ITERATIONS = 2
COLD_WARM_ROUNDS = 8

STREAM_TARGET = 2500  # sized_metropolis(2500): 3,210 roads
STREAM_WINDOW_DAYS = 5
STREAM_TRAFFIC_SEED = 2500
#: stream-days runs whole incident periods, one per this many seconds
#: of --seconds, so every run has the same mix of quiet and incident days.
STREAM_PERIOD_SECONDS = 7.5
STREAM_ROUND_SLOTS = (22, 46, 71)
INCIDENT_EVERY = 3  # streamed day i carries an incident when i % 3 == 2
INCIDENT_FRACTION = 0.03
INCIDENT_SLOTS = slice(20, 70)
INCIDENT_SEVERITY = 0.5


@dataclass
class RunRecord:
    """Everything one benchmark run measured and checked."""

    seed: int
    tracer: object | None = None
    setup_s: float = 0.0
    cold_round_ref: list[float] = field(default_factory=list)
    rounds_s: list[float] = field(default_factory=list)
    traced_rounds_s: list[float] = field(default_factory=list)
    untraced_rounds_s: list[float] = field(default_factory=list)
    reads_s: list[float] = field(default_factory=list)
    # The same operations in reference units (see host_speed_s).
    rounds_ref: list[float] = field(default_factory=list)
    reads_ref: list[float] = field(default_factory=list)
    warm_cycles_ref: list[float] = field(default_factory=list)
    cold_cycles_ref: list[float] = field(default_factory=list)
    host_speed_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    abs_error_sum: float = 0.0
    baseline_error_sum: float = 0.0
    scored_roads: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    # Per-layer counts read from the program's public stats objects.
    measured_round_spans: list[int] = field(default_factory=list)
    delta_edges: int = 0
    fidelity_hits: int = 0
    fidelity_misses: int = 0
    plan_stats: dict[str, int] = field(default_factory=dict)
    evaluations: list[int] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    tasks_failed: int = 0
    snapshot_bytes: list[int] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def add_system_stats(self, system: SpeedEstimationSystem) -> None:
        fidelity = system.fidelity_service.stats()
        self.fidelity_hits += fidelity.hits
        self.fidelity_misses += fidelity.misses
        plan = system.plan_cache.stats()
        for name in ("hits", "misses", "row_evictions", "shard_evictions"):
            self.plan_stats[name] = self.plan_stats.get(name, 0) + getattr(plan, name)

    def add_selection(self, system: SpeedEstimationSystem, scoring: bool) -> None:
        selection = system.selection
        self.evaluations.append(selection.evaluations)
        self.objectives.append(selection.final_value)
        if scoring:
            self.digest.update(repr(tuple(selection.seeds)).encode())


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


def _reference_work() -> float:
    total = 0.0
    table = {}
    for i in range(2000):
        table[i] = i * 0.5
        total += table[i] * 1.0001
    return total


def host_speed_s(run: RunRecord) -> float:
    """Seconds a fixed pure-Python computation takes now (best of three).

    Taken next to each timed operation, it measures the host's current
    speed; the operation's seconds divided by it are reference units.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, _elapsed(start))
    run.host_speed_s.append(best)
    return best


def measure(run: RunRecord, call, *args):
    """Run ``call(*args)``; returns (result, seconds, reference units).

    The host is probed before and after the call and the mean of the two
    is the reference, so a speed change during the call is half-seen.
    """
    before = host_speed_s(run)
    start = time.perf_counter()
    result = call(*args)
    seconds = _elapsed(start)
    return result, seconds, seconds / ((before + host_speed_s(run)) / 2)


def _median_build(builder):
    """Run ``builder`` SETUP_REPEATS times; (last result, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = builder()
        times.append(_elapsed(start))
    return result, statistics.median(times)


def _budget(num_roads: int) -> int:
    return max(1, round(num_roads * SEED_FRACTION))


def _platform(seed: int) -> CrowdsourcingPlatform:
    pool = WorkerPool.sample(60, WorkerPoolParams(noise_std_frac=0.1), seed=seed)
    return CrowdsourcingPlatform(pool, workers_per_task=3)


class ServingLoop:
    """One system's publisher, store and reader, driven round by round."""

    def __init__(self, run: RunRecord, system, history, network, platform, snapshot_dir):
        self.run = run
        self.history = history
        self.platform = platform
        self.clock = ManualClock()
        self.store = EstimateStore(history=history, network=network, clock=self.clock)
        self.publisher = SnapshotPublisher(
            system,
            self.store,
            UncertaintyModel(system.estimator, history),
            watchdog=default_watchdog(INTERVAL_S, clock=self.clock),
            clock=self.clock,
            snapshot_dir=snapshot_dir,
        )
        self.roads = list(network.road_ids())
        self.reader = random.Random(run.seed * 7 + 1)
        self.last_persisted: str | None = None
        self.last_checksum: str | None = None
        #: Reference units spent inside timed program calls; cycle values
        #: are differences of this, so the benchmark's own checks never
        #: count.
        self.busy_ref = 0.0

    def round(self, interval: int, truth: SpeedField, crowd_seed: int,
              measured: bool = True, scoring: bool = False) -> None:
        """Publish one round, check it and advance the clock."""
        run, tracer = self.run, self.run.tracer
        traced = True
        if tracer is not None and measured:
            # Alternate traced and untraced rounds (shifted every 8 so a
            # cycled slot is not always on the same side) to measure the
            # tracing overhead inside one run.
            index = len(run.rounds_s)
            traced = (index + index // 8) % 2 == 0
            tracer.enabled = traced
            if traced:
                run.measured_round_spans.append(len(tracer.spans))
        report, seconds, ref = measure(
            run, self.publisher.publish_round, interval, truth, self.platform, crowd_seed
        )
        self.busy_ref += ref
        if tracer is not None:
            tracer.enabled = True
        self.clock.advance(INTERVAL_S)
        run.attempted += 1
        run.tasks_failed += len(self.platform.last_report.failed_roads)
        if not report.published:
            run.failed += 1
            run.problems.append(f"round {report.round_index} {report.outcome}: {report.error}")
            return
        snapshot = self.store.latest()
        run.check(snapshot.verify(), f"snapshot v{snapshot.version} fails verify()")
        run.check(
            snapshot.num_roads == len(self.roads),
            f"snapshot v{snapshot.version} covers {snapshot.num_roads} of {len(self.roads)} roads",
        )
        run.snapshot_bytes.append(os.path.getsize(report.persisted_path))
        if measured:
            run.rounds_s.append(seconds)
            run.rounds_ref.append(ref)
            if tracer is not None:
                (run.traced_rounds_s if traced else run.untraced_rounds_s).append(seconds)
        if scoring:
            self._score(snapshot, truth)
            self.last_persisted = report.persisted_path
            self.last_checksum = snapshot.checksum

    def _score(self, snapshot, truth: SpeedField) -> None:
        """Accumulate non-seed absolute errors against simulator truth."""
        run = self.run
        row = truth.matrix[snapshot.interval - truth.intervals.start]
        for road, estimate in snapshot.estimates.items():
            if estimate.is_seed:
                continue
            actual = float(row[truth.road_column(road)])
            run.abs_error_sum += abs(estimate.speed_kmh - actual)
            baseline = self.history.historical_speed(road, snapshot.interval)
            run.baseline_error_sum += abs(baseline - actual)
            run.scored_roads += 1
        run.digest.update(snapshot.checksum.encode())

    def sweeps(self, measured: bool = True) -> None:
        """The reader's closed loop between two rounds."""
        run, tracer = self.run, self.run.tracer
        if tracer is not None and not measured:
            tracer.enabled = False
        before = host_speed_s(run)
        for _ in range(SWEEPS_PER_ROUND // SWEEPS_PER_PROBE):
            group = []
            for _ in range(SWEEPS_PER_PROBE):
                roads = self.reader.sample(self.roads, SWEEP_ROADS)
                start = time.perf_counter()
                served = self.store.get_many(roads)
                group.append(_elapsed(start))
                run.attempted += 1
                if not all(served[road].answered for road in roads):
                    run.failed += 1
            after = host_speed_s(run)
            reference = (before + after) / 2
            before = after
            self.busy_ref += sum(group) / reference
            if measured:
                run.reads_s.extend(group)
                run.reads_ref.extend(seconds / reference for seconds in group)
        if tracer is not None:
            tracer.enabled = True

    def check_persisted(self) -> None:
        """The last scored snapshot reloads from disk with its checksum."""
        if self.last_persisted is None:
            self.run.problems.append("no snapshot was scored")
            return
        reloaded = load_snapshot(self.last_persisted)
        self.run.check(
            reloaded.checksum == self.last_checksum,
            "persisted snapshot does not reload to the published checksum",
        )


# ----------------------------------------------------------------------
# serve-rounds
# ----------------------------------------------------------------------
def _metro_dataset():
    network = sized_metropolis(METRO_TARGET)
    return build_dataset(
        network.name, network, history_days=METRO_HISTORY_DAYS, test_days=1,
        seed=METRO_TRAFFIC_SEED,
    )


def _serve_slot(index: int) -> int:
    """Every third round opens a new slot (a plan compile); the two rounds
    after it revisit slots already open (plan hits). Compiles are spread
    over the run, so cold and warm cycles see the same host conditions."""
    opened = index // 3
    return SERVE_SLOTS[max(0, opened - index % 3) % len(SERVE_SLOTS)]


def serve_rounds(run: RunRecord, seconds: float, snapshot_dir: str) -> None:
    """Steady operational rounds on the default config (lazy, monolithic plan)."""
    dataset, build_s = _median_build(_metro_dataset)
    platform = _platform(run.seed)
    intervals = dataset.test_day_intervals()
    start = time.perf_counter()
    system, _, construct_ref = measure(
        run, SpeedEstimationSystem.from_parts, dataset.network, dataset.store, dataset.graph
    )
    with system:
        _, _, select_ref = measure(
            run, system.select_seeds, _budget(dataset.network.num_segments)
        )
        run.setup_s = build_s + _elapsed(start)
        run.add_selection(system, scoring=True)
        loop, _, loop_ref = measure(
            run, ServingLoop, run, system, dataset.store, dataset.network, platform,
            snapshot_dir,
        )
        loop.round(intervals[0], dataset.test, crowd_seed=run.seed, measured=False)
        run.cold_round_ref.append(construct_ref + select_ref + loop_ref + loop.busy_ref)
        loop.sweeps(measured=False)

        loop_start = time.perf_counter()
        index = 0
        while index < SERVE_MIN_ROUNDS or _elapsed(loop_start) < seconds:
            misses = system.plan_cache.stats().misses
            busy = loop.busy_ref
            loop.round(
                intervals[_serve_slot(index)],
                dataset.test,
                crowd_seed=run.seed * 100_003 + index,
                scoring=index < SERVE_MIN_ROUNDS,
            )
            loop.sweeps()
            compiled = system.plan_cache.stats().misses > misses
            (run.cold_cycles_ref if compiled else run.warm_cycles_ref).append(loop.busy_ref - busy)
            index += 1
        loop.check_persisted()
        run.add_system_stats(system)


# ----------------------------------------------------------------------
# cold-start
# ----------------------------------------------------------------------
def cold_start(run: RunRecord, seconds: float, snapshot_dir: str) -> None:
    """Daily re-selection plus first round on the metro config, repeated."""
    dataset, run.setup_s = _median_build(_metro_dataset)
    platform = _platform(run.seed)
    budget = _budget(dataset.network.num_segments)
    config = PipelineConfig(
        selection_method="partition",
        num_partitions=COLD_DISTRICTS,
        use_parallel_partitions=True,
        use_sharded_plan=True,
        num_partition_workers=POOL_WORKERS,
    )
    intervals = dataset.test_day_intervals()
    loop_start = time.perf_counter()
    iteration = 0
    last = 0.0
    while iteration < COLD_MIN_ITERATIONS or _elapsed(loop_start) + last <= seconds:
        scoring = iteration == 0
        start = time.perf_counter()
        system, _, construct_ref = measure(
            run, SpeedEstimationSystem.from_parts,
            dataset.network, dataset.store, dataset.graph, config,
        )
        try:
            _, _, select_ref = measure(run, system.select_seeds, budget)
            loop, _, loop_ref = measure(
                run, ServingLoop, run, system, dataset.store, dataset.network, platform,
                os.path.join(snapshot_dir, f"cold-{iteration}"),
            )
            loop.round(intervals[0], dataset.test, crowd_seed=run.seed, measured=False,
                       scoring=scoring)
            run.cold_round_ref.append(construct_ref + select_ref + loop_ref + loop.busy_ref)
            loop.sweeps()
            run.cold_cycles_ref.append(loop.busy_ref)
            for offset in range(1, COLD_WARM_ROUNDS + 1):
                busy = loop.busy_ref
                loop.round(intervals[offset], dataset.test,
                           crowd_seed=run.seed * 100_003 + offset, scoring=scoring)
                loop.sweeps()
                run.warm_cycles_ref.append(loop.busy_ref - busy)
        finally:
            system.close()
        last = _elapsed(start)
        run.add_selection(system, scoring=scoring)
        run.add_system_stats(system)
        if scoring:
            loop.check_persisted()
        iteration += 1


# ----------------------------------------------------------------------
# stream-days
# ----------------------------------------------------------------------
def incident_block(network) -> list[int]:
    """A contiguous block of ~3% of the roads inside the first district.

    The block grows breadth-first from the district's middle road. It is
    the same in every run: a seeded district moved the cost of an
    incident day by ~25% between districts, which no seed should do.
    """
    district = "D0.0-"
    district_roads = [
        road for road in network.road_ids()
        if network.segment(road).name.startswith(district)
    ]
    start = district_roads[len(district_roads) // 2]
    size = round(INCIDENT_FRACTION * network.num_segments)
    block, seen = [start], {start}
    for road in block:  # breadth-first; ``block`` grows while iterating
        for neighbour in network.adjacent_roads(road):
            if len(block) >= size:
                return block
            if neighbour not in seen and network.segment(neighbour).name.startswith(district):
                seen.add(neighbour)
                block.append(neighbour)
    return block


def _stream_days():
    network = sized_metropolis(STREAM_TARGET)
    grid = TimeGrid(INTERVAL_MINUTES)
    window, _ = TrafficSimulator(network, grid).simulate(
        0, STREAM_WINDOW_DAYS, seed=STREAM_TRAFFIC_SEED
    )
    per_day = grid.intervals_per_day
    days = [
        SpeedField(window.matrix[d * per_day:(d + 1) * per_day], window.road_ids, d * per_day)
        for d in range(STREAM_WINDOW_DAYS)
    ]
    return network, grid, days


def _streamed_day(days, block_columns, index: int) -> SpeedField:
    """Streamed day ``index``: the warmup window repeated, some with an incident."""
    day_number = STREAM_WINDOW_DAYS + index
    base = days[day_number % STREAM_WINDOW_DAYS]
    per_day = base.matrix.shape[0]
    matrix = base.matrix
    if index % INCIDENT_EVERY == INCIDENT_EVERY - 1:
        matrix = matrix.copy()
        matrix[INCIDENT_SLOTS, block_columns] *= INCIDENT_SEVERITY
    return SpeedField(matrix, base.road_ids, day_number * per_day)


def stream_days(run: RunRecord, seconds: float, snapshot_dir: str) -> None:
    """Daily ingest, CELF re-selection and rounds; every third day an incident."""
    (network, grid, days), build_s = _median_build(_stream_days)
    block = incident_block(network)
    block_columns = [days[0].road_column(road) for road in block]
    platform = _platform(run.seed)
    budget = _budget(network.num_segments)
    start = time.perf_counter()
    # The cold start runs from an empty history to the first snapshot.
    rolling, _, cold_ref = measure(run, RollingHistory, network, grid, STREAM_WINDOW_DAYS, 1)
    for day in days:
        cold_ref += measure(run, rolling.ingest_day, day)[2]
    system, _, ref = measure(
        run, SpeedEstimationSystem.from_parts, network, rolling.store, rolling.graph
    )
    cold_ref += ref
    with system.bind_rolling(rolling):
        cold_ref += measure(run, system.reselect_seeds, budget)[2]
        run.setup_s = build_s + _elapsed(start)
        run.add_selection(system, scoring=True)
        loop, _, ref = measure(
            run, ServingLoop, run, system, rolling.store, network, platform, snapshot_dir
        )
        cold_ref += ref
        # The last warmup day's rounds: the first ends the cold start, the
        # others warm the plan cache for the streamed days.
        last_day = days[-1].intervals.start
        for slot in STREAM_ROUND_SLOTS:
            loop.round(last_day + slot, days[-1], crowd_seed=run.seed + slot, measured=False)
            if not run.cold_round_ref:
                run.cold_round_ref.append(cold_ref + loop.busy_ref)
            loop.sweeps(measured=False)

        num_days = INCIDENT_EVERY * max(1, round(seconds / STREAM_PERIOD_SECONDS))
        for index in range(num_days):
            scoring = index < 2 * INCIDENT_EVERY
            day = _streamed_day(days, block_columns, index)
            _, _, ingest_ref = measure(run, rolling.ingest_day, day)
            delta = rolling.last_delta
            _, _, reselect_ref = measure(run, system.reselect_seeds, budget)
            day_ref = ingest_ref + reselect_ref - loop.busy_ref
            for slot in STREAM_ROUND_SLOTS:
                loop.round(day.intervals.start + slot, day,
                           crowd_seed=run.seed * 100_003 + index * 97 + slot, scoring=scoring)
                loop.sweeps()
            day_ref += loop.busy_ref
            (run.warm_cycles_ref if delta.is_empty else run.cold_cycles_ref).append(day_ref)
            run.delta_edges += delta.num_changes
            run.add_selection(system, scoring=scoring)
        loop.check_persisted()
        run.add_system_stats(system)
        try:
            rolling.verify_incremental()
        except DataError as exc:
            run.problems.append(f"verify_incremental: {exc}")


WORKLOADS = {
    "serve-rounds": serve_rounds,
    "cold-start": cold_start,
    "stream-days": stream_days,
}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0
