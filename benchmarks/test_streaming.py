"""STREAM (extension) — cost of the incremental streaming loop.

Two measurements on the synthetic Tianjin city:

* **Ingest**: per-day cost of ``RollingHistory.ingest_day`` with daily
  re-mining (sliding co-trend counts + delta) vs the batch oracle
  ``tests/oracles/history.py::BatchRollingHistory`` (full re-mine of
  the window). The final graphs must be identical — the speed
  difference is the only difference.
* **Serve**: per-round estimation latency right after a graph delta,
  with delta-scoped row eviction (only affected plans recompile) vs a
  wholesale cache flush (everything recompiles). This is the latency
  spike the selective invalidation path exists to avoid.

Timings land in ``bench_timings.json`` as ``bench.streaming_*_seconds``
gauges, so the CI bench gate tracks them like every other kernel.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import _bench_registry, budget_for
from repro.core.field import SpeedField
from repro.core.pipeline import SpeedEstimationSystem
from repro.evalkit.reporting import fmt, format_table
from repro.history.online import RollingHistory
from tests.oracles.history import BatchRollingHistory

WINDOW_DAYS = 5
STREAM_DAYS = 5


def _day_fields(dataset, total_days, seed=123):
    """A warmup window plus streamed days with stable daily statistics.

    Streamed days repeat the warmup week cyclically (the soak test's
    construction): co-trend counts are order-independent sums, so a
    sliding window over repeats keeps its statistics — the steady-state
    regime the incremental path is built for, where deltas are empty
    and caches stay warm. A fully volatile window (every edge moving
    every day) degenerates to batch re-mining and is covered by the
    equality assertion, not timed here.
    """
    field, _ = dataset.simulator.simulate(0, WINDOW_DAYS, seed=seed)
    per_day = dataset.grid.intervals_per_day
    base = [
        SpeedField(
            field.matrix[d * per_day : (d + 1) * per_day],
            field.road_ids,
            d * per_day,
        )
        for d in range(WINDOW_DAYS)
    ]
    streamed = [
        SpeedField(
            base[d % WINDOW_DAYS].matrix, field.road_ids, d * per_day
        )
        for d in range(WINDOW_DAYS, total_days)
    ]
    return base + streamed


def _gauge(name: str, value: float, **labels) -> None:
    _bench_registry.gauge(name, **labels).set(value)


def test_streaming_ingest_and_serve_cost(tianjin, report):
    dataset = tianjin
    days = _day_fields(dataset, WINDOW_DAYS + STREAM_DAYS)

    # --- ingest: incremental vs batch re-mining -----------------------
    ingest_times: dict[str, list[float]] = {}
    rollers: dict[str, RollingHistory] = {}
    for mode, history in (
        ("incremental", RollingHistory),
        ("batch", BatchRollingHistory),
    ):
        rolling = history(
            dataset.network,
            dataset.grid,
            window_days=WINDOW_DAYS,
            remine_every_days=1,
        )
        for day in days[:WINDOW_DAYS]:
            rolling.ingest_day(day)
        samples = []
        for day in days[WINDOW_DAYS:]:
            start = time.perf_counter()
            rolling.ingest_day(day)
            samples.append(time.perf_counter() - start)
        ingest_times[mode] = samples
        rollers[mode] = rolling
    # Same window, same parameters: the two modes must agree exactly.
    inc_graph, batch_graph = rollers["incremental"].graph, rollers["batch"].graph
    assert {
        (e.road_u, e.road_v): e.agreement for e in inc_graph.edges()
    } == {(e.road_u, e.road_v): e.agreement for e in batch_graph.edges()}
    rollers["incremental"].verify_incremental()

    # --- serve: post-delta latency, selective vs wholesale ------------
    budget = budget_for(dataset, 5.0)
    serve_times: dict[str, list[float]] = {"selective": [], "flush": []}
    for mode in ("selective", "flush"):
        rolling = RollingHistory(
            dataset.network,
            dataset.grid,
            window_days=WINDOW_DAYS,
            remine_every_days=1,
        )
        for day in days[:WINDOW_DAYS]:
            rolling.ingest_day(day)
        system = SpeedEstimationSystem.from_parts(
            dataset.network, rolling.store, rolling.graph
        )
        if mode == "selective":
            system.bind_rolling(rolling)
        seeds = system.reselect_seeds(budget)
        for day in days[WINDOW_DAYS:]:
            rolling.ingest_day(day)
            if mode == "flush":
                # The pre-fix behaviour: any graph change wipes the
                # whole cache stack.
                system.fidelity_service.invalidate()
            seeds = system.reselect_seeds(budget)
            interval = day.intervals.start + 34
            crowd = {r: day.speed(r, interval) for r in seeds}
            start = time.perf_counter()
            system.estimate(interval, crowd)
            serve_times[mode].append(time.perf_counter() - start)

    rows = []
    for name, samples in list(ingest_times.items()) + list(serve_times.items()):
        kind = "ingest" if name in ingest_times else "serve"
        mean = sum(samples) / len(samples)
        worst = max(samples)
        _gauge(f"bench.streaming_{kind}_seconds", mean, mode=name, stat="mean")
        _gauge(f"bench.streaming_{kind}_seconds", worst, mode=name, stat="max")
        rows.append(
            [kind, name, fmt(1000.0 * mean), fmt(1000.0 * worst)]
        )
    text = format_table(
        ["phase", "mode", "mean ms/day", "max ms/day"],
        rows,
        title=(
            f"STREAM: {STREAM_DAYS} streamed days (stable statistics), "
            f"{WINDOW_DAYS}-day window, {dataset.network.num_segments} roads "
            "(identical final graphs)"
        ),
    )
    report("stream_ingest_serve", text)
