"""F8 — Full-pipeline scalability with network size.

End-to-end cost of every pipeline stage as the city grows: correlation
mining (offline, once), model fitting, seed selection (daily), and
per-interval estimation (online, every few minutes). Shape to
reproduce: the online stage stays in interactive territory while the
offline stages grow polynomially but remain practical.
"""

import gc
import time
from contextlib import contextmanager

import pytest

from benchmarks.conftest import _bench_registry
from repro.core.pipeline import SpeedEstimationSystem
from repro.datasets.synthetic import scaled_dataset
from repro.evalkit.reporting import fmt, fmt_speedup, format_table
from repro.history.correlation import mine_correlation_graph
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from tests.oracles import ScalarTwoStep

SIZES = (200, 500, 1000, 2000)


@contextmanager
def gc_paused():
    """Timeit-style GC isolation for the timed serving loops.

    The serving paths are allocation-heavy (one estimate object per road
    per interval), so with the whole benchmark session's datasets alive
    on the heap, collector sweeps triggered mid-loop would measure the
    session's garbage, not the estimator.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def f8_results():
    rows = []
    for size in SIZES:
        dataset = scaled_dataset(size, history_days=7)
        num_roads = dataset.network.num_segments

        start = time.perf_counter()
        mine_correlation_graph(dataset.network, dataset.store)
        mining_s = time.perf_counter() - start

        start = time.perf_counter()
        system = SpeedEstimationSystem.from_parts(
            dataset.network, dataset.store, dataset.graph
        )
        fit_s = time.perf_counter() - start

        budget = max(1, round(num_roads * 0.05))
        start = time.perf_counter()
        seeds = system.select_seeds(budget)
        select_s = time.perf_counter() - start

        scalar = ScalarTwoStep(dataset.store, dataset.graph, system.estimator.hlm)

        def per_interval_seconds(serve, dataset=dataset, seeds=seeds):
            intervals = dataset.test_day_intervals(stride=16)
            # Warm-up builds influence maps, regressions and plans.
            warm = {r: dataset.test.speed(r, intervals[0]) for r in seeds}
            serve(intervals[0], warm)
            rounds = [
                (
                    interval,
                    {r: dataset.test.speed(r, interval) for r in seeds},
                )
                for interval in intervals[1:]
            ]
            with gc_paused():
                start = time.perf_counter()
                for interval, seed_speeds in rounds:
                    serve(interval, seed_speeds)
                elapsed = time.perf_counter() - start
            return elapsed / max(1, len(rounds))

        estimate_scalar_s = per_interval_seconds(scalar.estimate_interval)
        estimate_plan_s = per_interval_seconds(system.estimate)

        rows.append(
            (
                num_roads,
                budget,
                mining_s,
                fit_s,
                select_s,
                estimate_scalar_s,
                estimate_plan_s,
            )
        )
    return rows


def test_f8_pipeline_scalability(f8_results, report, benchmark):
    table_rows = [
        [
            roads,
            budget,
            fmt(mining_s, 2),
            fmt(fit_s, 2),
            fmt(select_s, 2),
            fmt(scalar_s * 1000, 1),
            fmt(plan_s * 1000, 1),
        ]
        for roads, budget, mining_s, fit_s, select_s, scalar_s, plan_s in f8_results
    ]
    table = format_table(
        [
            "roads",
            "K",
            "mining s",
            "fit s",
            "selection s",
            "estimate ms/interval (scalar)",
            "estimate ms/interval (plan)",
        ],
        table_rows,
        title="F8: pipeline-stage cost vs network size (5% budget)",
    )
    report("f8_scalability", table)

    # Online estimation stays interactive even on the largest network.
    *_, largest = f8_results
    assert largest[-1] < 1.0 and largest[-2] < 1.0  # < 1 s per interval
    # Offline stages stay practical (< 2 min each at 2000 roads here).
    assert largest[2] < 120 and largest[3] < 120 and largest[4] < 120

    benchmark(lambda: [row[-1] for row in f8_results])


def test_f8b_plan_vs_scalar_differential(report):
    """Compiled plans match the scalar Step-2 oracle and are >= 10x faster.

    Production vs ``tests/oracles``: on the 2024-road scaled city at
    K=5%, warm per-interval estimates from the vectorized plan path
    agree with the per-road scalar oracle to 1e-9, the incremental
    cross-interval update path is bit-for-bit identical to evaluating a
    freshly compiled plan, and the warm serving path runs at least 10x
    faster end to end.
    """
    dataset = scaled_dataset(2000, history_days=7)
    params = HlmParams()
    hlm = HierarchicalLinearModel.fit(
        dataset.store, dataset.network, dataset.graph, params
    )
    plan_est = TwoStepEstimator(
        dataset.network, dataset.store, dataset.graph, hlm=hlm, hlm_params=params
    )
    scalar_est = ScalarTwoStep(dataset.store, dataset.graph, hlm)
    seeds = list(dataset.graph.road_ids)[::20][:101]  # ~5% budget
    intervals = dataset.test_day_intervals(stride=8)  # 12 intervals
    rounds = [
        {r: dataset.test.speed(r, interval) for r in seeds}
        for interval in intervals
    ]

    worst = 0.0
    for interval, seed_speeds in zip(intervals, rounds):
        plan_result = plan_est.estimate_interval(interval, seed_speeds)
        scalar_result = scalar_est.estimate_interval(interval, seed_speeds)
        worst = max(
            worst,
            max(
                abs(plan_result[r].speed_kmh - scalar_result[r].speed_kmh)
                for r in plan_result
            ),
        )
    assert worst <= 1e-9

    # Incremental cross-interval updates must equal cold plan evaluation
    # exactly: serve each round in a fresh estimator (cold compile, full
    # evaluation) and compare bit for bit against the warm estimator,
    # whose shared structures follow the incremental path.
    for interval, seed_speeds in zip(intervals, rounds):
        cold_est = TwoStepEstimator(
            dataset.network,
            dataset.store,
            dataset.graph,
            hlm=hlm,
            hlm_params=params,
        )
        assert cold_est.estimate_interval(
            interval, seed_speeds
        ) == plan_est.estimate_interval(interval, seed_speeds)

    def warm_seconds(estimator) -> float:
        repeats = 3
        for interval, seed_speeds in zip(intervals, rounds):
            estimator.estimate_interval(interval, seed_speeds)
        with gc_paused():
            start = time.perf_counter()
            for _ in range(repeats):
                for interval, seed_speeds in zip(intervals, rounds):
                    estimator.estimate_interval(interval, seed_speeds)
            elapsed = time.perf_counter() - start
        return elapsed / (repeats * len(intervals))

    scalar_s = warm_seconds(scalar_est)
    plan_s = warm_seconds(plan_est)
    speedup = scalar_s / plan_s

    for path, seconds in (("plan", plan_s), ("scalar", scalar_s)):
        _bench_registry.gauge(
            "bench.plan_vs_scalar_seconds", test="f8_estimation", path=path
        ).set(seconds)
    _bench_registry.gauge(
        "bench.plan_vs_scalar_speedup", test="f8_estimation"
    ).set(speedup)

    stats = plan_est.plan_cache.stats()
    report(
        "f8b_plan_vs_scalar",
        format_table(
            ["path", "warm ms/interval", "max |Δspeed|", "speedup"],
            [
                ["scalar", fmt(scalar_s * 1000, 2), "-", "1.0x"],
                [
                    "plan",
                    fmt(plan_s * 1000, 2),
                    f"{worst:.2e}",
                    fmt_speedup(speedup),
                ],
            ],
            title=(
                "F8b: compiled interval plans vs scalar Step-2 oracle "
                f"(2024 roads, K={len(seeds)}, "
                f"plan cache {stats.hits} hits / {stats.misses} misses)"
            ),
        ),
    )
    assert speedup >= 10.0
