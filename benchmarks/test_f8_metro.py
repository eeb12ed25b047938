"""F8 (metro) — Metropolitan-scale partitioned inference at 50k+ roads.

Grows the F8 scalability story from the 2k-road scaled city to a
metropolitan district city (:func:`~repro.datasets.synthetic.
metropolitan_dataset`): district-parallel seed selection over shared
CSR arrays, Step-1 votes as one sparse sum over the seeds' log-odds
rows in the parent, and compiled Step-2 serving, with the end-to-end
round latency bounded at 900 s.

Marked ``slow``: the module builds two metropolitan datasets and runs
full selection at 50k+ roads (minutes, not seconds), so it is excluded
from default runs and opted into with ``-m slow``.
"""

import time

import pytest

from benchmarks.conftest import _bench_registry
from repro.core.config import PipelineConfig
from repro.core.pipeline import SpeedEstimationSystem
from repro.core.pool import SharedWorkerPool
from repro.datasets.synthetic import metropolitan_dataset
from repro.evalkit.reporting import fmt, format_table
from repro.history.correlation import mine_correlation_graph
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictStage
from repro.seeds.partition import partition_graph

pytestmark = pytest.mark.slow

METRO_TARGET = 50_000
HALF_TARGET = 25_000
NUM_DISTRICTS = 64
ROUND_BUDGET_S = 900.0


def _gauge(name: str, value: float, **labels) -> None:
    _bench_registry.gauge(f"bench.f8_metro_{name}", **labels).set(value)


@pytest.fixture(scope="module")
def metro():
    return metropolitan_dataset(METRO_TARGET)


def _partition_seconds(objective, num_partitions, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        partition_graph(objective, num_partitions)
        best = min(best, time.perf_counter() - start)
    return best


def test_f8m_partition_graph_linear_scaling(metro, report):
    """The BFS partitioner scales linearly in roads + edges.

    Regression guard for the ``list.pop(0)`` bug that made the frontier
    pop O(queue) and the whole partition quadratic: doubling the city
    must scale the partition time like O(V + E) (~2x), nowhere near the
    ~4x a quadratic partitioner shows.
    """
    half = metropolitan_dataset(HALF_TARGET)
    full_objective = SeedSelectionObjective(metro.graph)
    half_objective = SeedSelectionObjective(half.graph)

    half_s = _partition_seconds(half_objective, NUM_DISTRICTS)
    full_s = _partition_seconds(full_objective, NUM_DISTRICTS)
    work_ratio = (metro.graph.num_roads + metro.graph.num_edges) / (
        half.graph.num_roads + half.graph.num_edges
    )
    ratio = full_s / half_s

    _gauge("partition_seconds", full_s, roads=metro.graph.num_roads)
    _gauge("partition_scaling_ratio", ratio)
    report(
        "f8m_partition_scaling",
        format_table(
            ["roads", "edges", "partition s"],
            [
                [half.graph.num_roads, half.graph.num_edges, fmt(half_s, 3)],
                [metro.graph.num_roads, metro.graph.num_edges, fmt(full_s, 3)],
            ],
            title=(
                "F8m: partition_graph scaling "
                f"(observed {ratio:.2f}x for {work_ratio:.2f}x work)"
            ),
        ),
    )
    # Linear means the time ratio tracks the work ratio; the quadratic
    # regression showed ~2x the work ratio. Allow generous timer noise.
    assert ratio < work_ratio * 1.6


def test_f8_metro_round_latency(metro, report):
    """One full metropolitan round fits the 900 s budget end to end."""
    num_roads = metro.network.num_segments
    budget = max(1, round(num_roads * 0.01))

    start = time.perf_counter()
    mine_correlation_graph(metro.network, metro.store)
    mine_s = time.perf_counter() - start

    config = PipelineConfig(
        selection_method="partition",
        num_partitions=NUM_DISTRICTS,
        num_partition_workers=2,
    )
    start = time.perf_counter()
    system = SpeedEstimationSystem.from_parts(
        metro.network, metro.store, metro.graph, config
    )
    fit_s = time.perf_counter() - start

    with system:
        start = time.perf_counter()
        seeds = system.select_seeds(budget)
        select_s = time.perf_counter() - start

        intervals = metro.test_day_intervals(stride=24)
        rounds = [
            (i, {r: metro.test.speed(r, i) for r in seeds}) for i in intervals
        ]
        start = time.perf_counter()
        system.estimate(*rounds[0])  # compiles the interval plan
        estimate_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        for interval, seed_speeds in rounds[1:]:
            system.estimate(interval, seed_speeds)
        estimate_warm_s = (time.perf_counter() - start) / max(
            1, len(rounds) - 1
        )

    round_s = select_s + estimate_cold_s
    for name, value in (
        ("mine_seconds", mine_s),
        ("fit_seconds", fit_s),
        ("select_seconds", select_s),
        ("estimate_cold_seconds", estimate_cold_s),
        ("estimate_warm_seconds", estimate_warm_s),
        ("round_seconds", round_s),
    ):
        _gauge(name, value, roads=num_roads, budget=budget)
    report(
        "f8_metro",
        format_table(
            [
                "roads",
                "K",
                "mining s",
                "fit s",
                "selection s",
                "estimate s (cold)",
                "estimate s (warm)",
                "round s",
            ],
            [
                [
                    num_roads,
                    budget,
                    fmt(mine_s, 1),
                    fmt(fit_s, 1),
                    fmt(select_s, 1),
                    fmt(estimate_cold_s, 1),
                    fmt(estimate_warm_s, 2),
                    fmt(round_s, 1),
                ]
            ],
            title=(
                "F8 (metro): end-to-end round latency, district-parallel "
                f"selection ({NUM_DISTRICTS} districts, 2 workers)"
            ),
        ),
    )
    # The operational round (daily re-selection + first estimate) and
    # every offline stage fit comfortably inside the 900 s budget.
    assert round_s < ROUND_BUDGET_S
    assert mine_s + fit_s < ROUND_BUDGET_S
    assert estimate_warm_s < 60.0


def test_f8_metro_parallel_vs_serial_differential(metro):
    """District workers reproduce in-parent district selection at 50k+.

    The tier-1 suite pins both against the partition oracle on the 6x6
    grid; this is the same differential at metropolitan scale, with a
    modest budget so the CELF loops stay bounded while every evaluated
    row still crosses the shared-memory path.
    """
    budget = 50
    objective = SeedSelectionObjective(metro.graph)
    serial = DistrictStage(objective, num_partitions=NUM_DISTRICTS).select(budget)
    with SharedWorkerPool(2) as pool:
        parallel = DistrictStage(
            objective, pool, num_partitions=NUM_DISTRICTS
        ).select(budget)
    assert parallel.seeds == serial.seeds
    assert parallel.gains == serial.gains
    assert parallel.values == serial.values
    assert parallel.evaluations == serial.evaluations
    _gauge("differential_evaluations", parallel.evaluations, budget=budget)


# ---------------------------------------------------------------------------
# Step-2 plan compile and row-scoped refresh (repro.speed.plan)
# ---------------------------------------------------------------------------
PLAN_BUDGET_PCT = 0.5
XL_TARGET = 110_000
XL_DISTRICTS = 128


def _copy_graph(graph):
    """A private, mutable clone so delta tests never pollute fixtures."""
    from repro.history.correlation import CorrelationGraph

    return CorrelationGraph(list(graph.road_ids), list(graph.edges()))


def _compile_spans(trace_path):
    """The ``speed.plan.compile`` span events of a trace, in order."""
    import json

    events = (json.loads(line) for line in trace_path.read_text().splitlines())
    return [
        event
        for event in events
        if event.get("type") == "span" and event.get("name") == "speed.plan.compile"
    ]


def test_f8_metro_sharded_plan_compile(metro, report, tmp_path):
    """Step-2 plan: bitwise-equal cold round, row-scoped delta refresh.

    Three timings feed the bench gate: the cold compile (one structure
    per seed set, in the parent), the post-delta refresh (only the rows
    whose ranked seeds changed) and the warm serve latency. A second
    system's cold round is asserted bitwise equal to the first's, and
    the refresh is asserted to refit a small fraction of the rows the
    cold compile fitted.
    """
    from repro.obs import FlightRecorder, set_recorder
    from tests.oracles.delta import EdgeTuples

    num_roads = metro.network.num_segments
    budget = max(1, round(num_roads * PLAN_BUDGET_PCT / 100.0))
    graph = _copy_graph(metro.graph)
    config = PipelineConfig(
        selection_method="partition",
        num_partitions=NUM_DISTRICTS,
    )

    mono = SpeedEstimationSystem.from_parts(
        metro.network, metro.store, graph, config
    )
    seeds = mono.select_seeds(budget)
    intervals = metro.test_day_intervals(stride=24)
    rounds = [
        (i, {r: metro.test.speed(r, i) for r in seeds}) for i in intervals[:4]
    ]
    start = time.perf_counter()
    mono_first = mono.estimate(*rounds[0])
    mono_cold_s = time.perf_counter() - start

    trace = tmp_path / "plan_trace.jsonl"
    rec = FlightRecorder(path=trace)
    previous = set_recorder(rec)
    try:
        with SpeedEstimationSystem.from_parts(
            metro.network, metro.store, graph, config
        ) as system:
            assert system.select_seeds(budget) == seeds
            first = system.estimate(*rounds[0])
            assert all(
                mono_first[r] == first[r] for r in mono_first
            ), "a cold round must be bitwise equal to a one-structure round"

            start = time.perf_counter()
            for interval, seed_speeds in rounds[1:]:
                system.estimate(interval, seed_speeds)
            serve_warm_s = (time.perf_counter() - start) / max(
                1, len(rounds) - 1
            )

            # A delta around one seed: cut one incident edge, then
            # refresh. Only rows whose ranked seeds changed are refit.
            edge = graph.neighbours(seeds[0])[0]
            delta = EdgeTuples(removed=((edge.road_u, edge.road_v),)).delta()
            graph.apply_delta(delta)
            system.apply_graph_delta(delta)
            start = time.perf_counter()
            system.estimate(*rounds[0])
            delta_recompile_s = time.perf_counter() - start
    finally:
        set_recorder(previous)

    cold, refresh = _compile_spans(trace)
    cold_rows = cold["attrs"]["rows_fitted"]
    rows_refit = refresh["attrs"]["rows_fitted"]
    for name, value in (
        ("compile_mono_seconds", mono_cold_s),
        ("delta_recompile_seconds", delta_recompile_s),
        ("serve_warm_seconds", serve_warm_s),
    ):
        _gauge(f"plan_{name}", value, roads=num_roads, budget=budget)
    _gauge("plan_delta_rows_refit", rows_refit, roads=num_roads, budget=budget)
    report(
        "f8_metro_sharded_plan",
        format_table(
            [
                "roads",
                "K",
                "cold compile s",
                "rows fitted (cold)",
                "delta refresh s",
                "rows refit",
                "serve warm s",
            ],
            [
                [
                    num_roads,
                    budget,
                    fmt(mono_cold_s, 1),
                    cold_rows,
                    fmt(delta_recompile_s, 2),
                    rows_refit,
                    fmt(serve_warm_s, 2),
                ]
            ],
            title="F8 (metro): Step-2 plan compile and row-scoped refresh",
        ),
    )
    assert mono_cold_s < ROUND_BUDGET_S
    # Locality: a one-edge delta refits a fraction of the city's rows.
    assert 0 < rows_refit <= cold_rows // 2
    assert delta_recompile_s < mono_cold_s


def test_f8_metro_xl_sharded_cold_round(report, tmp_path):
    """Cold Step-2 at 100k+ roads: one structure, compile+serve <900 s.

    The acceptance bar for metropolitan cold rounds: a 110k-road city,
    128 selection districts, K = 0.5%, compile-and-serve inside the
    round budget, with the compile reported from its
    ``speed.plan.compile`` span.
    """
    from repro.datasets.synthetic import metropolitan_dataset
    from repro.obs import FlightRecorder, set_recorder

    xl = metropolitan_dataset(XL_TARGET)
    num_roads = xl.network.num_segments
    assert num_roads >= 100_000
    budget = max(1, round(num_roads * PLAN_BUDGET_PCT / 100.0))

    trace = tmp_path / "xl_trace.jsonl"
    rec = FlightRecorder(path=trace)
    previous = set_recorder(rec)
    try:
        with SpeedEstimationSystem.from_parts(
            xl.network,
            xl.store,
            xl.graph,
            PipelineConfig(
                selection_method="partition",
                num_partitions=XL_DISTRICTS,
                num_partition_workers=2,
            ),
        ) as system:
            start = time.perf_counter()
            seeds = system.select_seeds(budget)
            select_s = time.perf_counter() - start
            interval = xl.test_day_intervals()[0]
            speeds = {r: xl.test.speed(r, interval) for r in seeds}
            start = time.perf_counter()
            system.estimate(interval, speeds)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            system.estimate(interval + 1, speeds)
            warm_s = time.perf_counter() - start
    finally:
        set_recorder(previous)

    (compile_span,) = _compile_spans(trace)
    for name, value in (
        ("xl_cold_seconds", cold_s),
        ("xl_warm_seconds", warm_s),
        ("xl_select_seconds", select_s),
    ):
        _gauge(f"plan_{name}", value, roads=num_roads, budget=budget)
    report(
        "f8_metro_xl_sharded",
        format_table(
            [
                "roads",
                "K",
                "select s",
                "cold compile+serve s",
                "compile s",
                "rows fitted",
                "warm s",
            ],
            [
                [
                    num_roads,
                    budget,
                    fmt(select_s, 1),
                    fmt(cold_s, 1),
                    fmt(float(compile_span["dur_s"]), 1),
                    compile_span["attrs"]["rows_fitted"],
                    fmt(warm_s, 2),
                ]
            ],
            title=(
                "F8 (metro XL): 100k+ road cold round, one-structure Step-2 "
                f"({XL_DISTRICTS} selection districts)"
            ),
        ),
    )
    assert select_s + cold_s < ROUND_BUDGET_S
