"""F4 — Seed-selection efficiency: plain vs lazy vs partition greedy.

Wall-clock and marginal-gain evaluations for the three greedy variants
across budgets, with warm influence caches (the realistic regime: the
influence maps are reused daily). Shape to reproduce: lazy greedy does
far fewer evaluations than plain greedy at identical output; partition
greedy is cheaper still at a small objective cost (quantified in F5).
"""

import time

import pytest

from benchmarks.conftest import _bench_registry, budget_for
from repro.evalkit.reporting import fmt, fmt_speedup, format_table
from repro.history.fidelity import FidelityCacheService
from repro.seeds.greedy import greedy_select
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictStage
from tests.oracles import ScalarCoverageObjective, partition_greedy_select

K_PERCENTS = (2.0, 5.0, 10.0)


@pytest.fixture(scope="module")
def f4_results(beijing):
    objective = SeedSelectionObjective(beijing.graph)
    # Warm the influence cache so timing isolates selection logic.
    for road in objective.road_ids:
        objective.influence_row(road)
    # The production partition selector, tasks in the parent.
    districts = DistrictStage(objective, num_partitions=8)

    rows = []
    for percent in K_PERCENTS:
        budget = budget_for(beijing, percent)
        timings = {}
        for name, select in (
            ("greedy", lambda b: greedy_select(objective, b)),
            ("lazy", lambda b: lazy_greedy_select(objective, b)),
            ("partition", districts.select),
        ):
            start = time.perf_counter()
            result = select(budget)
            elapsed = time.perf_counter() - start
            timings[name] = (elapsed, result.evaluations, result.final_value)
        rows.append((percent, budget, timings))
    return rows


def test_f4_selection_efficiency(f4_results, beijing, report, benchmark):
    table_rows = []
    for percent, budget, timings in f4_results:
        greedy_s, greedy_evals, _ = timings["greedy"]
        for name in ("greedy", "lazy", "partition"):
            seconds, evaluations, value = timings[name]
            table_rows.append(
                [
                    f"{percent:.0f}% (K={budget})",
                    name,
                    fmt(seconds * 1000, 1),
                    evaluations,
                    fmt(value, 1),
                    fmt_speedup(greedy_s / seconds),
                ]
            )
    table = format_table(
        ["budget", "algorithm", "time ms", "gain-evals", "objective", "vs greedy"],
        table_rows,
        title="F4: seed-selection cost (synthetic-beijing, warm influence cache)",
    )
    report("f4_seed_selection_efficiency", table)

    for percent, _, timings in f4_results:
        greedy_s, greedy_evals, greedy_value = timings["greedy"]
        lazy_s, lazy_evals, lazy_value = timings["lazy"]
        part_s, part_evals, part_value = timings["partition"]
        # Lazy: identical objective, strictly fewer evaluations.
        assert lazy_value == pytest.approx(greedy_value)
        assert lazy_evals < greedy_evals
        # Partition: far fewer evaluations, bounded objective loss.
        assert part_evals < lazy_evals
        assert part_value >= 0.85 * greedy_value

    objective = SeedSelectionObjective(beijing.graph)
    for road in objective.road_ids:
        objective.influence_row(road)
    budget = budget_for(beijing, 5.0)
    benchmark(lambda: lazy_greedy_select(objective, budget))


def test_f4_kernel_vs_scalar_seed_sequences(beijing, report):
    """Greedy, CELF and partition pick *byte-identical* seed sequences.

    The differential guarantee for selection, production vs
    ``tests/oracles``: the sparse-row gain path and the scalar dict-walk
    oracle produce exactly the same seed orderings (not merely the same
    objective value) at every budget. Partition compares the production
    district stage on the kernel objective against the partition oracle
    on the scalar objective.
    """
    kernel = SeedSelectionObjective(
        beijing.graph, fidelity_service=FidelityCacheService()
    )
    scalar = ScalarCoverageObjective(beijing.graph)
    for road in kernel.road_ids:  # warm both caches fully
        kernel.influence_row(road)
        scalar.influence_map(road)

    districts = DistrictStage(kernel, num_partitions=8)
    rows = []
    for percent in K_PERCENTS:
        budget = budget_for(beijing, percent)
        for name, kernel_select, scalar_select in (
            ("greedy", lambda b: greedy_select(kernel, b), greedy_select),
            ("lazy", lambda b: lazy_greedy_select(kernel, b), lazy_greedy_select),
            (
                "partition",
                districts.select,
                lambda o, b: partition_greedy_select(o, b, 8),
            ),
        ):
            start = time.perf_counter()
            kernel_result = kernel_select(budget)
            kernel_s = time.perf_counter() - start
            start = time.perf_counter()
            scalar_result = scalar_select(scalar, budget)
            scalar_s = time.perf_counter() - start
            assert list(kernel_result.seeds) == list(scalar_result.seeds), (
                f"{name} @ K={budget}: kernel and scalar disagree"
            )
            rows.append(
                [
                    f"{percent:.0f}% (K={budget})",
                    name,
                    fmt(kernel_s * 1000, 1),
                    fmt(scalar_s * 1000, 1),
                    fmt_speedup(scalar_s / kernel_s),
                    "identical",
                ]
            )
            if name == "lazy" and percent == 5.0:
                for path, seconds in (
                    ("kernel", kernel_s),
                    ("scalar", scalar_s),
                ):
                    _bench_registry.gauge(
                        "bench.kernel_vs_scalar_seconds",
                        test="f4_lazy_selection",
                        path=path,
                    ).set(seconds)
                _bench_registry.gauge(
                    "bench.kernel_vs_scalar_speedup", test="f4_lazy_selection"
                ).set(scalar_s / kernel_s)

    report(
        "f4_kernel_vs_scalar",
        format_table(
            ["budget", "algorithm", "kernel ms", "scalar ms", "speedup", "seeds"],
            rows,
            title="F4b: selection with CSR kernel vs scalar oracle",
        ),
    )
