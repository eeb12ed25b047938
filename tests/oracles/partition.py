"""Single-process partitioned greedy: the reference for ``DistrictStage``.

The original loop, kept with its arithmetic unchanged: partition the
graph, split the budget, run CELF per chunk on
``objective.clone_with_weights`` (so rows land in the objective's
fidelity cache) and rescore the stitched picks against the global
objective. :class:`~repro.seeds.parallel.DistrictStage` must return the
same seeds, gains, values and evaluations for every pool, and leave a
fresh system's fidelity cache with the same hits and misses when its
tasks run in the parent. Runs on :class:`~repro.seeds.objective.
SeedSelectionObjective` and on
:class:`tests.oracles.objective.ScalarCoverageObjective` alike.
"""

from __future__ import annotations

from repro.seeds.greedy import SelectionResult, validate_budget
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.partition import allocate_budget, partition_graph


def partition_greedy_select(
    objective: SeedSelectionObjective,
    budget: int,
    num_partitions: int = 8,
) -> SelectionResult:
    """Partitioned lazy greedy; near-greedy quality at a fraction of cost."""
    validate_budget(objective, budget)
    partitions = partition_graph(objective, num_partitions)
    shares = allocate_budget(partitions, budget)

    seeds: list[int] = []
    evaluations = 0
    for chunk, share in zip(partitions, shares):
        if share == 0:
            continue
        member_weights = {
            road: float(objective.weights[objective.index[road]]) for road in chunk
        }
        local = objective.clone_with_weights(member_weights)
        result = lazy_greedy_select(local, share, candidates=chunk)
        seeds.extend(result.seeds)
        evaluations += result.evaluations

    # Score the combined set against the *global* objective so results
    # are comparable across methods.
    state = objective.new_state()
    gains: list[float] = []
    values: list[float] = []
    for seed in seeds:
        gains.append(state.add(seed))
        values.append(state.value)
    return SelectionResult(
        method="partition-greedy",
        seeds=tuple(seeds),
        gains=tuple(gains),
        values=tuple(values),
        evaluations=evaluations,
    )
