"""Cost-aware seed selection under a monetary budget.

The base problem charges every seed one unit; in practice crowdsourcing
a busy arterial (many potential reporters) is cheaper than a quiet
residential street. This module solves the **budgeted** variant:
maximise the coverage objective subject to ``Σ cost(u) ≤ budget``.

Budgeted monotone submodular maximisation admits the classic
``max(plain greedy, cost-benefit greedy)`` algorithm with a
½(1 − 1/e) guarantee [Leskovec et al., KDD 2007]; both passes here use
lazy evaluation. A simple per-road-class cost model is provided as the
default (observing quiet roads costs more — fewer people to ask).
"""

from __future__ import annotations

import heapq

from repro.core.errors import SelectionError
from repro.roadnet.network import RoadNetwork
from repro.seeds.greedy import SelectionResult
from repro.seeds.objective import SeedSelectionObjective

#: Default relative crowdsourcing cost per road class: quiet roads have
#: fewer potential reporters, so answers cost more to obtain.
DEFAULT_CLASS_COSTS: dict[str, float] = {
    "highway": 1.0,
    "arterial": 1.2,
    "collector": 1.6,
    "local": 2.0,
}


def default_road_costs(network: RoadNetwork) -> dict[int, float]:
    """Per-road crowdsourcing costs from the class-based default model."""
    return {
        segment.road_id: DEFAULT_CLASS_COSTS.get(segment.road_class, 2.0)
        for segment in network.segments()
    }


def _validate(
    objective: SeedSelectionObjective,
    costs: dict[int, float],
    budget_cost: float,
) -> None:
    if budget_cost <= 0:
        raise SelectionError(f"budget must be positive, got {budget_cost}")
    for road in objective.road_ids:
        cost = costs.get(road)
        if cost is None:
            raise SelectionError(f"no cost given for road {road}")
        if cost <= 0:
            raise SelectionError(f"cost for road {road} must be positive")
    if min(costs[road] for road in objective.road_ids) > budget_cost:
        raise SelectionError("budget cannot afford any road")


def _lazy_pass(
    objective: SeedSelectionObjective,
    costs: dict[int, float],
    budget_cost: float,
    by_ratio: bool,
) -> SelectionResult:
    """One lazy greedy pass; keyed by gain or gain/cost ratio."""
    state = objective.new_state()
    current_round = 0
    heap: list[tuple[float, int, int]] = []
    roads = objective.road_ids
    evaluations = len(roads)
    for road, gain in zip(roads, state.gains(roads)):
        key = gain / costs[road] if by_ratio else gain
        heapq.heappush(heap, (-key, road, 0))

    seeds: list[int] = []
    gains: list[float] = []
    values: list[float] = []
    spent = 0.0
    while heap:
        neg_key, road, evaluated_round = heapq.heappop(heap)
        if spent + costs[road] > budget_cost:
            continue  # unaffordable now; never becomes affordable again
        if evaluated_round == current_round:
            realised = state.add(road)
            seeds.append(road)
            gains.append(realised)
            values.append(state.value)
            spent += costs[road]
            current_round += 1
        else:
            gain = state.gain(road)
            evaluations += 1
            key = gain / costs[road] if by_ratio else gain
            heapq.heappush(heap, (-key, road, current_round))
    return SelectionResult(
        method="cost-ratio" if by_ratio else "cost-plain",
        seeds=tuple(seeds),
        gains=tuple(gains),
        values=tuple(values),
        evaluations=evaluations,
    )


def cost_aware_select(
    objective: SeedSelectionObjective,
    costs: dict[int, float],
    budget_cost: float,
) -> SelectionResult:
    """Budgeted selection: the better of plain and cost-benefit greedy.

    Returns a :class:`SelectionResult` whose ``method`` records which
    pass won. The combined algorithm carries the ½(1 − 1/e)
    approximation guarantee for monotone submodular objectives.
    """
    _validate(objective, costs, budget_cost)
    plain = _lazy_pass(objective, costs, budget_cost, by_ratio=False)
    ratio = _lazy_pass(objective, costs, budget_cost, by_ratio=True)
    winner = plain if plain.final_value >= ratio.final_value else ratio
    return SelectionResult(
        method=f"cost-aware({winner.method})",
        seeds=winner.seeds,
        gains=winner.gains,
        values=winner.values,
        evaluations=plain.evaluations + ratio.evaluations,
    )


def selection_cost(seeds: tuple[int, ...], costs: dict[int, float]) -> float:
    """Total monetary cost of a seed set."""
    return sum(costs[road] for road in seeds)
