"""Seed-selection baselines the greedy family is compared against (F5).

* random — uniform without replacement (seeded);
* top-degree — highest correlation-graph degree first;
* k-center — spatial farthest-point traversal over segment midpoints,
  the "spread the sensors out evenly" heuristic.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import SelectionError
from repro.roadnet.network import RoadNetwork
from repro.seeds.greedy import SelectionResult
from repro.seeds.objective import SeedSelectionObjective


def _as_result(
    method: str, objective: SeedSelectionObjective, seeds: list[int]
) -> SelectionResult:
    state = objective.new_state()
    gains: list[float] = []
    values: list[float] = []
    for seed in seeds:
        gains.append(state.add(seed))
        values.append(state.value)
    return SelectionResult(
        method=method,
        seeds=tuple(seeds),
        gains=tuple(gains),
        values=tuple(values),
        evaluations=0,
    )


def _check_budget(budget: int, population: int) -> None:
    if budget < 1:
        raise SelectionError(f"budget must be >= 1, got {budget}")
    if budget > population:
        raise SelectionError(f"budget {budget} exceeds {population} roads")


def random_select(
    objective: SeedSelectionObjective, budget: int, seed: int = 0
) -> SelectionResult:
    """Uniform random seeds, deterministic given ``seed``."""
    roads = objective.road_ids
    _check_budget(budget, len(roads))
    rng = np.random.default_rng(seed)
    picks = [int(r) for r in rng.choice(roads, size=budget, replace=False)]
    return _as_result("random", objective, picks)


def top_degree_select(
    objective: SeedSelectionObjective, budget: int
) -> SelectionResult:
    """Highest correlation degree first (hubs of the correlation graph)."""
    graph = objective.graph
    roads = objective.road_ids
    _check_budget(budget, len(roads))
    ranked = sorted(roads, key=lambda r: (-graph.degree(r), r))
    return _as_result("top-degree", objective, ranked[:budget])


def k_center_select(
    objective: SeedSelectionObjective,
    budget: int,
    network: RoadNetwork,
) -> SelectionResult:
    """Spatial k-center: farthest-point traversal over road midpoints.

    Starts from the road closest to the network centroid, then
    repeatedly adds the road farthest from all chosen ones.
    """
    roads = objective.road_ids
    _check_budget(budget, len(roads))
    midpoints = {road: network.segment_midpoint(road) for road in roads}
    centre = network.bounding_box().center
    first = min(roads, key=lambda r: (midpoints[r].distance_to(centre), r))
    chosen = [first]
    min_dist = {
        road: midpoints[road].distance_to(midpoints[first]) for road in roads
    }
    while len(chosen) < budget:
        farthest = max(roads, key=lambda r: (min_dist[r], -r))
        chosen.append(farthest)
        for road in roads:
            d = midpoints[road].distance_to(midpoints[farthest])
            if d < min_dist[road]:
                min_dist[road] = d
    return _as_result("k-center", objective, chosen)

