"""Seed selection: objective, greedy family and baselines."""

from repro.seeds.baselines import k_center_select, random_select, top_degree_select
from repro.seeds.costaware import (
    DEFAULT_CLASS_COSTS,
    cost_aware_select,
    default_road_costs,
    selection_cost,
)
from repro.seeds.greedy import (
    SelectionResult,
    greedy_select,
    validate_budget,
    validate_candidates,
)
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import (
    INFLUENCE_TRANSFORMS,
    CoverageState,
    SeedSelectionObjective,
)
from repro.seeds.parallel import DistrictStage
from repro.seeds.partition import allocate_budget, partition_graph
from repro.seeds.reselect import IncrementalCelfSelector

__all__ = [
    "CoverageState",
    "DEFAULT_CLASS_COSTS",
    "DistrictStage",
    "INFLUENCE_TRANSFORMS",
    "IncrementalCelfSelector",
    "cost_aware_select",
    "default_road_costs",
    "selection_cost",
    "SeedSelectionObjective",
    "SelectionResult",
    "allocate_budget",
    "greedy_select",
    "k_center_select",
    "lazy_greedy_select",
    "partition_graph",
    "random_select",
    "top_degree_select",
    "validate_budget",
    "validate_candidates",
]
