"""Seed selection: objective, greedy family, baselines, NP-hardness reduction."""

from repro.seeds.baselines import (
    betweenness_select,
    k_center_select,
    make_objective,
    random_select,
    top_degree_select,
)
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
from repro.seeds.hardness import (
    SeedSelectionHardnessInstance,
    covers_all_elements,
    min_seed_budget,
    min_set_cover_size,
    set_cover_to_seed_selection,
)
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import (
    INFLUENCE_TRANSFORMS,
    CoverageState,
    SeedSelectionObjective,
)
from repro.seeds.parallel import DistrictStage, parallel_partition_select
from repro.seeds.partition import (
    allocate_budget,
    partition_graph,
    partition_greedy_select,
)
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
    "SeedSelectionHardnessInstance",
    "SeedSelectionObjective",
    "SelectionResult",
    "allocate_budget",
    "betweenness_select",
    "covers_all_elements",
    "greedy_select",
    "k_center_select",
    "lazy_greedy_select",
    "make_objective",
    "min_seed_budget",
    "min_set_cover_size",
    "parallel_partition_select",
    "partition_graph",
    "partition_greedy_select",
    "random_select",
    "set_cover_to_seed_selection",
    "top_degree_select",
    "validate_budget",
    "validate_candidates",
]
