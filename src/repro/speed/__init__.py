"""Step-2 speed inference: deviation hierarchy, HLM, two-step estimator."""

from repro.speed.degradation import (
    PRIOR,
    STALE,
    DegradationParams,
    DegradationPolicy,
)
from repro.speed.estimator import EstimateColumns, TwoStepEstimator
from repro.speed.uncertainty import (
    BandColumns,
    SpeedBand,
    UncertaintyModel,
    sharpness_kmh,
    z_for_confidence,
)
from repro.speed.hierarchy import DeviationHierarchy
from repro.speed.plan import (
    IntervalPlan,
    IntervalPlanner,
    PlanCacheStats,
)
from repro.speed.hlm import (
    HierarchicalLinearModel,
    HlmParams,
    JointSeedRegression,
)

__all__ = [
    "BandColumns",
    "DegradationParams",
    "DegradationPolicy",
    "DeviationHierarchy",
    "EstimateColumns",
    "PRIOR",
    "STALE",
    "HierarchicalLinearModel",
    "HlmParams",
    "IntervalPlan",
    "IntervalPlanner",
    "PlanCacheStats",
    "JointSeedRegression",
    "SpeedBand",
    "TwoStepEstimator",
    "UncertaintyModel",
    "sharpness_kmh",
    "z_for_confidence",
]
