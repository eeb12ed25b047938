"""Step-1 trend inference: the graphical model and its inference algorithms."""

from repro.trend.bp import LoopyBeliefPropagation
from repro.trend.exact import (
    MAX_FREE_VARIABLES,
    ExactEnumerationInference,
    exact_map_assignment,
)
from repro.trend.gibbs import GibbsSamplingInference
from repro.trend.mapcut import GraphCutMapInference
from repro.trend.maxflow import MaxFlowNetwork
from repro.trend.model import TrendInstance, TrendModel, TrendPosterior
from repro.trend.temporal import RotatingSeedSchedule, TemporalTrendFilter
from repro.trend.propagation import (
    TrendPropagationInference,
    edge_fidelity,
    instance_graph,
)

__all__ = [
    "ExactEnumerationInference",
    "GibbsSamplingInference",
    "GraphCutMapInference",
    "MaxFlowNetwork",
    "LoopyBeliefPropagation",
    "MAX_FREE_VARIABLES",
    "TrendInstance",
    "TrendModel",
    "TrendPosterior",
    "TrendPropagationInference",
    "RotatingSeedSchedule",
    "TemporalTrendFilter",
    "edge_fidelity",
    "exact_map_assignment",
    "instance_graph",
]
