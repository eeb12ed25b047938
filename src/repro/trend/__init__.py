"""Step-1 trend inference: the graphical model and its inference algorithms."""

from repro.trend.bp import LoopyBeliefPropagation
from repro.trend.exact import MAX_FREE_VARIABLES, ExactEnumerationInference
from repro.trend.gibbs import GibbsSamplingInference
from repro.trend.model import TrendInstance, TrendModel, TrendPosterior
from repro.trend.temporal import RotatingSeedSchedule, TemporalTrendFilter
from repro.trend.propagation import (
    TrendPropagationInference,
    instance_graph,
)

__all__ = [
    "ExactEnumerationInference",
    "GibbsSamplingInference",
    "LoopyBeliefPropagation",
    "MAX_FREE_VARIABLES",
    "TrendInstance",
    "TrendModel",
    "TrendPosterior",
    "TrendPropagationInference",
    "RotatingSeedSchedule",
    "TemporalTrendFilter",
    "instance_graph",
]
