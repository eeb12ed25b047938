"""Synthetic datasets standing in for the paper's Beijing/Tianjin data."""

from repro.datasets.splits import RUSH_WINDOWS, is_rush_hour
from repro.datasets.synthetic import (
    TrafficDataset,
    build_dataset,
    scaled_dataset,
    synthetic_beijing,
    synthetic_tianjin,
)

__all__ = [
    "RUSH_WINDOWS",
    "TrafficDataset",
    "build_dataset",
    "is_rush_hour",
    "scaled_dataset",
    "synthetic_beijing",
    "synthetic_tianjin",
]
