"""Evaluation kit: metrics, harness, reporting."""

from repro.evalkit.ascii_map import (
    DEFAULT_RAMP,
    render_deviation_map,
    render_road_values,
)
from repro.evalkit.calibration import (
    CalibrationReport,
    ReliabilityBin,
    calibration_report,
)
from repro.evalkit.harness import Evaluation, EvaluationResult, TwoStepMethod
from repro.evalkit.metrics import (
    SpeedErrors,
    TrendMetrics,
    improvement_percent,
    speed_errors,
    trend_metrics,
)
from repro.evalkit.reporting import fmt, fmt_pct, fmt_speedup, format_table

__all__ = [
    "CalibrationReport",
    "DEFAULT_RAMP",
    "render_deviation_map",
    "render_road_values",
    "Evaluation",
    "ReliabilityBin",
    "calibration_report",
    "EvaluationResult",
    "SpeedErrors",
    "TrendMetrics",
    "TwoStepMethod",
    "fmt",
    "fmt_pct",
    "fmt_speedup",
    "format_table",
    "improvement_percent",
    "speed_errors",
    "trend_metrics",
]
