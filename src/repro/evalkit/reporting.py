"""Plain-text result tables, the output format of every benchmark.

The benchmarks print the same kind of rows the paper's tables and
figures report; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

# The one table formatter lives in the leaf repro.obs.report (every
# instrumented layer imports repro.obs); it is re-exported here.
from repro.obs.report import fmt, format_table

__all__ = ["fmt", "fmt_pct", "fmt_speedup", "format_table"]


def fmt_pct(value: float, digits: int = 1) -> str:
    """Percentage formatting (input already in percent)."""
    return f"{value:.{digits}f}%"


def fmt_speedup(factor: float) -> str:
    """Speed-up factor formatting, e.g. '113.2x'."""
    return f"{factor:.1f}x"
