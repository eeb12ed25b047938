"""Shared benchmark fixtures and experiment-report plumbing.

Each benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's per-experiment index). Because pytest captures stdout, the
experiment tables are collected through the ``report`` fixture and
printed in the terminal summary, as well as written to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can reference
stable artefacts.

Every run additionally seeds the BENCH trajectory: per-benchmark wall
times (and pytest-benchmark kernel statistics when available) are
funnelled through a :class:`repro.obs.MetricsRegistry` and merged into
``benchmarks/results/bench_timings.json`` per ``(family, labels)``
series, so a partial run refreshes only what it measured and successive
changes keep a machine-readable baseline to diff against.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from benchmarks.bench_gate import write_timings
from repro.core.pipeline import SpeedEstimationSystem
from repro.datasets.synthetic import synthetic_beijing, synthetic_tianjin
from repro.obs import MetricsRegistry

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_TIMINGS = RESULTS_DIR / "bench_timings.json"

_collected_reports: list[str] = []
_bench_registry = MetricsRegistry()


@pytest.fixture
def report():
    """Record an experiment table: report(experiment_id, text)."""

    def _record(experiment_id: str, text: str) -> None:
        _collected_reports.append(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")

    return _record


def pytest_runtest_logreport(report):
    """Record every benchmark test's call-phase wall time in the registry."""
    if report.when != "call" or not report.passed:
        return
    _bench_registry.histogram("bench.call_seconds", test=report.nodeid).observe(
        report.duration
    )


def _harvest_benchmark_stats(config) -> None:
    """Fold pytest-benchmark kernel stats into the registry when present.

    The benchmark session object is a private attribute, so probe
    defensively: our own call-phase timings above are the guaranteed
    baseline, these per-kernel stats are a bonus.
    """
    session = getattr(config, "_benchmarksession", None)
    for bench in getattr(session, "benchmarks", None) or []:
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        for stat in ("min", "mean", "max"):
            value = getattr(stats, stat, None)
            if value is not None:
                _bench_registry.gauge(
                    "bench.kernel_seconds", test=bench.fullname, stat=stat
                ).set(float(value))
        rounds = getattr(stats, "rounds", None)
        if rounds:
            _bench_registry.counter(
                "bench.kernel_rounds", test=bench.fullname
            ).inc(rounds)


def pytest_terminal_summary(terminalreporter):
    _harvest_benchmark_stats(terminalreporter.config)
    if _bench_registry.families():
        write_timings(BENCH_TIMINGS, _bench_registry.snapshot())
    if not _collected_reports:
        return
    terminalreporter.write_sep("=", "experiment tables")
    for text in _collected_reports:
        terminalreporter.write_line(text)
        terminalreporter.write_line("")


@pytest.fixture(scope="session")
def beijing():
    return synthetic_beijing()


@pytest.fixture(scope="session")
def tianjin():
    return synthetic_tianjin()


@pytest.fixture(scope="session")
def beijing_system(beijing):
    return SpeedEstimationSystem.from_parts(
        beijing.network, beijing.store, beijing.graph
    )


@pytest.fixture(scope="session")
def tianjin_system(tianjin):
    return SpeedEstimationSystem.from_parts(
        tianjin.network, tianjin.store, tianjin.graph
    )


def budget_for(dataset, percent: float) -> int:
    """Budget K as a percentage of the network's road count (>= 1)."""
    return max(1, round(dataset.network.num_segments * percent / 100.0))
