"""Unit tests for the benchmark-regression gate (benchmarks/bench_gate.py)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_gate import compare, load_timing_gauges, main  # noqa: E402


def snapshot(**gauges):
    """A minimal bench_timings.json payload with one labelled series each."""
    families = {}
    for name, entries in gauges.items():
        family = name.replace("__", ".")
        families[family] = {
            "kind": "gauge",
            "series": [
                {"labels": labels, "value": value} for labels, value in entries
            ],
        }
    return families


def write(tmp_path, filename, payload):
    path = tmp_path / filename
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "bench.kernel_vs_scalar_seconds": {
        "kind": "gauge",
        "series": [
            {"labels": {"test": "f3", "path": "kernel"}, "value": 0.010},
            {"labels": {"test": "f3", "path": "scalar"}, "value": 0.100},
        ],
    },
    "bench.kernel_vs_scalar_speedup": {
        "kind": "gauge",
        "series": [{"labels": {"test": "f3"}, "value": 10.0}],
    },
    "bench.call_seconds": {
        "kind": "histogram",
        "series": [{"labels": {"test": "t"}, "count": 1, "sum": 5.0}],
    },
}


class TestLoading:
    def test_only_seconds_gauges_loaded(self, tmp_path):
        path = write(tmp_path, "base.json", BASE)
        gauges = load_timing_gauges(path)
        names = {family for family, _ in gauges}
        assert names == {"bench.kernel_vs_scalar_seconds"}
        assert len(gauges) == 2

    def test_labels_are_order_insensitive(self, tmp_path):
        a = write(
            tmp_path,
            "a.json",
            snapshot(x_seconds=[({"b": "2", "a": "1"}, 1.0)]),
        )
        b = write(
            tmp_path,
            "b.json",
            snapshot(x_seconds=[({"a": "1", "b": "2"}, 1.0)]),
        )
        assert load_timing_gauges(a) == load_timing_gauges(b)


class TestCompare:
    def test_no_regression_within_threshold(self):
        base = {("x_seconds", ()): 0.10}
        current = {("x_seconds", ()): 0.19}
        regressions, compared = compare(base, current, threshold=2.0)
        assert regressions == [] and compared == 1

    def test_slowdown_above_threshold_flagged(self):
        base = {("x_seconds", (("test", "t"),)): 0.10}
        current = {("x_seconds", (("test", "t"),)): 0.25}
        regressions, _ = compare(base, current, threshold=2.0)
        assert len(regressions) == 1
        family, labels, base_v, cur_v, ratio = regressions[0]
        assert family == "x_seconds" and labels == "test=t"
        assert ratio == pytest.approx(2.5)

    def test_series_only_in_one_snapshot_ignored(self):
        base = {("x_seconds", ()): 0.10, ("gone_seconds", ()): 0.10}
        current = {("x_seconds", ()): 0.10, ("new_seconds", ()): 9.9}
        regressions, compared = compare(base, current)
        assert regressions == [] and compared == 1

    def test_micro_timings_below_floor_skipped(self):
        base = {("x_seconds", ()): 1e-5}
        current = {("x_seconds", ()): 1e-3}  # 100x, but micro-scale
        regressions, compared = compare(base, current, min_seconds=0.001)
        assert regressions == [] and compared == 0

    def test_regressions_sorted_worst_first(self):
        base = {("a_seconds", ()): 0.1, ("b_seconds", ()): 0.1}
        current = {("a_seconds", ()): 0.3, ("b_seconds", ()): 0.9}
        regressions, _ = compare(base, current, threshold=2.0)
        assert [row[0] for row in regressions] == ["b_seconds", "a_seconds"]


class TestMain:
    def test_exit_zero_when_clean(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", BASE)
        current = write(tmp_path, "current.json", BASE)
        assert main([str(base), str(current)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        slowed = json.loads(json.dumps(BASE))
        slowed["bench.kernel_vs_scalar_seconds"]["series"][0]["value"] = 0.05
        base = write(tmp_path, "base.json", BASE)
        current = write(tmp_path, "current.json", slowed)
        assert main([str(base), str(current)]) == 1
        out = capsys.readouterr().out
        assert "5.00x" in out and "path=kernel" in out

    def test_threshold_validated(self, tmp_path):
        base = write(tmp_path, "base.json", BASE)
        with pytest.raises(SystemExit):
            main([str(base), str(base), "--threshold", "1.0"])


class TestRequiredFamilies:
    def test_missing_required_prefix_fails(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", BASE)
        current = write(tmp_path, "current.json", BASE)
        assert (
            main(
                [str(base), str(current), "--require", "bench.f8_metro_plan_"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "bench.f8_metro_plan_" in out and "missing" in out

    def test_present_required_prefix_passes(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE))
        payload["bench.f8_metro_plan_compile_sharded_seconds"] = {
            "kind": "gauge",
            "series": [{"labels": {"roads": "53000"}, "value": 12.0}],
        }
        base = write(tmp_path, "base.json", payload)
        current = write(tmp_path, "current.json", payload)
        assert (
            main(
                [str(base), str(current), "--require", "bench.f8_metro_plan_"]
            )
            == 0
        )

    def test_required_prefix_must_be_a_seconds_gauge(self, tmp_path):
        """A counter or non-timing gauge does not satisfy the prefix."""
        payload = json.loads(json.dumps(BASE))
        payload["bench.f8_metro_plan_compiles"] = {
            "kind": "counter",
            "series": [{"labels": {}, "value": 64.0}],
        }
        base = write(tmp_path, "base.json", payload)
        current = write(tmp_path, "current.json", payload)
        assert (
            main(
                [str(base), str(current), "--require", "bench.f8_metro_plan_"]
            )
            == 1
        )

    def test_multiple_requires_all_checked(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", BASE)
        current = write(tmp_path, "current.json", BASE)
        code = main(
            [
                str(base),
                str(current),
                "--require",
                "bench.kernel_vs_scalar_",
                "--require",
                "bench.f8_metro_plan_",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "bench.f8_metro_plan_" in out
        assert "bench.kernel_vs_scalar_" not in out


class TestPartialRunMerge:
    """A benchmark run merges into bench_timings.json per series."""

    def _run(self, monkeypatch, path, observe):
        """One benchmark session's terminal summary over a fresh registry."""
        import types

        from benchmarks import conftest
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        observe(registry)
        monkeypatch.setattr(conftest, "_bench_registry", registry)
        monkeypatch.setattr(conftest, "_collected_reports", [])
        monkeypatch.setattr(conftest, "BENCH_TIMINGS", path)
        conftest.pytest_terminal_summary(
            types.SimpleNamespace(config=types.SimpleNamespace())
        )
        return json.loads(path.read_text())

    def test_partial_run_keeps_other_families(self, tmp_path, monkeypatch):
        path = tmp_path / "results" / "bench_timings.json"

        def full_run(registry):
            for test in ("f4", "f8"):
                registry.histogram("bench.call_seconds", test=test).observe(2.0)
            registry.gauge("bench.f4_seconds", budget="10").set(1.0)
            registry.gauge("bench.f8_metro_plan_seconds").set(9.0)

        def partial_run(registry):
            registry.histogram("bench.call_seconds", test="f8").observe(3.0)
            registry.gauge("bench.f8_metro_plan_seconds").set(8.0)
            registry.gauge("bench.f8_metro_new_seconds").set(1.5)

        self._run(monkeypatch, path, full_run)
        merged = self._run(monkeypatch, path, partial_run)

        calls = {
            s["labels"]["test"]: s["sum"]
            for s in merged["bench.call_seconds"]["series"]
        }
        assert calls == {"f4": 2.0, "f8": 3.0}
        assert merged["bench.f4_seconds"]["series"] == [
            {"labels": {"budget": "10"}, "value": 1.0}
        ]
        assert merged["bench.f8_metro_plan_seconds"]["series"][0]["value"] == 8.0
        assert merged["bench.f8_metro_new_seconds"]["series"][0]["value"] == 1.5

    def test_changed_kind_takes_the_current_series(self):
        from bench_gate import merge_snapshots

        committed = {"x": {"kind": "counter", "series": [{"labels": {}, "value": 1}]}}
        current = {
            "x": {"kind": "gauge", "series": [{"labels": {"a": "1"}, "value": 2}]}
        }
        assert merge_snapshots(committed, current) == current
