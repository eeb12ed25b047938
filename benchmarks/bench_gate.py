"""Benchmark-regression gate over ``bench_timings.json`` snapshots.

Compares the gauge families of a current benchmark run against a
committed baseline and fails (exit 1) when any tracked timing slowed
down by more than the threshold factor. Only gauge families whose name
ends in ``_seconds`` are compared — histograms and counters (rounds,
call counts) are not timings — and only series present in *both*
snapshots participate, so adding or removing benchmarks never trips the
gate.

Usage::

    python benchmarks/bench_gate.py BASELINE.json CURRENT.json \
        [--threshold 2.0] [--min-seconds 0.001] \
        [--require bench.f8_metro_plan_]

``--min-seconds`` skips series whose baseline is below the floor:
micro-timings in the tens of microseconds jitter far more than 2x on
shared CI runners and would make the gate flaky rather than protective.

``--require PREFIX`` (repeatable) makes coverage explicit: the gate
fails when the *current* snapshot has no ``*_seconds`` gauge whose
family starts with the prefix. Present-in-both matching silently drops
a benchmark that stopped emitting its gauges; a required prefix turns
that silence into a failure.

:func:`write_timings` is how a benchmark run updates the committed
file: it merges per ``(family, labels)`` series, so a partial run
refreshes what it measured and keeps every other series.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_THRESHOLD = 2.0
DEFAULT_MIN_SECONDS = 0.001


def load_timing_gauges(path: Path) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """(family, sorted labels) -> gauge value for every ``*_seconds`` gauge."""
    snapshot = json.loads(path.read_text())
    gauges: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for family, payload in snapshot.items():
        if not family.endswith("_seconds") or payload.get("kind") != "gauge":
            continue
        for series in payload.get("series", []):
            labels = tuple(sorted(series.get("labels", {}).items()))
            value = series.get("value")
            if value is not None:
                gauges[(family, labels)] = float(value)
    return gauges


def _labels_key(series: dict) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(series.get("labels", {}).items()))


def merge_snapshots(committed: dict, current: dict) -> dict:
    """``committed`` with each series of ``current`` replacing or joining it.

    Series are keyed by ``(family, labels)``. A family whose kind changed
    keeps only the current run's series.
    """
    merged = dict(committed)
    for family, payload in current.items():
        old = merged.get(family)
        if old is None or old.get("kind") != payload["kind"]:
            merged[family] = payload
            continue
        fresh = {_labels_key(series) for series in payload["series"]}
        kept = [s for s in old["series"] if _labels_key(s) not in fresh]
        merged[family] = {
            "kind": payload["kind"],
            "series": sorted(kept + payload["series"], key=_labels_key),
        }
    return merged


def write_timings(path: Path, snapshot: dict) -> None:
    """Merge ``snapshot`` into the timings file at ``path`` (made if absent)."""
    committed = json.loads(path.read_text()) if path.exists() else {}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(merge_snapshots(committed, snapshot), indent=2, sort_keys=True)
        + "\n"
    )


def compare(
    baseline: dict[tuple[str, tuple[tuple[str, str], ...]], float],
    current: dict[tuple[str, tuple[tuple[str, str], ...]], float],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> tuple[list[tuple[str, str, float, float, float]], int]:
    """Regressions above ``threshold`` and the number of series compared.

    Each regression row is (family, labels, baseline_s, current_s,
    ratio), sorted worst-first.
    """
    regressions = []
    compared = 0
    for key, base_value in baseline.items():
        if key not in current or base_value < min_seconds:
            continue
        compared += 1
        ratio = current[key] / base_value if base_value > 0 else float("inf")
        if ratio > threshold:
            family, labels = key
            label_text = ", ".join(f"{k}={v}" for k, v in labels)
            regressions.append(
                (family, label_text, base_value, current[key], ratio)
            )
    regressions.sort(key=lambda row: row[-1], reverse=True)
    return regressions, compared


def missing_required(
    current: dict[tuple[str, tuple[tuple[str, str], ...]], float],
    required: list[str],
) -> list[str]:
    """Required family prefixes with no ``*_seconds`` gauge in ``current``."""
    families = {family for family, _ in current}
    return [
        prefix
        for prefix in required
        if not any(family.startswith(prefix) for family in families)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed bench_timings.json")
    parser.add_argument("current", type=Path, help="freshly generated snapshot")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated slowdown factor (default %(default)s)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="ignore series with a baseline below this floor (default %(default)s)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="PREFIX",
        help=(
            "fail unless the current snapshot has a *_seconds gauge "
            "family starting with PREFIX (repeatable)"
        ),
    )
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error("--threshold must be > 1.0")

    baseline = load_timing_gauges(args.baseline)
    current = load_timing_gauges(args.current)
    missing = missing_required(current, args.require)
    if missing:
        for prefix in missing:
            print(
                f"bench gate: required gauge family {prefix}* missing "
                "from the current snapshot"
            )
        return 1
    regressions, compared = compare(
        baseline, current, threshold=args.threshold, min_seconds=args.min_seconds
    )
    print(
        f"bench gate: {compared} tracked timings compared "
        f"(threshold {args.threshold:.2f}x, floor {args.min_seconds}s)"
    )
    if not regressions:
        print("bench gate: no regressions")
        return 0
    print(f"bench gate: {len(regressions)} regression(s) above threshold:")
    for family, labels, base_value, cur_value, ratio in regressions:
        print(
            f"  {family}[{labels}]: {base_value * 1000:.3f} ms -> "
            f"{cur_value * 1000:.3f} ms ({ratio:.2f}x)"
        )
    return 1


if __name__ == "__main__":
    sys.exit(main())
