"""Render EXPERIMENTS.md's STREAM figures from the committed gauges.

``benchmarks/test_streaming.py`` writes its timings as the
``bench.streaming_ingest_seconds`` and ``bench.streaming_serve_seconds``
gauges in ``benchmarks/results/bench_timings.json``. This script turns
their means into the figures sentence between the ``stream-figures``
markers of EXPERIMENTS.md, so the document never carries a hand-copied
number::

    python benchmarks/stream_report.py          # rewrite EXPERIMENTS.md
    python benchmarks/stream_report.py --check  # exit 1 if it disagrees
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMINGS = ROOT / "benchmarks" / "results" / "bench_timings.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BEGIN = "<!-- stream-figures:begin (benchmarks/stream_report.py) -->"
END = "<!-- stream-figures:end -->"


def mean_ms(timings: dict, family: str, mode: str) -> float:
    for series in timings[family]["series"]:
        if series["labels"] == {"mode": mode, "stat": "mean"}:
            return 1000.0 * series["value"]
    raise KeyError(f"{family} has no mean for mode={mode}")


def render(timings: dict) -> str:
    ingest = "bench.streaming_ingest_seconds"
    serve = "bench.streaming_serve_seconds"
    incremental = mean_ms(timings, ingest, "incremental")
    batch = mean_ms(timings, ingest, "batch")
    selective = mean_ms(timings, serve, "selective")
    flush = mean_ms(timings, serve, "flush")
    return (
        f"an incremental ingest (count update, array diff, in-place patch)\n"
        f"takes {incremental:.1f} ms a day against {batch:.1f} ms for a batch "
        f"re-mine of the\nwindow ({batch / incremental:.1f}× faster), with "
        f"identical final graphs asserted, and\npost-delta serving with "
        f"delta-scoped eviction takes {selective:.1f} ms a round\nagainst "
        f"{flush:.1f} ms for the wholesale flush it replaces "
        f"({flush / selective:.1f}×),"
    )


def rewrite(text: str, figures: str) -> str:
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    return f"{head}{BEGIN}\n{figures}\n{END}{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when EXPERIMENTS.md disagrees with the gauges",
    )
    args = parser.parse_args(argv)
    text = EXPERIMENTS.read_text()
    updated = rewrite(text, render(json.loads(TIMINGS.read_text())))
    if args.check:
        if updated != text:
            print("EXPERIMENTS.md STREAM figures disagree with bench_timings.json;")
            print("run: python benchmarks/stream_report.py")
            return 1
        return 0
    EXPERIMENTS.write_text(updated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
