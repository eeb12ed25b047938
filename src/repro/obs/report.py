"""Render a recorded run back into a round-by-round summary.

Reads the JSONL event log a :class:`~repro.obs.recorder.FlightRecorder`
wrote and produces the operator view: one row per estimation round with
its stage timings (seed selection, crowd round, trend inference, speed
solve) and health deltas (quarantined workers, breaker trips, seed
substitutions). This is the ``repro-traffic obs report`` backend and
the programmatic API for notebooks.

Cumulative counters in the round snapshots are converted to per-round
deltas here, so adding a counter to the instrumentation automatically
makes it reportable without touching the recorder format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.core.errors import DataError

# repro.obs is imported by every instrumented layer, so this module
# must stay a leaf: the package's one table formatter lives here, and
# repro.evalkit.reporting re-exports it for the benchmarks.


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """An aligned monospace table.

    Cells are stringified with ``str``; floats should be pre-formatted
    by the caller so each table controls its own precision.
    """
    if not headers:
        raise DataError("table needs headers")
    str_rows = [[str(cell) for cell in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise DataError(
                f"row {i} has {len(row)} cells for {len(headers)} headers"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows))
        if str_rows
        else len(headers[c])
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def fmt(value: float, digits: int = 2) -> str:
    """Fixed-point float formatting for table cells."""
    return f"{value:.{digits}f}"


#: Span name -> report column for the per-round stage timing table.
STAGE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("seeds.select", "seeds ms"),
    ("crowd.round", "crowd ms"),
    ("trend.infer", "trend ms"),
    ("speed.solve_vectorized", "solve ms"),
)


def load_events(path: str | Path) -> list[dict]:
    """Parse one JSONL recording; raises :class:`DataError` if unusable.

    Malformed lines, a missing/empty file, or a recording with zero
    events are all hard errors — the CI gate runs exactly this.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"recording {path} does not exist")
    events: list[dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(
                    f"{path}:{lineno}: malformed JSONL line: {exc}"
                ) from exc
            if not isinstance(event, dict) or "type" not in event:
                raise DataError(
                    f"{path}:{lineno}: event must be an object with a 'type'"
                )
            events.append(event)
    if not events:
        raise DataError(f"recording {path} is empty")
    return events


#: Required fields per structured event kind. ``obs verify`` rejects a
#: recording containing an event of an unknown kind or one missing a
#: required field — the schema contract the trace/SLO consumers
#: (``obs top``, the chaos suite, downstream tooling) rely on. New
#: emitters must register here; docs/OBSERVABILITY.md documents each.
EVENT_SCHEMAS: dict[str, tuple[str, ...]] = {
    "read_trace": (
        "trace_id", "rung", "statuses", "roads", "latency_s",
        "snapshot_version", "age_s", "breaker_open", "sampled",
    ),
    "slo_alert": (
        "slo", "previous", "state", "burn_fast", "burn_slow", "target",
    ),
    "publish_rejected": ("version", "reason"),
    "round_not_published": ("round", "interval", "outcome"),
    "snapshot_corrupt": ("file", "reason"),
    "snapshot_corruption_injected": ("file",),
}


def verify_recording(path: str | Path) -> str:
    """Validate a recording; returns a one-line summary, raises on rot.

    Beyond well-formed JSONL, every ``event`` line is checked against
    :data:`EVENT_SCHEMAS`: an unknown kind, a missing kind, or a kind
    missing one of its required fields is a hard error.
    """
    events = load_events(path)
    by_type: dict[str, int] = {}
    for lineno, event in enumerate(events, start=1):
        by_type[event["type"]] = by_type.get(event["type"], 0) + 1
        if event["type"] != "event":
            continue
        kind = event.get("kind")
        if kind is None:
            raise DataError(f"{path}: event #{lineno} has no 'kind'")
        schema = EVENT_SCHEMAS.get(kind)
        if schema is None:
            raise DataError(
                f"{path}: event #{lineno} has unknown kind {kind!r} "
                f"(known: {sorted(EVENT_SCHEMAS)})"
            )
        missing = [field for field in schema if field not in event]
        if missing:
            raise DataError(
                f"{path}: {kind!r} event #{lineno} is missing required "
                f"fields {missing}"
            )
    if by_type.get("span", 0) == 0 and by_type.get("round", 0) == 0:
        raise DataError(
            f"recording {path} has no span or round events "
            f"(types seen: {sorted(by_type)})"
        )
    summary = ", ".join(f"{n} {t}" for t, n in sorted(by_type.items()))
    return f"{path}: {len(events)} events ({summary})"


def _counter_delta(
    current: dict[str, float], previous: dict[str, float], prefix: str
) -> float:
    """Summed increase of every counter series under ``prefix``."""
    total = 0.0
    for key, value in current.items():
        if key == prefix or key.startswith(prefix + "{"):
            total += value - previous.get(key, 0.0)
    return total


def _counter_value(counters: dict[str, float], prefix: str) -> float:
    return sum(
        value
        for key, value in counters.items()
        if key == prefix or key.startswith(prefix + "{")
    )


def summarize_rounds(events: list[dict]) -> list[dict]:
    """One flat summary dict per round event, with counter deltas.

    A log can hold several runs appended one after another; each starts
    with a ``meta`` event and its counters restart from zero, so the
    delta baseline resets there.
    """
    rows: list[dict] = []
    previous: dict[str, float] = {}
    for event in events:
        if event.get("type") == "meta":
            previous = {}
        if event.get("type") != "round":
            continue
        counters = event.get("counters", {})
        stages = event.get("stages", {})
        fields = event.get("fields", {})
        row = {
            "round": event.get("round"),
            "interval": event.get("interval"),
            "wall_s": event.get("wall_s"),
            "stages": stages,
            "quarantined": _counter_value(counters, "crowd.quarantined_workers"),
            "breaker_trips": _counter_delta(
                counters, previous, "crowd.breaker.trips"
            ),
            "substitutions": _counter_delta(
                counters, previous, "pipeline.substitutions"
            ),
            "tasks_answered": _counter_delta(
                counters, previous, "crowd.tasks{status=answered}"
            ),
            "tasks_failed": sum(
                _counter_delta(counters, previous, f"crowd.tasks{{status={s}}}")
                for s in ("no_response", "dropped", "skipped_circuit_open")
            ),
            "degraded": bool(fields.get("degraded", False)),
        }
        rows.append(row)
        previous = counters
    return rows


def _stage_ms(stages: dict, span_name: str) -> str:
    stage = stages.get(span_name)
    if not stage:
        return "-"
    return fmt(stage["total_s"] * 1000.0, 2)


def render_report(events: list[dict], title: str | None = None) -> str:
    """The round-by-round operator table for one recording."""
    rounds = summarize_rounds(events)
    if not rounds:
        spans = [e for e in events if e.get("type") == "span"]
        if not spans:
            raise DataError("recording contains no round or span events")
        # Span-only recording (e.g. a plain estimate run): aggregate.
        totals: dict[str, tuple[int, float]] = {}
        for span in spans:
            count, total = totals.get(span["name"], (0, 0.0))
            totals[span["name"]] = (count + 1, total + (span.get("dur_s") or 0.0))
        rows = [
            [name, count, fmt(total * 1000.0, 2)]
            for name, (count, total) in sorted(totals.items())
        ]
        return format_table(
            ["span", "count", "total ms"],
            rows,
            title=title or "Recorded spans (no rounds)",
        )

    headers = (
        ["round", "interval", "wall ms"]
        + [column for _, column in STAGE_COLUMNS]
        + ["answered", "failed", "subst", "quarantine", "trips", "degraded"]
    )
    table_rows = []
    for row in rounds:
        table_rows.append(
            [
                row["round"],
                row["interval"] if row["interval"] is not None else "-",
                fmt(row["wall_s"] * 1000.0, 2) if row["wall_s"] else "-",
                *[_stage_ms(row["stages"], name) for name, _ in STAGE_COLUMNS],
                int(row["tasks_answered"]),
                int(row["tasks_failed"]),
                int(row["substitutions"]),
                int(row["quarantined"]),
                int(row["breaker_trips"]),
                "yes" if row["degraded"] else "",
            ]
        )
    degraded = sum(1 for r in rounds if r["degraded"])
    table = format_table(
        headers,
        table_rows,
        title=title or f"Flight recording: {len(rounds)} rounds",
    )
    footer = (
        f"\n{len(rounds)} rounds, {degraded} degraded; "
        f"totals: {int(sum(r['tasks_answered'] for r in rounds))} answered, "
        f"{int(sum(r['tasks_failed'] for r in rounds))} failed, "
        f"{int(sum(r['substitutions'] for r in rounds))} substituted, "
        f"{int(sum(r['breaker_trips'] for r in rounds))} breaker trips"
    )
    return table + footer


def report_file(path: str | Path) -> str:
    """Load + render in one call (the CLI entry point)."""
    events = load_events(path)
    return render_report(events, title=f"Flight recording: {path}")
