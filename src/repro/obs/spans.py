"""Nested wall-clock spans with structured attributes.

A span is one timed region of the pipeline — ``trend.infer``,
``crowd.round`` — entered via context manager (or decorator through
:meth:`~repro.obs.recorder.FlightRecorder.span`). Spans nest: the tracer
keeps an explicit stack, so a span opened while another is active
records that span as its parent, and the per-round flight-recorder
summaries can attribute inner time to stages without any thread-local
machinery. Only the fidelity kernel's core runs on a helper thread
(:mod:`repro.history.fidelity`), and it never records: the calling
thread opens and fills the span of its rows.

Finished spans accumulate until :meth:`SpanTracer.drain` collects them —
which the flight recorder does once per round — and the buffer is
bounded so an undrained tracer (a library user who never snapshots)
cannot grow without limit.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.core.clock import Clock, get_clock


@dataclass
class Span:
    """One timed region. ``duration_s`` is set when the span closes."""

    name: str
    span_id: int
    parent_id: int | None
    start_s: float
    attrs: dict[str, object] = field(default_factory=dict)
    duration_s: float | None = None

    def set(self, **attrs: object) -> "Span":
        """Attach attributes mid-flight (e.g. iteration counts)."""
        self.attrs.update(attrs)
        return self

    @property
    def finished(self) -> bool:
        return self.duration_s is not None

    def to_event(self) -> dict:
        """The span as a flight-recorder JSONL event payload."""
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "dur_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class _ActiveSpan:
    """Context manager wrapping one tracer entry/exit pair."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self._span, failed=exc_type is not None)
        return False


class SpanTracer:
    """Records nested spans into a bounded finished-span buffer.

    Durations come from an injectable monotonic :class:`Clock` (the
    process default when ``clock`` is None), so span timings are immune
    to wall-clock jumps and exactly reproducible under a
    :class:`~repro.core.clock.ManualClock` in tests.
    """

    def __init__(self, max_finished: int = 4096, clock: Clock | None = None) -> None:
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._finished: deque[Span] = deque(maxlen=max_finished)
        self._clock = clock
        self.total_finished = 0

    def _now(self) -> float:
        return (self._clock or get_clock()).monotonic()

    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=self._stack[-1].span_id if self._stack else None,
            start_s=self._now(),
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, span)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def _push(self, span: Span) -> None:
        # Re-stamp the start on entry: the span object may have been
        # created eagerly, and parentage must reflect entry-time nesting.
        span.parent_id = self._stack[-1].span_id if self._stack else None
        span.start_s = self._now()
        self._stack.append(span)

    def _pop(self, span: Span, failed: bool = False) -> None:
        span.duration_s = self._now() - span.start_s
        if failed:
            span.attrs["error"] = True
        # Tolerate exception-driven unwinding that skipped inner exits.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._finished.append(span)
        self.total_finished += 1

    def drain(self) -> list[Span]:
        """All spans finished since the last drain (oldest first)."""
        out = list(self._finished)
        self._finished.clear()
        return out


def aggregate_spans(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Collapse finished spans into per-name stage summaries.

    Returns ``{name: {"count": n, "total_s": t, "max_s": m}}`` — the
    shape the flight recorder stores per round and the report renders
    as stage-timing columns.
    """
    stages: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.duration_s is None:
            continue
        stage = stages.setdefault(
            span.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stage["count"] += 1
        stage["total_s"] += span.duration_s
        stage["max_s"] = max(stage["max_s"], span.duration_s)
    return stages
