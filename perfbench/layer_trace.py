"""Per-layer spans taken from outside the program.

:class:`LayerTracer` replaces public entry points of the ``repro``
package (methods, class methods and module functions) with thin
wrappers that record one span per call: layer name, start, end and the
enclosing span. Nothing under ``src/`` is edited; :meth:`uninstall`
puts every original back. Spans stay in memory until :meth:`write`.

A layer's self time is its span's duration minus the time covered by
its child spans. Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# Span fields, kept as small lists: [id, parent, layer, start, end, child_s].
_ID, _PARENT, _LAYER, _START, _END, _CHILD = range(6)


class LayerTracer:
    """Records nested layer spans around wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, layer: str) -> None:
        """Trace ``owner.attr`` as ``layer`` (method, classmethod or function)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._traced(original.__func__, layer))
        else:
            replacement = self._traced(original, layer)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _traced(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [len(tracer.spans), parent[_ID] if parent else None, layer,
                    time.perf_counter(), 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[_CHILD] += span[_END] - span[_START]

        return traced

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def call_median(self, layer: str) -> float:
        """Median inclusive seconds per call of ``layer``.

        A call nested inside another call of the same layer is not
        counted again. 0.0 when the layer never ran.
        """
        layer_of = {span[_ID]: span[_LAYER] for span in self.spans}
        durations = [
            span[_END] - span[_START]
            for span in self.spans
            if span[_LAYER] == layer
            and (span[_PARENT] is None or layer_of[span[_PARENT]] != layer)
        ]
        return statistics.median(durations) if durations else 0.0

    def self_times_under(self, root_layer: str) -> dict[int, dict[str, float]]:
        """Self seconds by layer inside each top-level ``root_layer`` span.

        Keyed by root span id (e.g. one entry per published round); the
        values of an entry add up to that root span's duration.
        """
        roots: dict[int, dict[str, float]] = {}
        root_of: dict[int, int | None] = {}
        for span in self.spans:
            parent = span[_PARENT]
            if parent is None:
                root = span[_ID] if span[_LAYER] == root_layer else None
                if root is not None:
                    roots[root] = defaultdict(float)
            else:
                root = root_of[parent]
            root_of[span[_ID]] = root
            if root is not None:
                self_s = span[_END] - span[_START] - span[_CHILD]
                roots[root][span[_LAYER]] += self_s
        return {root: dict(times) for root, times in roots.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "layer", "start", "end", "child_s"],
                    "spans": self.spans,
                },
                handle,
            )
