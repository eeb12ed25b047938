"""Graph deltas as edge tuples, and the list-form graph diff.

:class:`EdgeTuples` is the one bridge between edge tuples and the
array-only :class:`~repro.history.incremental.GraphDelta`: tests build
deltas from :class:`CorrelationEdge` objects and ``(u, v)`` pairs with
:meth:`EdgeTuples.delta`, and read a delta back as tuples with
:meth:`EdgeTuples.of`, order kept both ways.

:func:`diff_edges` is the original per-object form of
:func:`repro.history.incremental.diff_edges`. It materialises the live
graph's edges, keys both edge sets in dicts and walks them in sorted
order. The production diff matches sorted integer keys over arrays
instead and must return an equal :class:`GraphDelta`, tuple order
included (``tests/test_delta_oracle.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.errors import DataError
from repro.history.correlation import CorrelationEdge, CorrelationGraph, edge_objects
from repro.history.incremental import GraphDelta


class EdgeTuples(NamedTuple):
    """A delta's edges as tuples: ``added`` and ``reweighted`` of
    :class:`CorrelationEdge`, ``removed`` of ``(road_u, road_v)``."""

    added: tuple[CorrelationEdge, ...] = ()
    removed: tuple[tuple[int, int], ...] = ()
    reweighted: tuple[CorrelationEdge, ...] = ()

    def delta(self) -> GraphDelta:
        """The :class:`GraphDelta` of these edges, in their order."""

        def columns(edges):
            return (
                [e.road_u for e in edges],
                [e.road_v for e in edges],
                [e.agreement for e in edges],
            )

        removed = np.array(self.removed, dtype=np.int64).reshape(-1, 2).T
        return GraphDelta(
            added=columns(self.added),
            removed=tuple(removed),
            reweighted=columns(self.reweighted),
        )

    @classmethod
    def of(cls, delta: GraphDelta) -> "EdgeTuples":
        """``delta``'s edges as tuples, in its array order."""
        rem_u, rem_v = delta.removed_arrays
        return cls(
            added=tuple(edge_objects(*delta.added_arrays)),
            removed=tuple(zip(rem_u.tolist(), rem_v.tolist())),
            reweighted=tuple(edge_objects(*delta.reweighted_arrays)),
        )


def diff_edges(
    graph: CorrelationGraph,
    edges: list[CorrelationEdge],
    tolerance: float = 0.0,
) -> GraphDelta:
    """The :class:`GraphDelta` turning ``graph`` into the mined ``edges``.

    A surviving edge whose new agreement differs from the graph's
    current one by at most ``tolerance`` keeps its current weight and
    stays out of the delta; presence changes always appear.
    """
    if tolerance < 0.0:
        raise DataError(f"delta tolerance must be >= 0, got {tolerance}")
    old = {(e.road_u, e.road_v): e.agreement for e in graph.edges()}
    new: dict[tuple[int, int], float] = {}
    for edge in edges:
        key = (
            (edge.road_u, edge.road_v)
            if edge.road_u < edge.road_v
            else (edge.road_v, edge.road_u)
        )
        new[key] = edge.agreement
    added = tuple(
        CorrelationEdge(u, v, p)
        for (u, v), p in sorted(new.items())
        if (u, v) not in old
    )
    removed = tuple(key for key in sorted(old) if key not in new)
    reweighted = tuple(
        CorrelationEdge(u, v, new[(u, v)])
        for (u, v) in sorted(new.keys() & old.keys())
        if abs(new[(u, v)] - old[(u, v)]) > tolerance
    )
    return EdgeTuples(added, removed, reweighted).delta()
