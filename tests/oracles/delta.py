"""The list-form graph diff: the reference for the array diff.

:func:`diff_edges` is the original per-object form of
:func:`repro.history.incremental.diff_edges`. It materialises the live
graph's edges, keys both edge sets in dicts and walks them in sorted
order. The production diff matches sorted integer keys over arrays
instead and must return an equal :class:`GraphDelta`, tuple order
included (``tests/test_delta_oracle.py``).
"""

from __future__ import annotations

from repro.core.errors import DataError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.incremental import GraphDelta


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
    return GraphDelta(added=added, removed=removed, reweighted=reweighted)
