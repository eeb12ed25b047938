"""Hypothesis strategies shared across test modules."""

from hypothesis import strategies as st

from repro.history.correlation import CorrelationEdge, CorrelationGraph


@st.composite
def random_graphs(draw, max_roads=9):
    """Correlation graphs on roads ``0..n-1`` with agreements in [0.5, 1].

    Agreement 0.5 gives a zero-fidelity edge and 1.0 a lossless one, so
    both ends of the fidelity range are reachable.
    """
    n = draw(st.integers(min_value=2, max_value=max_roads))
    edges = {}
    for _ in range(draw(st.integers(min_value=0, max_value=2 * max_roads))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges[(min(u, v), max(u, v))] = draw(
                st.floats(min_value=0.5, max_value=1.0)
            )
    return CorrelationGraph(
        list(range(n)), [CorrelationEdge(u, v, p) for (u, v), p in edges.items()]
    )
