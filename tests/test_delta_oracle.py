"""The array graph diff against the list-form oracle, and its apply.

A streamed re-mine hands :func:`repro.history.incremental.diff_edges`
the mined edges as ``(road_u, road_v, agreement)`` arrays and patches
the live graph with :meth:`CorrelationGraph.apply_delta`. Three
contracts are pinned here:

* the array delta is ``==`` to :func:`tests.oracles.delta.diff_edges`
  on the same edges, tuple order included, at every tolerance;
* a patched graph's ``neighbours()`` equal a freshly built graph of the
  same edges for every road;
* a re-mine builds edge objects only for the edges that changed: the
  ``history.remine`` span's ``edges_built`` equals the constructions
  actually made, which is 0 for an empty delta.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.history.correlation import (
    CorrelationEdge,
    CorrelationGraph,
    mine_correlation_graph,
)
from repro.history.incremental import diff_edges
from repro.history.online import RollingHistory
from repro.history.timebuckets import TimeGrid
from repro.obs import FlightRecorder, recording
from repro.roadnet.generators import grid_city
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork
from tests.oracles.delta import diff_edges as oracle_diff

TOLERANCES = (0.0, 1e-3, 0.05)


def _arrays(edges):
    return (
        np.array([e.road_u for e in edges], dtype=np.int64),
        np.array([e.road_v for e in edges], dtype=np.int64),
        np.array([e.agreement for e in edges], dtype=np.float64),
    )


def _array_diff(graph, edges, tolerance=0.0):
    return diff_edges(graph, *_arrays(edges), tolerance=tolerance)


def _adjacency(graph):
    return {road: graph.neighbours(road) for road in graph.road_ids}


def _assert_patched_like_fresh(graph):
    fresh = CorrelationGraph(graph.road_ids, list(graph.edges()))
    assert _adjacency(graph) == _adjacency(fresh)


def _line_network(num_roads):
    net = RoadNetwork()
    for node in range(num_roads + 1):
        net.add_intersection(node, Point(100.0 * node, 0))
    for road in range(num_roads):
        net.add_segment(road, road, road + 1)
    return net


# ----------------------------------------------------------------------
# Hand-written cases
# ----------------------------------------------------------------------
GRAPH_EDGES = [
    CorrelationEdge(1, 2, 0.9),
    CorrelationEdge(2, 3, 0.7),
    CorrelationEdge(1, 3, 0.8),
]


@pytest.mark.parametrize(
    "graph_edges, mined",
    [
        (
            GRAPH_EDGES,
            [
                CorrelationEdge(1, 2, 0.9),
                CorrelationEdge(2, 3, 0.8),
                CorrelationEdge(3, 4, 0.65),
            ],
        ),
        (GRAPH_EDGES, [CorrelationEdge(1, 2, 0.9)]),
        (GRAPH_EDGES, []),  # every edge removed
        ([], GRAPH_EDGES),  # every edge added
        ([], []),  # empty graph, nothing mined
        (GRAPH_EDGES, list(reversed(GRAPH_EDGES))),  # same edges, any order
        (GRAPH_EDGES, [CorrelationEdge(3, 1, 0.8005), CorrelationEdge(4, 2, 0.6)]),
    ],
    ids=[
        "each-kind",
        "removals",
        "all-removed",
        "all-added",
        "empty",
        "unchanged",
        "flipped-ends",
    ],
)
@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_array_diff_equals_oracle(graph_edges, mined, tolerance):
    graph = CorrelationGraph([1, 2, 3, 4], graph_edges)
    delta = _array_diff(graph, mined, tolerance)
    assert delta == oracle_diff(graph, mined, tolerance)
    graph.apply_delta(delta)
    _assert_patched_like_fresh(graph)


def test_sub_tolerance_edge_keeps_current_weight():
    graph = CorrelationGraph([1, 2], [CorrelationEdge(1, 2, 0.80)])
    assert _array_diff(graph, [CorrelationEdge(1, 2, 0.805)], 0.01).is_empty
    moved = _array_diff(graph, [CorrelationEdge(1, 2, 0.805)], 0.001)
    assert moved.reweighted == (CorrelationEdge(1, 2, 0.805),)


def test_keys_hold_for_negative_and_sparse_road_ids():
    roads = [-(2**40), -7, -1, 0, 5, 2**40]
    graph = CorrelationGraph(
        roads,
        [CorrelationEdge(-7, 2**40, 0.9), CorrelationEdge(-(2**40), 0, 0.7)],
    )
    mined = [
        CorrelationEdge(2**40, -7, 0.95),
        CorrelationEdge(-1, -(2**40), 0.6),
        CorrelationEdge(0, 5, 0.8),
    ]
    delta = _array_diff(graph, mined)
    assert delta == oracle_diff(graph, mined)
    assert delta.removed == ((-(2**40), 0),)
    assert [(e.road_u, e.road_v) for e in delta.added] == [(-(2**40), -1), (0, 5)]


def test_array_diff_rejects_bad_input():
    graph = CorrelationGraph([1, 2, 3], [CorrelationEdge(1, 2, 0.9)])
    with pytest.raises(DataError, match="tolerance"):
        _array_diff(graph, [], tolerance=-0.1)
    with pytest.raises(DataError, match="unknown road 9"):
        _array_diff(graph, [CorrelationEdge(1, 9, 0.9)])


@st.composite
def _edge_sets(draw):
    """A graph and a mined edge list over the same (possibly negative,
    non-contiguous) road ids, with the mined list shuffled and some
    endpoints flipped."""
    roads = sorted(
        draw(st.sets(st.integers(-50, 50), min_size=1, max_size=8))
    )
    pairs = [(u, v) for i, u in enumerate(roads) for v in roads[i + 1 :]]
    weight = st.sampled_from([0.5, 0.6, 0.6005, 0.61, 0.7, 0.7009, 0.75, 1.0])
    old = draw(st.dictionaries(st.sampled_from(pairs), weight)) if pairs else {}
    new = draw(st.dictionaries(st.sampled_from(pairs), weight)) if pairs else {}
    mined = [
        CorrelationEdge(v, u, p) if draw(st.booleans()) else CorrelationEdge(u, v, p)
        for (u, v), p in draw(st.permutations(sorted(new.items())))
    ]
    graph = CorrelationGraph(
        roads, [CorrelationEdge(u, v, p) for (u, v), p in old.items()]
    )
    return graph, mined


@settings(max_examples=150, deadline=None)
@given(case=_edge_sets(), tolerance=st.sampled_from(TOLERANCES))
def test_random_edge_sets_diff_and_apply_like_oracle(case, tolerance):
    graph, mined = case
    delta = _array_diff(graph, mined, tolerance)
    expected = oracle_diff(graph, mined, tolerance)
    assert delta == expected
    reference = CorrelationGraph(graph.road_ids, list(graph.edges()))
    graph.apply_delta(delta)
    reference.apply_delta(expected)
    _assert_patched_like_fresh(graph)
    assert _adjacency(graph) == _adjacency(reference)


# ----------------------------------------------------------------------
# Streamed windows
# ----------------------------------------------------------------------
GRID = TimeGrid(240)  # 6 intervals a day keeps the windows small
NETWORKS = {"line": _line_network(7), "grid": grid_city(3, 3)}


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from(sorted(NETWORKS)),
    tolerance=st.sampled_from(TOLERANCES),
    min_agreement=st.sampled_from([0.5, 0.6]),
)
def test_streamed_windows_match_oracle(data, shape, tolerance, min_agreement):
    """Ingests with evictions, repeated days (stable trends) and fresh
    random days (trend flips): every re-mine's delta equals the oracle
    diff of the pre-ingest graph against a batch re-mine, and the
    patched graph stays equal to a fresh build and to a batch re-mine."""
    network = NETWORKS[shape]
    road_ids = sorted(network.road_ids())
    per_day = GRID.intervals_per_day
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rolling = RollingHistory(
        network,
        GRID,
        window_days=data.draw(st.integers(1, 4)),
        remine_every_days=1,
        min_agreement=min_agreement,
        delta_tolerance=tolerance,
    )
    speeds: list[np.ndarray] = []
    for day in range(data.draw(st.integers(2, 7))):
        if speeds and data.draw(st.booleans()):
            matrix = speeds[data.draw(st.integers(0, len(speeds) - 1))]
        else:
            matrix = rng.uniform(10.0, 60.0, size=(per_day, len(road_ids)))
        speeds.append(matrix)
        before = (
            None
            if day == 0
            else CorrelationGraph(road_ids, list(rolling.graph.edges()))
        )
        rolling.ingest_day(SpeedField(matrix, road_ids, day * per_day))
        rolling.verify_incremental()
        _assert_patched_like_fresh(rolling.graph)
        if before is None:
            continue
        mined = list(
            mine_correlation_graph(
                network, rolling.store, min_agreement=min_agreement
            ).edges()
        )
        expected = oracle_diff(before, mined, tolerance)
        assert rolling.last_delta == expected
        before.apply_delta(expected)
        assert _adjacency(rolling.graph) == _adjacency(before)


def test_remine_builds_edges_only_for_changes(small_network, monkeypatch):
    """``edges_built`` is the number of edge objects a re-mine makes:
    every mined edge at the bootstrap, then only the added and
    re-weighted ones (removals carry key pairs), so 0 on an empty
    delta. An independent construction count must agree."""
    built = []
    post_init = CorrelationEdge.__post_init__

    def counting(edge):
        built.append(edge)
        post_init(edge)

    monkeypatch.setattr(CorrelationEdge, "__post_init__", counting)
    grid = TimeGrid(60)
    per_day = grid.intervals_per_day
    road_ids = sorted(small_network.road_ids())
    rng = np.random.default_rng(7)
    week = [
        rng.uniform(10.0, 60.0, size=(per_day, len(road_ids))) for _ in range(3)
    ]
    # Warm up on three days, repeat them (stable statistics: empty
    # deltas), then one fresh day (a non-empty delta).
    matrices = week + week + [rng.uniform(10.0, 60.0, size=(per_day, len(road_ids)))]
    rolling = RollingHistory(small_network, grid, window_days=3, remine_every_days=1)
    spans = []
    saw = {"bootstrap": 0, "empty": 0, "delta": 0}
    for day, matrix in enumerate(matrices):
        built.clear()
        with recording(FlightRecorder()) as recorder:
            rolling.ingest_day(SpeedField(matrix, road_ids, day * per_day))
        (span,) = [s for s in recorder.tracer.drain() if s.name == "history.remine"]
        spans.append(span)
        assert span.attrs["edges_built"] == len(built)
        assert span.attrs["pairs"] > 0
        delta = rolling.last_delta
        if delta is None:
            saw["bootstrap"] += 1
            assert span.attrs["edges_built"] == rolling.graph.num_edges
        elif delta.is_empty:
            saw["empty"] += 1
            assert span.attrs["edges_built"] == 0
        else:
            saw["delta"] += 1
            assert span.attrs["edges_built"] == (
                delta.num_changes - len(delta.removed)
            )
            assert span.attrs["edges_built"] <= delta.num_changes
    assert saw["bootstrap"] == 1 and saw["empty"] >= 2 and saw["delta"] >= 1
    assert len({s.attrs["pairs"] for s in spans}) == 1

