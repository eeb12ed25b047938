"""The array correlation graph against the dict/list oracle.

:class:`repro.history.correlation.CorrelationGraph` holds sorted int64
edge keys and their agreements, and builds its per-road adjacency
index on first use. :class:`tests.oracles.correlation.ListCorrelationGraph`
is the dict/list form it replaced. Pinned here:

* over random road sets (negative and ``2**40`` ids included) and
  delta sequences at tolerance 0 and above, both graphs read the same:
  ``edges()``, ``edge_arrays()`` as a set, ``agreement()``,
  ``degree()``, ``neighbours()``, ``neighbour_ids()`` in order (Python
  ints, agreement ties included), ``connected_components()``, and
  :meth:`CSRFidelityGraph.from_graph` bitwise;
* a rejected delta raises :class:`DataError` and leaves the graph as
  it was, index included;
* a re-mine builds no :class:`CorrelationEdge`: not on a full-delta
  warm-up day, nor on a fresh day with a bound system whose rows are
  cached.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.core.pipeline import SpeedEstimationSystem
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import CSRFidelityGraph
from repro.history.incremental import GraphDelta, diff_edges
from repro.history.online import RollingHistory
from repro.history.timebuckets import TimeGrid
from repro.obs import FlightRecorder, recording
from repro.traffic.simulator import TrafficSimulator
from tests.oracles.correlation import ListCorrelationGraph
from tests.oracles.delta import EdgeTuples
from tests.oracles.delta import diff_edges as oracle_diff
from tests.oracles.fidelity import edge_fidelity

TOLERANCES = (0.0, 1e-3, 0.05)
#: Few distinct agreements, so a road's neighbours often tie.
WEIGHTS = st.sampled_from([0.5, 0.6, 0.6005, 0.7, 0.7009, 0.75, 1.0])
ROADS = st.one_of(
    st.integers(-40, 40), st.sampled_from([-(2**40), 2**40, 2**40 + 1])
)


def _edge_list(weights):
    return [CorrelationEdge(u, v, p) for (u, v), p in sorted(weights.items())]


def _arrays(edges):
    return (
        np.array([e.road_u for e in edges], dtype=np.int64),
        np.array([e.road_v for e in edges], dtype=np.int64),
        np.array([e.agreement for e in edges], dtype=np.float64),
    )


@st.composite
def _cases(draw):
    """Road ids, a starting edge dict and mined edge dicts, over pairs
    of those roads; mined edges come shuffled with some ends flipped."""
    roads = sorted(draw(st.sets(ROADS, min_size=1, max_size=9)))
    pairs = [(u, v) for i, u in enumerate(roads) for v in roads[i + 1 :]]

    def edge_dict():
        if not pairs:
            return {}
        return draw(st.dictionaries(st.sampled_from(pairs), WEIGHTS))

    def shuffled(weights):
        return [
            CorrelationEdge(v, u, p) if draw(st.booleans()) else CorrelationEdge(u, v, p)
            for (u, v), p in draw(st.permutations(sorted(weights.items())))
        ]

    start = edge_dict()
    steps = [shuffled(edge_dict()) for _ in range(draw(st.integers(1, 4)))]
    return roads, start, shuffled(start), steps


def _build(roads, edges, from_arrays):
    if from_arrays:
        return CorrelationGraph.from_arrays(roads, *_arrays(edges))
    return CorrelationGraph(roads, edges)


def _oracle_csr(oracle):
    """The CSR of ``oracle``, row by row: neighbours by position, each
    with its scalar channel fidelity."""
    position = {road: i for i, road in enumerate(oracle.road_ids)}
    indptr, indices, data = [0], [], []
    for road in oracle.road_ids:
        row = sorted(
            (position[e.other(road)], edge_fidelity(e.agreement))
            for e in oracle.neighbours(road)
        )
        indices += [i for i, _ in row]
        data += [q for _, q in row]
        indptr.append(len(indices))
    return (
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
    )


def _edge_set(graph):
    return set(zip(*(array.tolist() for array in graph.edge_arrays())))


def _assert_reads_like(graph, oracle):
    roads = oracle.road_ids
    assert graph.road_ids == roads
    assert graph.num_edges == oracle.num_edges
    assert list(graph.edges()) == list(oracle.edges())
    assert _edge_set(graph) == _edge_set(oracle)
    unknown = max(roads) + 1
    for u in roads:
        assert graph.agreement(u, unknown) is None
        for v in roads:
            assert graph.agreement(u, v) == oracle.agreement(u, v)
    for road in roads:
        assert graph.degree(road) == oracle.degree(road)
        ids = graph.neighbour_ids(road)
        assert ids == oracle.neighbour_ids(road)
        assert all(type(other) is int for other in ids)
        assert graph.neighbours(road) == oracle.neighbours(road)
    assert graph.connected_components() == oracle.connected_components()
    csr = CSRFidelityGraph.from_graph(graph)
    assert csr.road_ids == tuple(roads)
    for mine, theirs in zip((csr.indptr, csr.indices, csr.data), _oracle_csr(oracle)):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


# ----------------------------------------------------------------------
# Reads and deltas against the oracle
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    case=_cases(),
    tolerance=st.sampled_from(TOLERANCES),
    from_arrays=st.booleans(),
)
def test_delta_sequences_read_like_oracle(case, tolerance, from_arrays):
    roads, start, given_edges, steps = case
    graph = _build(roads, given_edges, from_arrays)
    oracle = ListCorrelationGraph(roads, _edge_list(start))
    _assert_reads_like(graph, oracle)
    for mined in steps:
        delta = diff_edges(graph, *_arrays(mined), tolerance=tolerance)
        assert delta == oracle_diff(oracle, mined, tolerance)
        graph.apply_delta(delta)
        oracle.apply_delta(delta)
        # Reads run on the index the previous step built; apply_delta
        # must have dropped it.
        _assert_reads_like(graph, oracle)


def test_tied_neighbours_keep_key_order():
    """Equal agreements order by ``(road_u, road_v)``: the lower-id
    neighbours of road 5 (edges ``(u, 5)``) come before the higher ones
    (``(5, v)``), whatever order the edges arrive in."""
    edges = [
        CorrelationEdge(5, 9, 0.7),
        CorrelationEdge(5, 6, 0.7),
        CorrelationEdge(3, 5, 0.7),
        CorrelationEdge(1, 5, 0.9),
        CorrelationEdge(4, 5, 0.7),
    ]
    roads = [1, 3, 4, 5, 6, 9]
    oracle = ListCorrelationGraph(roads, edges)
    for graph in (
        CorrelationGraph(roads, edges),
        CorrelationGraph.from_arrays(roads, *_arrays(edges[::-1])),
    ):
        assert graph.neighbour_ids(5) == [1, 3, 4, 6, 9] == oracle.neighbour_ids(5)
        _assert_reads_like(graph, oracle)


# ----------------------------------------------------------------------
# Rejected input
# ----------------------------------------------------------------------
def _bad_delta(kind, roads, weights, valid, draw):
    """``valid`` plus one entry of ``kind`` that must make the delta fail."""
    present = sorted(weights)
    absent = [
        (u, v)
        for i, u in enumerate(roads)
        for v in roads[i + 1 :]
        if (u, v) not in weights
    ]
    named = {(min(u, v), max(u, v)) for u, v in zip(*valid.changed_ends())}
    added, removed, reweighted = map(list, EdgeTuples.of(valid))
    if kind in ("absent-removal", "absent-reweight", "add-twice"):
        absent = [key for key in absent if key not in named]
        assume(absent)
        u, v = draw(st.sampled_from(absent))
        if kind == "absent-removal":
            removed.append((v, u))
        elif kind == "absent-reweight":
            reweighted.append(CorrelationEdge(u, v, 0.8))
        else:
            added += [CorrelationEdge(u, v, 0.8), CorrelationEdge(v, u, 0.9)]
    elif kind in ("duplicate-add", "removed-and-reweighted"):
        present = [key for key in present if key not in named]
        assume(present)
        u, v = draw(st.sampled_from(present))
        if kind == "duplicate-add":
            added.append(CorrelationEdge(v, u, 0.8))
        else:
            removed.append((u, v))
            reweighted.append(CorrelationEdge(u, v, 0.8))
    else:  # unknown-road
        added.append(CorrelationEdge(roads[0], max(roads) + 1, 0.8))
    return EdgeTuples(added, removed, reweighted).delta()


@settings(max_examples=150, deadline=None)
@given(
    case=_cases(),
    kind=st.sampled_from(
        [
            "absent-removal",
            "absent-reweight",
            "duplicate-add",
            "add-twice",
            "removed-and-reweighted",
            "unknown-road",
        ]
    ),
    data=st.data(),
)
def test_rejected_delta_leaves_graph_untouched(case, kind, data):
    roads, start, given_edges, steps = case
    graph = CorrelationGraph(roads, given_edges)
    oracle = ListCorrelationGraph(roads, _edge_list(start))
    _assert_reads_like(graph, oracle)  # builds the index the failure must keep
    valid = diff_edges(graph, *_arrays(steps[0]))
    bad = _bad_delta(kind, roads, start, valid, data.draw)
    with pytest.raises(DataError):
        oracle.apply_delta(bad)
    with pytest.raises(DataError):
        graph.apply_delta(bad)
    _assert_reads_like(graph, oracle)
    graph.apply_delta(valid)
    oracle.apply_delta(valid)
    _assert_reads_like(graph, oracle)


def test_malformed_array_delta_rejected():
    graph = CorrelationGraph([1, 2], [CorrelationEdge(1, 2, 0.9)])
    one = np.array([1], dtype=np.int64)
    nothing = np.zeros(0, dtype=np.int64)
    delta = GraphDelta(
        added=(one, one, np.array([0.8])),
        removed=(nothing, nothing),
        reweighted=(nothing, nothing, np.zeros(0)),
    )
    with pytest.raises(DataError, match="self-correlation"):
        graph.apply_delta(delta)
    assert list(graph.edges()) == [CorrelationEdge(1, 2, 0.9)]
    with pytest.raises(DataError, match="differ in length"):
        GraphDelta(
            added=(nothing, nothing, np.zeros(0)),
            removed=(nothing, nothing),
            reweighted=(one, one + 1, np.array([0.8, 0.7])),
        )


@pytest.mark.parametrize(
    "road_u, road_v, agreement, match",
    [
        ([1], [9], [0.8], "unknown road"),
        ([2], [2], [0.8], "self-correlation"),
        ([1, 3], [3, 1], [0.8, 0.7], "duplicate"),
        ([1], [2], [1.5], "outside"),
        ([1], [2], [np.nan], "outside"),
        ([1, 2], [2], [0.8], "length"),
    ],
    ids=["unknown", "self", "duplicate", "above-one", "nan", "lengths"],
)
def test_from_arrays_rejects_what_the_edge_list_does(road_u, road_v, agreement, match):
    with pytest.raises(DataError, match=match):
        CorrelationGraph.from_arrays(
            [1, 2, 3],
            np.array(road_u, dtype=np.int64),
            np.array(road_v, dtype=np.int64),
            np.array(agreement, dtype=np.float64),
        )


def test_from_arrays_hands_out_python_ints():
    graph = CorrelationGraph.from_arrays(
        np.array([3, 1, 2], dtype=np.int64),
        np.array([3], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([0.8]),
    )
    assert graph.road_ids == [1, 2, 3]
    assert all(type(road) is int for road in graph.road_ids)
    assert [type(road) for road in graph.neighbour_ids(3)] == [int]
    assert graph.connected_components() == [[1, 3], [2]]


# ----------------------------------------------------------------------
# A re-mine builds no edge object
# ----------------------------------------------------------------------
@pytest.fixture
def edge_constructions(monkeypatch):
    built = []
    post_init = CorrelationEdge.__post_init__

    def counting(edge):
        built.append(edge)
        post_init(edge)

    monkeypatch.setattr(CorrelationEdge, "__post_init__", counting)
    return built


def _remine_span(recorder, name="history.remine"):
    (span,) = [s for s in recorder.tracer.drain() if s.name == name]
    return span


def test_remine_builds_no_edge_object(small_network, edge_constructions):
    """A warm-up day moves nearly every edge, and a fresh day with a
    bound system drops cached rows too; neither builds an edge object,
    and ``edges_built`` still counts the added and re-weighted edges."""
    grid = TimeGrid(15)
    per_day = grid.intervals_per_day
    field, _ = TrafficSimulator(small_network, grid).simulate(0, 4, seed=41)
    days = [
        SpeedField(field.matrix[d * per_day : (d + 1) * per_day], field.road_ids, d * per_day)
        for d in range(4)
    ]
    rolling = RollingHistory(small_network, grid, window_days=3, remine_every_days=1)
    rolling.ingest_day(days[0])
    with recording(FlightRecorder()) as recorder:
        rolling.ingest_day(days[1])
    span, delta = _remine_span(recorder), rolling.last_delta
    assert delta.num_added + delta.num_reweighted >= 0.8 * rolling.graph.num_edges
    assert span.attrs["edges_built"] == delta.num_added + delta.num_reweighted
    assert edge_constructions == []

    for day in days[2:]:
        rolling.ingest_day(day)
    system = SpeedEstimationSystem.from_parts(
        small_network, rolling.store, rolling.graph
    ).bind_rolling(rolling)
    system.reselect_seeds(6)  # caches fidelity rows
    fresh, _ = TrafficSimulator(small_network, grid).simulate(4, 1, seed=42)
    edge_constructions.clear()
    with recording(FlightRecorder()) as recorder:
        rolling.ingest_day(fresh)
    spans = recorder.tracer.drain()
    (span,) = [s for s in spans if s.name == "history.remine"]
    (invalidation,) = [s for s in spans if s.name == "fidelity.apply_delta"]
    delta = rolling.last_delta
    assert delta.num_changes > 0
    assert invalidation.attrs["rows_dropped"] > 0
    assert span.attrs["edges_built"] == delta.num_added + delta.num_reweighted
    assert edge_constructions == []
    rolling.verify_incremental()
