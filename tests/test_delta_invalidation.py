"""Sound graph-delta invalidation of cached influence rows.

:meth:`~repro.history.fidelity.FidelityCacheService.apply_graph_delta`
drops a cached row only when the delta's tight-edge test says it can
change. Pinned here against the scalar rule in
``tests/oracles/fidelity.py`` and against cold recomputes, on
hypothesis graphs whose dyadic fidelities make equal-product ties,
``q = 1`` edges and entries exactly at the floor common:

* the dropped set equals the oracle's, and the span's work counts too,
  whatever order the changed edges are tested in;
* the cached CSR, replaced in the delta's call, is bitwise a fresh
  export, and a delta that reaches the service twice drops nothing
  the second time;
* every kept row is bitwise a cold recompute, so every row whose
  recompute differs was dropped, also over two back-to-back deltas
  with no fetch in between;
* a re-fetched variance or log-odds row, re-transformed only where its
  raw entries changed, is bitwise a fresh ``_transform_row``;
* the trend model's edge tuple is re-read lazily: a streamed incident
  day under the default propagation inference never builds it, and BP
  after a delta matches a fresh model exactly.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.field import SpeedField
from repro.core.pipeline import SpeedEstimationSystem
from repro.core.types import Trend
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history import fidelity
from repro.history.fidelity import (
    CSRFidelityGraph,
    FidelityCacheService,
    _changed_edges,
    _ChangedEdges,
    _stale_rows,
    _transform_row,
)
from repro.history.online import RollingHistory
from repro.history.timebuckets import TimeGrid
from repro.obs import FlightRecorder, set_recorder
from repro.traffic.simulator import TrafficSimulator
from repro.trend.bp import LoopyBeliefPropagation
from repro.trend.model import TrendModel
from tests.oracles.delta import EdgeTuples
from tests.oracles.fidelity import tight_rule_dropped

TRANSFORMS = ("fidelity", "variance", "logodds")
#: Agreements with fidelities 0, 1/4, 1/2, 3/4 and 1: their products are
#: exact, so ties between paths and entries exactly at a floor of 1/4
#: or 1/16 occur often.
DYADIC = (0.5, 0.625, 0.75, 0.875, 1.0)
FLOORS = (0.05, 0.0625, 0.25, 0.3)


def agreements():
    return st.one_of(st.sampled_from(DYADIC), st.floats(min_value=0.5, max_value=1.0))


@st.composite
def graphs(draw, max_roads=8):
    n = draw(st.integers(min_value=2, max_value=max_roads))
    edges = {}
    for _ in range(draw(st.integers(min_value=0, max_value=2 * max_roads))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges[(min(u, v), max(u, v))] = draw(agreements())
    return CorrelationGraph(
        list(range(n)), [CorrelationEdge(u, v, p) for (u, v), p in edges.items()]
    )


@st.composite
def deltas(draw, graph):
    """Adds, removals and up-, down- or same-weight reweights together."""
    roads = graph.road_ids
    pairs = [(u, v) for u in roads for v in roads if u < v]
    added, removed, reweighted = [], [], []
    chosen = st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)
    for key in draw(chosen):
        if graph.agreement(*key) is None:
            added.append(CorrelationEdge(*key, draw(agreements())))
        elif draw(st.booleans()):
            removed.append(key)
        else:
            reweighted.append(CorrelationEdge(*key, draw(agreements())))
    return EdgeTuples(added, removed, reweighted).delta()


def fetch_rows(data, service, graph):
    for source in data.draw(st.lists(st.sampled_from(graph.road_ids), max_size=8)):
        service.row(
            graph,
            source,
            data.draw(st.sampled_from(FLOORS)),
            data.draw(st.sampled_from(TRANSFORMS)),
        )


def cached(service, graph):
    """A copy of the service's row cache for ``graph``."""
    entry = service._graphs.get(graph)
    if entry is None:
        return {}
    return {key: dict(per_key) for key, per_key in entry.rows.items()}


def copy_graph(graph):
    return CorrelationGraph(graph.road_ids, list(graph.edges()))


def bitwise(a, b):
    return (
        a.indices.tobytes() == b.indices.tobytes()
        and a.values.tobytes() == b.values.tobytes()
    )


def apply_and_check(service, graph, delta):
    """Apply ``delta``; check the drop against the oracle and a cold service."""
    rows, before = cached(service, graph), copy_graph(graph)
    graph.apply_delta(delta)
    expected, counts = tight_rule_dropped(rows, before, delta)
    rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        dropped = service.apply_graph_delta(graph, delta)
    finally:
        set_recorder(previous)
    assert dropped == expected
    entry = service._graphs.get(graph)
    if entry is not None:
        # The cached CSR is bitwise a fresh export of the new graph.
        fresh = CSRFidelityGraph.from_graph(graph)
        for name in ("indptr", "indices", "data"):
            assert getattr(entry.csr, name).tobytes() == getattr(fresh, name).tobytes()
    (span,) = [s for s in rec.tracer.drain() if s.name == "fidelity.apply_delta"]
    for name in ("rows_checked", "rows_dropped"):
        assert span.attrs[name] == counts[name], name
    kept = cached(service, graph)
    cold = FidelityCacheService()
    for key, per_key in rows.items():
        for source, row in per_key.items():
            if source in kept.get(key, {}):
                assert kept[key][source] is row
                assert bitwise(row, cold.row(graph, source, *key)), (key, source)
            else:
                assert source in dropped
    return rows, dropped


def check_refetch(service, graph, rows):
    """Every row cached before is served bitwise equal to a cold one."""
    cold = FidelityCacheService()
    csr = cold.csr(graph)
    for key in sorted(rows, key=lambda k: k[1] != "fidelity"):
        floor, transform = key
        for source in rows[key]:
            row = service.row(graph, source, *key)
            assert bitwise(row, cold.row(graph, source, *key)), (key, source)
            raw = service.row(graph, source, floor)
            assert row.indices is raw.indices
            assert bitwise(row, _transform_row(raw, csr.index[source], transform))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_drop_matches_oracle_and_kept_rows_equal_a_recompute(data):
    graph = data.draw(graphs())
    service = FidelityCacheService()
    fetch_rows(data, service, graph)
    rows, _ = apply_and_check(service, graph, data.draw(deltas(graph)))
    check_refetch(service, graph, rows)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_back_to_back_deltas_without_a_fetch(data):
    graph = data.draw(graphs())
    service = FidelityCacheService()
    fetch_rows(data, service, graph)
    first, _ = apply_and_check(service, graph, data.draw(deltas(graph)))
    apply_and_check(service, graph, data.draw(deltas(graph)))
    check_refetch(service, graph, first)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_delta_applied_twice_drops_nothing_the_second_time(data):
    graph = data.draw(graphs())
    service = FidelityCacheService()
    fetch_rows(data, service, graph)
    delta = data.draw(deltas(graph))
    rows, _ = apply_and_check(service, graph, delta)
    kept = cached(service, graph)
    # The graph already holds the delta: no edge fidelity changes again.
    assert service.apply_graph_delta(graph, delta) == ()
    again = cached(service, graph)
    assert again.keys() == kept.keys()
    for key, per_key in kept.items():
        assert again[key].keys() == per_key.keys()
        assert all(again[key][road] is row for road, row in per_key.items())
    check_refetch(service, graph, rows)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stale_rows_do_not_depend_on_edge_order(data):
    """The rows checked and the dropped set equal the scalar rule's for
    any order of the changed edges, also when every edge is its own
    early-out chunk and every row its own scratch block."""
    graph = data.draw(graphs())
    floor = data.draw(st.sampled_from(FLOORS))
    sources = data.draw(
        st.lists(st.sampled_from(graph.road_ids), min_size=1, max_size=8, unique=True)
    )
    raw = dict(zip(sources, FidelityCacheService().sparse_rows(graph, sources, floor)))
    before_graph, before = copy_graph(graph), CSRFidelityGraph.from_graph(graph)
    delta = data.draw(deltas(graph))
    graph.apply_delta(delta)
    edges = _changed_edges(before, CSRFidelityGraph.from_graph(graph), delta)
    assume(edges.u.size)
    order = np.array(data.draw(st.permutations(range(edges.u.size))), dtype=np.int64)
    expected, counts = tight_rule_dropped({(floor, "fidelity"): raw}, before_graph, delta)
    chunks = data.draw(st.sampled_from([(1, 1), (256, 1 << 16)]))
    with mock.patch.object(fidelity, "_EDGE_CHUNK", chunks[0]), mock.patch.object(
        fidelity, "_BLOCK_ENTRIES", chunks[1]
    ):
        for changed in (edges, _ChangedEdges(*(column[order] for column in edges))):
            checked, stale = _stale_rows(
                list(raw.values()), changed, floor, before.num_roads
            )
            assert checked == counts["rows_checked"]
            assert tuple(sorted(sources[i] for i in stale.tolist())) == expected


def test_touched_endpoint_with_an_unchanged_row_is_kept():
    """A down-weighted edge that carries no best path drops nothing."""
    graph = CorrelationGraph(
        [0, 1, 2],
        [
            CorrelationEdge(0, 1, 1.0),
            CorrelationEdge(1, 2, 1.0),
            CorrelationEdge(0, 2, 0.75),
        ],
    )
    service = FidelityCacheService()
    for road in graph.road_ids:
        service.row(graph, road, transform="variance")
    delta = EdgeTuples(reweighted=(CorrelationEdge(0, 2, 0.625),)).delta()
    graph.apply_delta(delta)
    assert service.apply_graph_delta(graph, delta) == ()
    # The lossless 0-1-2 path keeps every entry at 1.
    assert service.row(graph, 0).values.tolist() == [1.0, 1.0, 1.0]


def test_edges_at_the_floor_and_ties():
    """Entries exactly at the floor count as reached, ties as tight."""
    q_half = 0.75  # fidelity 1/2
    graph = CorrelationGraph(
        [0, 1, 2, 3],
        [
            CorrelationEdge(0, 1, q_half),
            CorrelationEdge(1, 2, q_half),  # 0 -> 2 at 1/4, the floor
            CorrelationEdge(0, 3, 0.625),  # 0 -> 3 at 1/4 direct ...
            CorrelationEdge(2, 3, 1.0),  # ... and tied through 2
        ],
    )
    service = FidelityCacheService()
    service.row(graph, 0, 0.25)
    # Removing the tied direct edge: tight (1/4 == 1 * 1/4), so dropped,
    # although the tie keeps the row's values.
    delta = EdgeTuples(removed=((0, 3),)).delta()
    rows, before = cached(service, graph), copy_graph(graph)
    graph.apply_delta(delta)
    assert tight_rule_dropped(rows, before, delta)[0] == (0,)
    assert service.apply_graph_delta(graph, delta) == (0,)
    assert service.row(graph, 0, 0.25).values.tolist() == [1.0, 0.5, 0.25, 0.25]


def _fixed_graph():
    """A 60-road strip: influence reaches a few roads each way."""
    rng = random.Random(11)
    edges = {}
    for u in range(60):
        for step in (1, 2):
            if u + step < 60 and rng.random() < 0.8:
                edges[(u, u + step)] = rng.choice((0.75, 0.875, rng.uniform(0.6, 0.95)))
    return CorrelationGraph(
        list(range(60)), [CorrelationEdge(u, v, p) for (u, v), p in edges.items()]
    )


def _fixed_delta(graph):
    """An add, a removal, an up- and a down-weight around roads 20-30."""
    near = [e for e in graph.edges() if 20 <= e.road_u < 30]
    near.sort(key=lambda e: (e.road_u, e.road_v))
    return EdgeTuples(
        added=(CorrelationEdge(22, 25, 0.97),),
        removed=((near[0].road_u, near[0].road_v),),
        reweighted=(
            CorrelationEdge(near[4].road_u, near[4].road_v, 0.99),
            CorrelationEdge(near[8].road_u, near[8].road_v, 0.55),
        ),
    ).delta()


def test_work_counts_match_the_oracle():
    graph = _fixed_graph()
    rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        service = FidelityCacheService()
        for transform in TRANSFORMS:
            service.sparse_rows(graph, graph.road_ids, transform=transform)
        rows, before = cached(service, graph), copy_graph(graph)
        delta = _fixed_delta(graph)
        graph.apply_delta(delta)
        rec.tracer.drain()
        dropped = service.apply_graph_delta(graph, delta)
        spans = [s for s in rec.tracer.drain() if s.name == "fidelity.apply_delta"]
        expected, counts = tight_rule_dropped(rows, before, delta)
        assert dropped == expected and dropped
        assert len(spans) == 1
        assert {k: spans[0].attrs[k] for k in counts} == counts
        assert counts["rows_dropped"] < counts["rows_checked"]
        for transform in TRANSFORMS:
            service.sparse_rows(graph, graph.road_ids, transform=transform)
        # Entries of the re-fetched transformed rows whose raw value held.
        reused = total = 0
        old_raw = rows[(0.05, "fidelity")]
        for source in dropped:
            new = service.row(graph, source)
            before_row = old_raw[source]
            old = dict(zip(before_row.indices.tolist(), before_row.values.tolist()))
            pairs = zip(new.indices.tolist(), new.values.tolist())
            same = sum(old.get(i) == q for i, q in pairs)
            reused += 2 * same
            total += 2 * new.indices.size
        registry = rec.registry
        reused_count = registry.counter("fidelity.retransform", entries="reused")
        assert reused_count.value == reused
        assert registry.counter(
            "fidelity.retransform", entries="transformed"
        ).value == total - reused
        assert 0 < reused < total
        # Every dropped stash entry was consumed by the re-fetch.
        assert not any(service._graphs[graph].stash.values())
    finally:
        set_recorder(previous)


# ----------------------------------------------------------------------
# The trend model's edge tuple
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def streamed(small_network):
    grid = TimeGrid(15)
    field, _ = TrafficSimulator(small_network, grid).simulate(0, 4, seed=29)
    days = [
        SpeedField(field.matrix[d * 96 : (d + 1) * 96], field.road_ids, d * 96)
        for d in range(4)
    ]
    incident = days[3].matrix.copy()
    incident[20:70, ::3] *= 0.4
    return grid, days[:3], SpeedField(incident, field.road_ids, 3 * 96)


def test_incident_day_never_reads_edges_under_propagation(
    streamed, small_network, monkeypatch
):
    grid, warmup, incident = streamed
    rolling = RollingHistory(small_network, grid, window_days=3, remine_every_days=1)
    for day in warmup:
        rolling.ingest_day(day)
    reads = []
    original = TrendModel._read_edges
    monkeypatch.setattr(
        TrendModel, "_read_edges", lambda self: reads.append(1) or original(self)
    )
    system = SpeedEstimationSystem.from_parts(
        small_network, rolling.store, rolling.graph
    ).bind_rolling(rolling)
    seeds = system.reselect_seeds(6)
    interval = incident.intervals.start + 30
    system.estimate(interval, {road: incident.speed(road, interval) for road in seeds})
    rolling.ingest_day(incident)
    assert not rolling.last_delta.is_empty
    seeds = system.reselect_seeds(6)
    system.estimate(interval, {road: incident.speed(road, interval) for road in seeds})
    assert reads == []


def test_bp_after_a_delta_matches_a_fresh_model(small_dataset, monkeypatch):
    graph = copy_graph(small_dataset.graph)
    model = TrendModel(graph, small_dataset.store)
    interval = small_dataset.test_day_intervals()[30]
    roads = list(graph.road_ids)
    evidence = {roads[0]: Trend.RISE, roads[7]: Trend.FALL, roads[20]: Trend.FALL}
    bp = LoopyBeliefPropagation()
    bp.infer(model.instance(interval, evidence))
    edges = sorted(graph.edges(), key=lambda e: (e.road_u, e.road_v))
    delta = EdgeTuples(
        removed=((edges[0].road_u, edges[0].road_v),),
        reweighted=(CorrelationEdge(edges[3].road_u, edges[3].road_v, 0.51),),
    ).delta()
    graph.apply_delta(delta)
    model.refresh_edges()
    reads = []
    original = TrendModel._read_edges
    monkeypatch.setattr(
        TrendModel, "_read_edges", lambda self: reads.append(1) or original(self)
    )
    warm = bp.infer(model.instance(interval, evidence))
    again = bp.infer(model.instance(interval, evidence))
    assert len(reads) == 1  # rebuilt once per delta, on first read
    fresh_model = TrendModel(graph, small_dataset.store)
    fresh = bp.infer(fresh_model.instance(interval, evidence))
    assert warm.as_array().tobytes() == fresh.as_array().tobytes()
    assert again.as_array().tobytes() == fresh.as_array().tobytes()
