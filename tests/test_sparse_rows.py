"""Sparse influence rows: exactness, eviction, work counters and memory.

The service stores every influence row as a ``(indices, values)``
:class:`~repro.history.fidelity.SparseRow`. The contracts pinned here:

* sparse rows are bitwise equal (support *and* values) to the dense
  scalar oracle rows under every transform and hop budget;
* the vectorised CSR export equals the edge-object export it replaced;
* delta eviction over the support drops exactly the sources a dense
  scan of the cached rows would;
* district tasks compute each candidate row once, and selection's cache
  grows with total reach, not with N per source;
* dead weak row listeners do not accumulate in a long-lived service.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pool import SharedWorkerPool
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import CSRFidelityGraph, FidelityCacheService
from repro.history.incremental import GraphDelta
from repro.obs import FlightRecorder, set_recorder
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictStage, _SharedArrayObjective
from repro.seeds.partition import allocate_budget, partition_graph
from tests.oracles import propagate_fidelity
from tests.oracles.fidelity import edge_fidelity
from tests.strategies import random_graphs

TRANSFORMS = ("fidelity", "variance", "logodds")


def dense_reference(graph, source, min_fidelity, max_hops, transform):
    """The scalar oracle row, densified and transformed entry by entry."""
    csr = CSRFidelityGraph.from_graph(graph)
    raw = np.zeros(csr.num_roads)
    for road, q in propagate_fidelity(
        graph, source, min_fidelity, max_hops
    ).items():
        raw[csr.index[road]] = q
    support = np.flatnonzero(raw)
    out = np.zeros_like(raw)
    for i in support:
        q = raw[i]
        if transform == "fidelity":
            out[i] = q
        elif transform == "variance":
            out[i] = math.sin(math.pi * q / 2.0) ** 2
        else:
            q = min(q, 1.0 - 1e-9)
            out[i] = math.log((1.0 + q) / (1.0 - q))
    if transform == "logodds":
        out[csr.index[source]] = 0.0
    return support, out


def edge_object_export(graph):
    """The CSR export as built from edge objects (the replaced path)."""
    road_ids = tuple(graph.road_ids)
    index = {road: i for i, road in enumerate(road_ids)}
    us, vs, qs = [], [], []
    for edge in graph.edges():
        q = edge_fidelity(edge.agreement)
        iu, iv = index[edge.road_u], index[edge.road_v]
        us += [iu, iv]
        vs += [iv, iu]
        qs += [q, q]
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    q_arr = np.asarray(qs, dtype=np.float64)
    order = np.lexsort((v, u)) if u.size else np.empty(0, dtype=np.int64)
    counts = (
        np.bincount(u, minlength=len(road_ids))
        if u.size
        else np.zeros(len(road_ids), np.int64)
    )
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, v[order], q_arr[order]


def assert_same_export(graph):
    csr = CSRFidelityGraph.from_graph(graph)
    indptr, indices, data = edge_object_export(graph)
    assert np.array_equal(csr.indptr, indptr)
    assert np.array_equal(csr.indices, indices)
    assert np.array_equal(csr.data, data)  # bitwise: no tolerance
    assert csr.indptr.dtype == indptr.dtype
    assert csr.indices.dtype == indices.dtype


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    graph=random_graphs(),
    min_fidelity=st.sampled_from([1e-6, 0.05, 0.3]),
    max_hops=st.sampled_from([None, 1, 2, 3]),
    data=st.data(),
)
def test_sparse_rows_bitwise_equal_dense_scalar(
    graph, min_fidelity, max_hops, data
):
    source = data.draw(st.sampled_from(graph.road_ids))
    service = FidelityCacheService()
    for transform in TRANSFORMS:
        row = service.row(graph, source, min_fidelity, max_hops, transform)
        support, dense = dense_reference(
            graph, source, min_fidelity, max_hops, transform
        )
        assert np.array_equal(row.indices, support)
        assert np.array_equal(row.values, dense[support])  # bitwise
        assert np.array_equal(row.dense(graph.num_roads), dense)
    # Raw and transformed rows of one source share one index array.
    raw = service.row(graph, source, min_fidelity, max_hops)
    for transform in ("variance", "logodds"):
        assert (
            service.row(graph, source, min_fidelity, max_hops, transform).indices
            is raw.indices
        )


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(), data=st.data())
def test_support_only_coverage_matches_dense_reference(graph, data):
    """Gains sum over the support in another order: equal to 1e-12.

    Residual updates do the same per-entry arithmetic: equal exactly.
    """
    objective = SeedSelectionObjective(
        graph, min_fidelity=0.01, fidelity_service=FidelityCacheService()
    )
    n = objective.num_roads
    state = objective.new_state()
    residual = np.ones(n)
    seeds = data.draw(
        st.lists(st.sampled_from(graph.road_ids), max_size=5, unique=True)
    )
    for seed in seeds:
        dense = objective.influence_row(seed).dense(n)
        expected = float((objective.weights * residual) @ dense)
        assert state.gain(seed) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        state.add(seed)
        support = np.flatnonzero(dense)
        residual[support] *= 1.0 - dense[support]
        assert np.array_equal(state.residual, residual)


# ----------------------------------------------------------------------
# CSR export without edge objects
# ----------------------------------------------------------------------
def test_vectorised_export_matches_edge_objects_on_cities(
    small_dataset, tiny_dataset
):
    from repro.datasets.synthetic import scaled_dataset

    for dataset in (small_dataset, tiny_dataset, scaled_dataset(400, 3)):
        assert_same_export(dataset.graph)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(max_roads=12))
def test_vectorised_export_matches_edge_objects(graph):
    assert_same_export(graph)


def test_export_of_edgeless_graph():
    assert_same_export(CorrelationGraph([4, 2], []))


# ----------------------------------------------------------------------
# Delta eviction over the support
# ----------------------------------------------------------------------
def dense_scan_dropped(service, graph, touched):
    """Reference eviction: scan every cached row densely."""
    entry = service._graphs[graph]
    positions = [graph.road_ids.index(r) for r in touched]
    affected = set(touched)
    for per_key in entry.rows.values():
        for source, row in per_key.items():
            if np.any(row.dense(graph.num_roads)[positions] != 0.0):
                affected.add(source)
    return tuple(sorted(affected))


@settings(max_examples=60, deadline=None)
@given(graph=random_graphs(max_roads=10), data=st.data())
def test_delta_eviction_matches_dense_scan(graph, data):
    service = FidelityCacheService()
    roads = graph.road_ids
    for source in data.draw(st.lists(st.sampled_from(roads), max_size=6)):
        floor = data.draw(st.sampled_from([0.05, 0.3]))
        hops = data.draw(st.sampled_from([None, 2]))
        transform = data.draw(st.sampled_from(TRANSFORMS))
        service.row(graph, source, floor, hops, transform)
    u = data.draw(st.sampled_from(roads))
    v = data.draw(st.sampled_from([r for r in roads if r != u]))
    key = (min(u, v), max(u, v))
    agreement = data.draw(st.floats(min_value=0.5, max_value=1.0))
    edge = (CorrelationEdge(*key, agreement),)
    if graph.agreement(*key) is None:
        delta = GraphDelta(added=edge, removed=(), reweighted=())
    elif data.draw(st.booleans()):
        delta = GraphDelta(added=(), removed=(key,), reweighted=())
    else:
        delta = GraphDelta(added=(), removed=(), reweighted=edge)
    service.csr(graph)
    expected = dense_scan_dropped(service, graph, set(delta.touched_roads()))
    graph.apply_delta(delta)
    assert service.apply_graph_delta(graph, delta) == expected
    # Survivors equal a cold recompute over the mutated graph.
    cold = FidelityCacheService()
    for (floor, hops, transform), per_key in service._graphs[graph].rows.items():
        for source, row in per_key.items():
            fresh = cold.row(graph, source, floor, hops, transform)
            assert np.array_equal(row.indices, fresh.indices)
            assert np.array_equal(row.values, fresh.values)


# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------
def _counter(rec, name, **labels):
    return rec.registry.counter(name, **labels).value


def test_row_nonzeros_counts_every_computed_row(small_dataset):
    rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        service = FidelityCacheService()
        graph = small_dataset.graph
        objective = SeedSelectionObjective(graph, fidelity_service=service)
        lazy_greedy_select(objective, 6)
        raw_rows = service._graphs[graph].rows[(0.05, None, "fidelity")]
        assert len(raw_rows) == graph.num_roads
        assert _counter(rec, "fidelity.row_nonzeros") == sum(
            row.indices.size for row in raw_rows.values()
        )
        # Warm rows compute nothing.
        before = _counter(rec, "fidelity.row_nonzeros")
        lazy_greedy_select(objective.clone_with_weights({}), 3)
        assert _counter(rec, "fidelity.row_nonzeros") == before
    finally:
        set_recorder(previous)


def test_district_task_computes_each_candidate_row_once(small_dataset):
    service = FidelityCacheService()
    objective = SeedSelectionObjective(small_dataset.graph, fidelity_service=service)
    csr = service.csr(small_dataset.graph)
    for chunk in partition_graph(objective, 3):
        worker = _SharedArrayObjective(
            csr, objective.weights, chunk, objective.min_fidelity, objective.transform
        )
        result = lazy_greedy_select(worker, 4, candidates=chunk)
        assert result.evaluations > len(chunk)  # CELF re-evaluated some
        assert worker.rows_computed == len(chunk)  # ...but computed each once
        assert worker.nonzeros == sum(
            service.row(small_dataset.graph, road).indices.size for road in chunk
        )


def test_pool_span_reports_rows_and_nonzeros(small_dataset):
    rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        objective = SeedSelectionObjective(
            small_dataset.graph, fidelity_service=FidelityCacheService()
        )
        with SharedWorkerPool(2) as pool:
            stage = DistrictStage(objective, pool, num_partitions=4)
            result = stage.select(9)
            result_again = stage.select(9)
        spans = [s for s in rec.tracer.drain() if s.name == "seeds.parallel.select"]
    finally:
        set_recorder(previous)
    assert result.seeds == result_again.seeds
    partitions = partition_graph(objective, 4)
    shares = allocate_budget(partitions, 9)
    candidates = sum(len(c) for c, share in zip(partitions, shares) if share > 0)
    nonzeros = sum(
        objective.fidelity_service.row(small_dataset.graph, road).indices.size
        for chunk, share in zip(partitions, shares)
        if share > 0
        for road in chunk
    )
    assert len(spans) == 2
    for span in spans:
        assert span.attrs["rows_computed"] == candidates
        assert span.attrs["nonzeros"] == nonzeros
        assert span.attrs["evaluations"] == result.evaluations


# ----------------------------------------------------------------------
# Memory: the cache grows with reach, not N per source
# ----------------------------------------------------------------------
def test_cached_row_bytes_scale_with_support():
    """After a lazy selection the cache holds support-sized rows only.

    Measured with tracemalloc (numpy reports its buffers to it): every
    byte the selection leaves allocated is charged to the cached rows,
    and must fit in 16 B per cached support entry — a raw row and its
    variance sibling share one int64 index array, so an entry pair
    costs 24 B over 2 entries. Dense rows would cost 8 B x N each.
    """
    from repro.datasets.synthetic import scaled_dataset

    graph = scaled_dataset(2000, history_days=3).graph
    service = FidelityCacheService()
    objective = SeedSelectionObjective(graph, fidelity_service=service)
    candidates = graph.road_ids[::4]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lazy_greedy_select(objective, 10, candidates=candidates)
        gc.collect()
        cached_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = service._graphs[graph].rows
    assert len(rows[(0.05, None, "variance")]) == len(candidates)
    total_support = sum(
        row.indices.size for per_key in rows.values() for row in per_key.values()
    )
    assert cached_bytes <= 16 * total_support
    dense_bytes = 2 * len(candidates) * graph.num_roads * 8
    assert cached_bytes < dense_bytes


# ----------------------------------------------------------------------
# Dead weak listeners are pruned
# ----------------------------------------------------------------------
def test_dead_weak_listeners_do_not_pile_up(small_dataset):
    service = FidelityCacheService()
    keeper = SeedSelectionObjective(small_dataset.graph, fidelity_service=service)
    baseline = len(service._subscribers)
    for _ in range(1000):
        SeedSelectionObjective(small_dataset.graph, fidelity_service=service)
    assert len(service._subscribers) <= baseline + 1
    for _ in range(10):
        keeper.clone_with_weights({})
    service.invalidate_rows(small_dataset.graph, small_dataset.graph.road_ids[:1])
    assert len(service._subscribers) == baseline
    # A live listener still fires after pruning.
    keeper.influence_row(small_dataset.graph.road_ids[0])
    service.invalidate_rows(small_dataset.graph, small_dataset.graph.road_ids[:1])
    assert small_dataset.graph.road_ids[0] not in keeper._row_memo
