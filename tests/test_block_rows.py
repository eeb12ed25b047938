"""The block influence-row kernel and the batched row fetch.

:func:`~repro.history.fidelity.sparse_fidelity_rows` relaxes a block of
sources in one set of numpy passes over a shared dense scratch, and
:meth:`~repro.history.fidelity.FidelityCacheService.sparse_rows` feeds
every candidate scan from it. The contracts pinned here:

* block rows are bitwise equal to the scalar oracle for every source,
  whether the call holds one source, exactly one block, or more than
  one block (the later blocks reuse the scratch the earlier ones reset);
* duplicate sources, isolated roads and ``q == 1`` / ``q == 0`` edges
  need no special handling;
* the ``history.fidelity.rows`` span counts exactly the candidate edges
  a frontier relaxation examines;
* a batch fetch does the cache accounting of one ``row()`` per road;
* pooled district selection keeps its work counters and evaluations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pool import SharedWorkerPool
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import (
    CSRFidelityGraph,
    FidelityCacheService,
    row_block_size,
    sparse_fidelity_rows,
)
from repro.obs import FlightRecorder, set_recorder
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictStage
from repro.seeds.partition import allocate_budget, partition_graph
from tests.oracles import ScalarCoverageObjective, propagate_fidelity
from tests.oracles.fidelity import best_fidelity_rows
from tests.oracles.partition import partition_greedy_select
from tests.strategies import random_graphs
from tests.test_sparse_rows import TRANSFORMS, dense_reference

FLOORS = (0.01, 0.05, 0.5)
HOPS = (None, 1, 2, 3)


def oracle_row(graph, csr, position, floor, hops):
    """The scalar oracle row as sorted ``(indices, values)`` arrays."""
    fidelities = propagate_fidelity(graph, csr.road_ids[position], floor, hops)
    indices = np.array(sorted(csr.index[road] for road in fidelities), dtype=np.int64)
    values = np.array([fidelities[csr.road_ids[i]] for i in indices.tolist()])
    return indices, values


def assert_rows_match_oracle(graph, csr, sources, rows, floor, hops):
    assert len(rows) == len(sources)
    expected = {}
    for source, row in zip(sources, rows):
        if source not in expected:
            expected[source] = oracle_row(graph, csr, source, floor, hops)
        indices, values = expected[source]
        assert row.indices.dtype == np.int64
        assert np.array_equal(row.indices, indices)
        assert np.array_equal(row.values, values)  # bitwise: no tolerance
        assert not row.indices.flags.writeable and not row.values.flags.writeable


def frontier_relaxations(graph, source, floor, hops):
    """Candidate edges a frontier-synchronous relaxation examines."""
    best = {source: 1.0}
    frontier = {source: 1.0}
    examined = 0
    hop = 0
    while frontier and (hops is None or hop < hops):
        improved: dict[int, float] = {}
        for road, fidelity in frontier.items():
            for edge in graph.neighbours(road):
                examined += 1
                other = edge.other(road)
                candidate = fidelity * max(0.0, 2.0 * edge.agreement - 1.0)
                if candidate >= floor and candidate > max(
                    best.get(other, 0.0), improved.get(other, 0.0)
                ):
                    improved[other] = candidate
        best.update(improved)
        frontier = improved
        hop += 1
    return examined


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(),
    floor=st.sampled_from(FLOORS),
    hops=st.sampled_from(HOPS),
    data=st.data(),
)
def test_block_rows_bitwise_equal_oracle(graph, floor, hops, data):
    csr = CSRFidelityGraph.from_graph(graph)
    n = csr.num_roads
    block = row_block_size(n)
    positions = st.integers(min_value=0, max_value=n - 1)
    single = [data.draw(positions)]
    # One full block, then more than one: the second block runs on the
    # scratch the first one reset, with the sources in another order.
    full = [i % n for i in range(block)]
    more = full + data.draw(st.lists(positions, min_size=1, max_size=2 * n))
    for sources in (single, full, more):
        rows = sparse_fidelity_rows(csr, sources, floor, hops)
        assert_rows_match_oracle(graph, csr, sources, rows, floor, hops)


def test_duplicates_isolated_roads_and_extreme_edges():
    # q == 1 on 0-1, q == 0 on 1-2 and 3-4 (agreement 0.5); road 5 isolated.
    graph = CorrelationGraph(
        list(range(6)),
        [
            CorrelationEdge(0, 1, 1.0),
            CorrelationEdge(1, 2, 0.5),
            CorrelationEdge(1, 3, 0.9),
            CorrelationEdge(3, 4, 0.5),
            CorrelationEdge(0, 3, 1.0),
        ],
    )
    csr = CSRFidelityGraph.from_graph(graph)
    sources = [5, 0, 0, 2, 5, 4, 1, 0]
    for floor in FLOORS:
        for hops in HOPS:
            rows = sparse_fidelity_rows(csr, sources, floor, hops)
            assert_rows_match_oracle(graph, csr, sources, rows, floor, hops)
    # Through q == 1 edges the whole 0-1-3 triangle is at fidelity 1.
    row = sparse_fidelity_rows(csr, [0], 0.05)[0]
    assert row.indices.tolist() == [0, 1, 3] and row.values.tolist() == [1.0] * 3
    isolated = sparse_fidelity_rows(csr, [5], 0.05)[0]
    assert isolated.indices.tolist() == [5] and isolated.values.tolist() == [1.0]


def test_dense_stack_and_empty_batch():
    graph = CorrelationGraph(
        [0, 1, 2], [CorrelationEdge(0, 1, 0.9), CorrelationEdge(1, 2, 0.8)]
    )
    csr = CSRFidelityGraph.from_graph(graph)
    assert sparse_fidelity_rows(csr, [], 0.05) == []
    assert best_fidelity_rows(csr, [], 0.05).shape == (0, 3)
    stacked = best_fidelity_rows(csr, [2, 0, 2], 0.01)
    for source, dense in zip([2, 0, 2], stacked):
        expected = np.zeros(3)
        for road, q in propagate_fidelity(graph, source, 0.01).items():
            expected[road] = q
        assert np.array_equal(dense, expected)


@settings(max_examples=30, deadline=None)
@given(
    graph=random_graphs(),
    floor=st.sampled_from(FLOORS),
    hops=st.sampled_from(HOPS),
    data=st.data(),
)
def test_service_batches_equal_oracle_under_every_transform(graph, floor, hops, data):
    roads = data.draw(st.lists(st.sampled_from(graph.road_ids), min_size=1, max_size=12))
    service = FidelityCacheService()
    for transform in TRANSFORMS:
        rows = service.sparse_rows(graph, roads, floor, hops, transform)
        for road, row in zip(roads, rows):
            support, dense = dense_reference(graph, road, floor, hops, transform)
            assert np.array_equal(row.indices, support)
            assert np.array_equal(row.values, dense[support])


# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------
def _counter(rec, name, **labels):
    return rec.registry.counter(name, **labels).value


@settings(max_examples=30, deadline=None)
@given(
    graph=random_graphs(),
    floor=st.sampled_from(FLOORS),
    hops=st.sampled_from(HOPS),
    data=st.data(),
)
def test_rows_span_counts_relaxations(graph, floor, hops, data):
    csr = CSRFidelityGraph.from_graph(graph)
    sources = data.draw(
        st.lists(st.integers(0, csr.num_roads - 1), min_size=1, max_size=10)
    )
    rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        rows = sparse_fidelity_rows(csr, sources, floor, hops)
        spans = [s for s in rec.tracer.drain() if s.name == "history.fidelity.rows"]
    finally:
        set_recorder(previous)
    assert len(spans) == 1
    assert spans[0].attrs["rows"] == len(sources)
    assert spans[0].attrs["nonzeros"] == sum(row.indices.size for row in rows)
    assert spans[0].attrs["relaxations"] == sum(
        frontier_relaxations(graph, csr.road_ids[s], floor, hops) for s in sources
    )


def test_batch_fetch_accounting_equals_row_by_row(small_dataset):
    graph = small_dataset.graph
    roads = graph.road_ids[::7]
    request = roads + roads[:5] + [roads[3]]  # repeats are hits
    for transform in TRANSFORMS:
        outcomes = []
        for batched in (False, True):
            rec = FlightRecorder()
            previous = set_recorder(rec)
            try:
                service = FidelityCacheService()
                # A cached raw row makes its transformed row a miss that
                # computes nothing; a cached transformed row is a hit.
                service.row(graph, roads[0])
                service.row(graph, roads[1], transform=transform)
                if batched:
                    rows = service.sparse_rows(graph, request, transform=transform)
                else:
                    rows = [service.row(graph, r, transform=transform) for r in request]
            finally:
                set_recorder(previous)
            outcomes.append(
                (
                    service.stats(),
                    _counter(rec, "fidelity.row_nonzeros"),
                    _counter(rec, "fidelity.cache", hit="true"),
                    _counter(rec, "fidelity.cache", hit="false"),
                    rows,
                )
            )
        (row_stats, *row_counts, by_row), (batch_stats, *batch_counts, batch) = outcomes
        assert batch_stats == row_stats
        assert batch_counts == row_counts
        for a, b in zip(by_row, batch):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.values, b.values)
        # Repeats of one road return the one cached row.
        assert batch[0] is batch[len(roads)]


def test_pooled_selection_keeps_counters_and_evaluations(small_dataset):
    graph = small_dataset.graph
    objective = SeedSelectionObjective(graph, fidelity_service=FidelityCacheService())
    reference = partition_greedy_select(ScalarCoverageObjective(graph), 9, 4)
    rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        with SharedWorkerPool(2) as pool:
            stage = DistrictStage(objective, pool, num_partitions=4)
            result = stage.select(9)
        (span,) = [s for s in rec.tracer.drain() if s.name == "seeds.parallel.select"]
    finally:
        set_recorder(previous)
    assert result.seeds == reference.seeds
    assert result.evaluations == span.attrs["evaluations"] == reference.evaluations
    # Each candidate of a district with a budget share: one row, once.
    partitions = partition_graph(objective, 4)
    candidates = [
        road
        for chunk, share in zip(partitions, allocate_budget(partitions, 9))
        if share > 0
        for road in chunk
    ]
    assert span.attrs["rows_computed"] == len(candidates)
    assert span.attrs["nonzeros"] == sum(
        len(propagate_fidelity(graph, road)) for road in candidates
    )
