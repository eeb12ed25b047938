"""Cache fills on two threads: the caller and one helper thread.

:meth:`~repro.history.fidelity.FidelityCacheService.sparse_rows` splits
a cold batch of at least two kernel blocks into two contiguous halves
and relaxes the second on a long-lived helper thread. The contracts
pinned here:

* service rows are bitwise what one-thread :func:`~repro.history.
  fidelity.sparse_fidelity_rows` returns, for one source, one source
  short of a block, two blocks and one source, a whole city, and the
  re-fetch of rows a graph delta dropped (the stash re-transform);
* a hop relaxed in frontier slices gives the scalar oracle's rows and
  the same relaxation count;
* the flight recorder sees the same spans and counters as a one-thread
  fill, and is only ever called from the caller's thread;
* a process allowed one CPU starts no helper thread.
"""

import os
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history import fidelity
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import (
    CSRFidelityGraph,
    FidelityCacheService,
    _transform_row,
    row_block_size,
    sparse_fidelity_rows,
)
from repro.obs import FlightRecorder, recording
from tests.strategies import random_graphs
from tests.test_block_rows import assert_rows_match_oracle, frontier_relaxations
from tests.test_delta_invalidation import bitwise, deltas

FLOORS = (0.01, 0.05, 0.5)
TRANSFORMS = ("fidelity", "variance", "logodds")
#: Sources per kernel block in these tests: small graphs then span
#: several blocks, so fills use the helper thread.
BLOCK = 3

two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the helper needs two CPUs"
)


def small_blocks(graph):
    """Patch the kernel so ``graph``'s blocks hold :data:`BLOCK` sources."""
    return mock.patch.object(fidelity, "_BLOCK_ENTRIES", BLOCK * len(graph.road_ids))


def one_thread():
    """Patch the service to fill on the caller's thread only."""
    return mock.patch.object(fidelity, "_helper", lambda: None)


def expected_rows(graph, roads, floor, transform):
    """One-thread kernel rows of ``roads``, transformed as the service does."""
    csr = CSRFidelityGraph.from_graph(graph)
    positions = [csr.index[road] for road in roads]
    return [
        _transform_row(raw, position, transform)
        for raw, position in zip(sparse_fidelity_rows(csr, positions, floor), positions)
    ]


def relax_threads():
    """Patch :func:`_relax` to note the thread of each call."""
    idents = []
    relax = fidelity._relax

    def noted(*args):
        idents.append(threading.get_ident())
        return relax(*args)

    return idents, mock.patch.object(fidelity, "_relax", noted)


class CallerOnlyRecorder(FlightRecorder):
    """A flight recorder that fails when used off the thread that made it."""

    def __init__(self) -> None:
        self.owner = threading.get_ident()
        super().__init__()

    def __getattribute__(self, name):
        if threading.get_ident() != object.__getattribute__(self, "owner"):
            raise AssertionError(f"recorder.{name} used off the caller's thread")
        return object.__getattribute__(self, name)


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    graph=random_graphs(max_roads=12),
    floor=st.sampled_from(FLOORS),
    transform=st.sampled_from(TRANSFORMS),
    data=st.data(),
)
def test_service_fills_equal_the_one_thread_kernel(graph, floor, transform, data):
    roads = data.draw(st.permutations(graph.road_ids))
    with small_blocks(graph):
        assert row_block_size(len(roads)) == BLOCK
        for size in (1, BLOCK - 1, 2 * BLOCK + 1, len(roads)):
            batch = roads[:size]
            service = FidelityCacheService()
            rows = service.sparse_rows(graph, batch, floor, transform)
            for got, want in zip(rows, expected_rows(graph, batch, floor, transform)):
                assert bitwise(got, want)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(max_roads=12), floor=st.sampled_from(FLOORS), data=st.data())
def test_refetch_after_a_delta_equals_the_one_thread_kernel(graph, floor, data):
    roads = list(graph.road_ids)
    service = FidelityCacheService()
    with small_blocks(graph):
        for transform in TRANSFORMS:
            service.sparse_rows(graph, roads, floor, transform)
        delta = data.draw(deltas(graph))
        graph.apply_delta(delta)
        service.apply_graph_delta(graph, delta)
        for transform in TRANSFORMS:
            rows = service.sparse_rows(graph, roads, floor, transform)
            for got, want in zip(rows, expected_rows(graph, roads, floor, transform)):
                assert bitwise(got, want)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(), floor=st.sampled_from(FLOORS), data=st.data())
def test_frontier_slices_keep_the_oracle_rows(graph, floor, data):
    """With one frontier key per slice, rows and relaxations are unchanged."""
    csr = CSRFidelityGraph.from_graph(graph)
    sources = data.draw(st.lists(st.integers(0, csr.num_roads - 1), min_size=1))
    with mock.patch.object(fidelity, "_HOP_EDGES", 1), recording() as rec:
        rows = sparse_fidelity_rows(csr, sources, floor)
    assert_rows_match_oracle(graph, csr, sources, rows, floor)
    (span,) = [s for s in rec.tracer.drain() if s.name == "history.fidelity.rows"]
    assert span.attrs["relaxations"] == sum(
        frontier_relaxations(graph, csr.road_ids[s], floor) for s in sources
    )


# ----------------------------------------------------------------------
# Threads and the recorder
# ----------------------------------------------------------------------
def ring_with_chords():
    """A 30-road ring with chords: ten blocks of :data:`BLOCK` sources."""
    n = 30
    edges = [CorrelationEdge(i, (i + 1) % n, 0.95) for i in range(n)]
    edges += [CorrelationEdge(i, (i + 7) % n, 0.8) for i in range(0, n, 3)]
    return CorrelationGraph(list(range(n)), edges)


def recorded_fill(graph, recorder):
    """A whole-city variance fill: its span tree and scalar metrics."""
    with small_blocks(graph), recording(recorder):
        FidelityCacheService().sparse_rows(graph, graph.road_ids, 0.05, "variance")
    spans = recorder.tracer.drain()
    names = {span.span_id: span.name for span in spans}
    tree = [(span.name, names.get(span.parent_id), span.attrs) for span in spans]
    return tree, recorder.registry.scalar_totals()


@two_cpus
def test_spans_and_counters_equal_a_one_thread_fill():
    graph = ring_with_chords()
    idents, noted = relax_threads()
    with noted:
        threaded = recorded_fill(graph, CallerOnlyRecorder())
    assert len(set(idents)) == 2  # the caller and the helper
    with one_thread():
        single = recorded_fill(graph, FlightRecorder())
    assert threaded == single
    (attrs,) = [attrs for name, _, attrs in threaded[0] if name == "history.fidelity.rows"]
    assert attrs["rows"] == len(graph.road_ids)


def test_one_cpu_starts_no_helper(monkeypatch):
    monkeypatch.setattr(fidelity, "_helper_thread", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    graph = ring_with_chords()
    idents, noted = relax_threads()
    with noted, small_blocks(graph):
        FidelityCacheService().sparse_rows(graph, graph.road_ids, 0.05)
    assert fidelity._helper_thread is None
    assert set(idents) == {threading.get_ident()}
