"""Tests for the shared CSR fidelity kernel and cross-stage cache.

The kernel's contract is differential: bitwise-identical fidelity rows
to the scalar dict/heap oracle on any graph and floor.
The service's contract is shared caching without poisoning: every
consumer sees the same read-only rows, and mutating a returned result
is an error rather than a cache corruption.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InferenceError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import (
    CSRFidelityGraph,
    FidelityCacheService,
    get_fidelity_service,
    set_fidelity_service,
)
from repro.seeds.objective import SeedSelectionObjective
from repro.trend.model import TrendModel
from repro.trend.propagation import TrendPropagationInference
from tests.oracles import ScalarPropagationInference, propagate_fidelity
from tests.oracles.fidelity import best_fidelity_row, best_fidelity_rows


def line_graph(agreements):
    n = len(agreements) + 1
    return CorrelationGraph(
        list(range(n)),
        [CorrelationEdge(i, i + 1, a) for i, a in enumerate(agreements)],
    )


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    edges = []
    seen = set()
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append(
            CorrelationEdge(u, v, draw(st.floats(min_value=0.5, max_value=1.0)))
        )
    return CorrelationGraph(list(range(n)), edges)


class TestCSRExport:
    def test_structure(self):
        graph = CorrelationGraph(
            [3, 1, 7],
            [CorrelationEdge(1, 3, 0.8), CorrelationEdge(3, 7, 0.9)],
        )
        csr = CSRFidelityGraph.from_graph(graph)
        assert csr.road_ids == (1, 3, 7)
        assert csr.index == {1: 0, 3: 1, 7: 2}
        assert csr.num_roads == 3
        # Road 3 (position 1) touches both others.
        lo, hi = csr.indptr[1], csr.indptr[2]
        assert sorted(csr.indices[lo:hi]) == [0, 2]
        # data carries fidelities 2p - 1, not agreements.
        assert set(np.round(csr.data, 10)) == {0.6, 0.8}
        for arr in (csr.indptr, csr.indices, csr.data):
            assert not arr.flags.writeable

    def test_empty_graph(self):
        csr = CSRFidelityGraph.from_graph(CorrelationGraph([0, 1], []))
        assert csr.indptr.tolist() == [0, 0, 0]
        row = best_fidelity_row(csr, 0, min_fidelity=0.1)
        assert row.tolist() == [1.0, 0.0]

    def test_degrees_match_graph(self):
        graph = line_graph([0.8, 0.9, 0.7])
        csr = CSRFidelityGraph.from_graph(graph)
        for road in graph.road_ids:
            i = csr.index[road]
            assert csr.indptr[i + 1] - csr.indptr[i] == graph.degree(road)


class TestKernel:
    def test_matches_scalar_on_line(self):
        graph = line_graph([0.8, 0.9, 0.7])
        csr = CSRFidelityGraph.from_graph(graph)
        row = best_fidelity_row(csr, 0, min_fidelity=0.01)
        scalar = propagate_fidelity(graph, 0, min_fidelity=0.01)
        for road, fid in scalar.items():
            assert row[csr.index[road]] == fid
        assert np.count_nonzero(row) == len(scalar)

    def test_source_out_of_range(self):
        csr = CSRFidelityGraph.from_graph(line_graph([0.8]))
        with pytest.raises(InferenceError):
            best_fidelity_row(csr, 9)

    def test_bad_floor(self):
        csr = CSRFidelityGraph.from_graph(line_graph([0.8]))
        with pytest.raises(InferenceError):
            best_fidelity_row(csr, 0, min_fidelity=0.0)

    def test_rows_stacked(self):
        graph = line_graph([0.8, 0.9])
        csr = CSRFidelityGraph.from_graph(graph)
        rows = best_fidelity_rows(csr, [0, 2], min_fidelity=0.01)
        assert rows.shape == (2, 3)
        assert rows[0, 0] == 1.0 and rows[1, 2] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    graph=random_graphs(),
    min_fidelity=st.sampled_from([1e-6, 0.05, 0.3]),
    data=st.data(),
)
def test_kernel_bitwise_equals_scalar(graph, min_fidelity, data):
    """The vectorized kernel and the scalar oracle agree exactly."""
    source = data.draw(st.sampled_from(graph.road_ids))
    csr = CSRFidelityGraph.from_graph(graph)
    row = best_fidelity_row(csr, csr.index[source], min_fidelity)
    scalar = propagate_fidelity(graph, source, min_fidelity)
    dense_scalar = np.zeros(csr.num_roads)
    for road, fid in scalar.items():
        dense_scalar[csr.index[road]] = fid
    assert np.array_equal(row, dense_scalar)  # bitwise, no tolerance


class TestService:
    def test_rows_are_cached_and_read_only(self):
        service = FidelityCacheService()
        graph = line_graph([0.8, 0.9])
        row1 = service.row(graph, 0, min_fidelity=0.01)
        row2 = service.row(graph, 0, min_fidelity=0.01)
        assert row1 is row2
        assert not row1.indices.flags.writeable
        assert not row1.values.flags.writeable
        with pytest.raises(ValueError):
            row1.values[0] = 0.5
        with pytest.raises(ValueError):
            row1.indices[0] = 2
        stats = service.stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_keys_isolate_floor_hops_and_transform(self):
        service = FidelityCacheService()
        graph = line_graph([0.8, 0.8, 0.8])
        loose = service.row(graph, 0, min_fidelity=0.01).dense(4)
        tight = service.row(graph, 0, min_fidelity=0.5).dense(4)
        variance = service.row(
            graph, 0, min_fidelity=0.01, transform="variance"
        ).dense(4)
        assert np.count_nonzero(loose) > np.count_nonzero(tight)
        assert variance[1] == pytest.approx(math.sin(math.pi * 0.6 / 2.0) ** 2)
        # Raw row unchanged by transform requests.
        assert loose[1] == pytest.approx(0.6)

    def test_logodds_transform_zeroes_source(self):
        service = FidelityCacheService()
        graph = line_graph([0.8])
        row = service.row(graph, 0, min_fidelity=0.01, transform="logodds").dense(2)
        assert row[0] == 0.0
        assert row[1] == pytest.approx(math.log(1.6 / 0.4))

    def test_unknown_transform_rejected(self):
        service = FidelityCacheService()
        with pytest.raises(InferenceError):
            service.row(line_graph([0.8]), 0, transform="magic")

    def test_unknown_source_rejected(self):
        service = FidelityCacheService()
        with pytest.raises(InferenceError):
            service.row(line_graph([0.8]), 42)

    def test_graph_identity_keys_the_cache(self):
        service = FidelityCacheService()
        graph_a = line_graph([0.8])
        graph_b = line_graph([0.99])  # different object AND content
        row_a = service.row(graph_a, 0, min_fidelity=0.01)
        row_b = service.row(graph_b, 0, min_fidelity=0.01)
        assert row_a.values[1] != row_b.values[1]
        assert service.stats().misses == 2

    def test_invalidate(self):
        service = FidelityCacheService()
        graph = line_graph([0.8])
        row = service.row(graph, 0, min_fidelity=0.01)
        service.invalidate(graph)
        assert service.row(graph, 0, min_fidelity=0.01) is not row
        service.invalidate()
        assert service.stats().misses == 2

    def test_scalar_service_matches_kernel_service(self):
        """Service rows equal the oracle's rows, support and values."""
        graph = line_graph([0.8, 0.9, 0.7])
        service = FidelityCacheService()
        for road in graph.road_ids:
            row = service.row(graph, road, min_fidelity=0.01)
            scalar = sorted(propagate_fidelity(graph, road, 0.01).items())
            assert row.indices.tolist() == [r for r, _ in scalar]
            assert row.values.tolist() == [q for _, q in scalar]

    def test_default_service_swap(self):
        replacement = FidelityCacheService()
        previous = set_fidelity_service(replacement)
        try:
            assert get_fidelity_service() is replacement
        finally:
            set_fidelity_service(previous)


class TestCrossStageSharing:
    """One service, two consumers: rows computed once, shared by both."""

    def _city(self):
        from repro.datasets.synthetic import scaled_dataset

        return scaled_dataset(40, history_days=3)

    def test_inference_and_selection_share_rows(self):
        city = self._city()
        shared = FidelityCacheService()
        objective = SeedSelectionObjective(city.graph, fidelity_service=shared)
        inference = TrendPropagationInference(fidelity_service=shared)

        seeds = city.graph.road_ids[:4]
        for road in seeds:
            objective.influence_row(road)
        misses_after_selection = shared.stats().misses

        model = TrendModel(city.graph, city.store)
        interval = city.test_day_intervals()[10]
        truth = city.test.speeds_at(interval)
        seed_trends = {r: city.store.trend_of(r, interval, truth[r]) for r in seeds}
        inference.infer(model.instance(interval, seed_trends))

        # Inference adds only the log-odds transform of the already-
        # propagated raw rows: one miss per seed, no re-propagation.
        assert shared.stats().misses == misses_after_selection + len(seeds)

    def test_shared_results_match_cold_results(self):
        """Warm shared-cache answers equal cold single-consumer answers."""
        city = self._city()
        shared = FidelityCacheService()
        seeds = city.graph.road_ids[:4]
        model = TrendModel(city.graph, city.store)
        interval = city.test_day_intervals()[10]
        truth = city.test.speeds_at(interval)
        seed_trends = {r: city.store.trend_of(r, interval, truth[r]) for r in seeds}
        instance = model.instance(interval, seed_trends)

        for transform in ("variance", "fidelity"):
            warm = SeedSelectionObjective(
                city.graph, fidelity_service=shared, transform=transform
            )
            cold = SeedSelectionObjective(
                city.graph,
                fidelity_service=FidelityCacheService(),
                transform=transform,
            )
            # Warm the shared cache through the *inference* consumer first.
            TrendPropagationInference(fidelity_service=shared).infer(instance)
            assert warm.value(seeds) == cold.value(seeds)

        warm_posterior = TrendPropagationInference(fidelity_service=shared).infer(
            instance
        )
        cold_posterior = TrendPropagationInference(
            fidelity_service=FidelityCacheService()
        ).infer(instance)
        assert np.array_equal(
            warm_posterior.as_array(), cold_posterior.as_array()
        )

    def test_clone_and_partition_share_the_service(self):
        city = self._city()
        shared = FidelityCacheService()
        objective = SeedSelectionObjective(city.graph, fidelity_service=shared)
        for road in city.graph.road_ids:
            objective.influence_row(road)
        misses = shared.stats().misses
        clone = objective.clone_with_weights(
            {road: 1.0 for road in city.graph.road_ids[:5]}
        )
        assert clone.fidelity_service is shared
        for road in city.graph.road_ids:
            clone.influence_row(road)
        assert shared.stats().misses == misses  # all hits

    def test_mutating_results_cannot_poison_the_cache(self):
        city = self._city()
        shared = FidelityCacheService()
        objective = SeedSelectionObjective(city.graph, fidelity_service=shared)
        road = city.graph.road_ids[0]
        row = objective.influence_row(road)
        with pytest.raises(ValueError):
            row.values[:] = 123.0
        with pytest.raises(ValueError):
            row.indices[:] = 0
        (logodds,) = shared.sparse_rows(city.graph, [road], transform="logodds")
        with pytest.raises(ValueError):
            logodds.values[0] = 1.0
        assert objective.influence_row(road) is row


class TestKernelInferenceEquivalence:
    def test_posterior_matches_scalar_reference(self):
        from repro.datasets.synthetic import scaled_dataset

        city = scaled_dataset(60, history_days=3)
        model = TrendModel(city.graph, city.store)
        seeds = city.graph.road_ids[::7]
        for interval in city.test_day_intervals(stride=24):
            truth = city.test.speeds_at(interval)
            seed_trends = {
                r: city.store.trend_of(r, interval, truth[r]) for r in seeds
            }
            instance = model.instance(interval, seed_trends)
            kernel = TrendPropagationInference(
                fidelity_service=FidelityCacheService()
            ).infer(instance)
            scalar = ScalarPropagationInference().infer(instance)
            np.testing.assert_allclose(
                kernel.as_array(), scalar.as_array(), atol=1e-9, rtol=0
            )
