"""Warm-started incremental CELF re-selection.

Correctness contract: every :meth:`IncrementalCelfSelector.select` call
returns the **identical** sequence a cold ``lazy_greedy_select`` would,
while the empty-set gain scan is paid only for candidates whose
fidelity rows were invalidated since the previous round — zero on a
stable network.
"""

import pytest

from repro.core.errors import SelectionError
from repro.history.fidelity import FidelityCacheService
from repro.obs import FlightRecorder, set_recorder
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.reselect import IncrementalCelfSelector


@pytest.fixture
def objective(small_dataset):
    # A dedicated service per test: selectors register invalidation
    # listeners on it, and tests trigger invalidations on purpose.
    return SeedSelectionObjective(
        small_dataset.graph, fidelity_service=FidelityCacheService()
    )


@pytest.fixture
def recorder():
    rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)


def _reevaluated(rec) -> float:
    return rec.registry.counter("seeds.reselect.reevaluated").value


class TestWarmStartEquivalence:
    def test_first_select_matches_cold_lazy(self, objective):
        cold = lazy_greedy_select(objective, 10)
        result = IncrementalCelfSelector(objective).select(10)
        assert result.seeds == cold.seeds
        assert result.gains == cold.gains
        assert result.values == cold.values
        assert result.evaluations == cold.evaluations
        assert result.method == "lazy-greedy-incremental"

    def test_reselect_on_stable_network_is_identical(self, objective):
        selector = IncrementalCelfSelector(objective)
        first = selector.select(8)
        second = selector.select(8)
        third = selector.select(8)
        assert second.seeds == first.seeds
        assert third.seeds == first.seeds
        assert second.gains == first.gains

    def test_reselect_after_invalidation_matches_cold(self, objective):
        selector = IncrementalCelfSelector(objective)
        selector.select(6)
        touched = objective.road_ids[:15]
        objective.fidelity_service.invalidate_rows(objective.graph, touched)
        cold = lazy_greedy_select(objective, 6)
        assert selector.select(6).seeds == cold.seeds


class TestIncrementalAccounting:
    def test_stable_round_reevaluates_nothing(self, objective, recorder):
        selector = IncrementalCelfSelector(objective)
        selector.select(5)
        after_first = _reevaluated(recorder)
        assert after_first == len(objective.road_ids)
        assert selector.dirty_candidates == set()
        selector.select(5)
        assert _reevaluated(recorder) == after_first
        assert recorder.registry.counter("seeds.reselect.cached").value == len(
            objective.road_ids
        )

    def test_row_invalidation_dirties_only_touched(self, objective, recorder):
        selector = IncrementalCelfSelector(objective)
        selector.select(5)
        touched = objective.road_ids[3:9]
        objective.fidelity_service.invalidate_rows(objective.graph, touched)
        assert selector.dirty_candidates == set(touched)
        before = _reevaluated(recorder)
        selector.select(5)
        assert _reevaluated(recorder) - before == len(touched)
        assert selector.dirty_candidates == set()

    def test_whole_graph_invalidation_dirties_everything(self, objective):
        selector = IncrementalCelfSelector(objective)
        selector.select(5)
        objective.fidelity_service.invalidate()
        assert selector.dirty_candidates == set(objective.road_ids)

    def test_foreign_graph_invalidation_ignored(self, objective, tiny_dataset):
        selector = IncrementalCelfSelector(objective)
        selector.select(5)
        objective.fidelity_service.invalidate_rows(
            tiny_dataset.graph, objective.road_ids[:4]
        )
        assert selector.dirty_candidates == set()


class TestReselectValidation:
    def test_budget_exceeding_pool_rejected(self, objective):
        pool = objective.road_ids[:4]
        selector = IncrementalCelfSelector(objective, candidates=list(pool))
        with pytest.raises(SelectionError, match="budget"):
            selector.select(5)

    def test_restricted_pool_matches_cold(self, objective):
        pool = list(objective.road_ids[::3])
        selector = IncrementalCelfSelector(objective, candidates=pool)
        cold = lazy_greedy_select(objective, 6, candidates=pool)
        assert selector.select(6).seeds == cold.seeds


class TestSubscriptionLifetime:
    def test_dropped_selector_frees_graph_and_rows(self, small_dataset):
        """The selector's subscription is weak: on the process-default
        service, dropping the selector frees its objective, its graph
        and every row cached for that graph."""
        import gc
        import weakref

        from repro.history.correlation import CorrelationGraph
        from repro.history.fidelity import get_fidelity_service

        service = get_fidelity_service()
        graph = CorrelationGraph(
            small_dataset.graph.road_ids, list(small_dataset.graph.edges())
        )
        objective = SeedSelectionObjective(graph, fidelity_service=service)
        selector = IncrementalCelfSelector(objective)
        selector.select(6)
        assert graph in service._graphs
        graph_ref, objective_ref = weakref.ref(graph), weakref.ref(objective)
        entries = len(service._graphs)
        del selector, objective, graph
        gc.collect()
        assert objective_ref() is None
        assert graph_ref() is None
        assert len(service._graphs) <= entries - 1
