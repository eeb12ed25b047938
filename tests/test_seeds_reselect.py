"""Warm-started incremental CELF re-selection.

Correctness contract: every :meth:`IncrementalCelfSelector.select` call
returns the **identical** sequence a cold ``lazy_greedy_select`` would,
while the empty-set gain scan is paid only for candidates whose
fidelity rows were invalidated since the previous round — zero on a
stable network. A round with no such candidate and the previous budget
reuses the previous picks and runs no gain query at all.
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


def _reused(rec) -> float:
    return rec.registry.counter("seeds.reselect.reused").value


def _same_picks(result, expected) -> None:
    assert result.seeds == expected.seeds
    assert result.gains == expected.gains
    assert result.values == expected.values


def _reused_selector(objective, recorder, budget, candidates=None):
    """A selector whose second, stable round was reused."""
    selector = IncrementalCelfSelector(objective, candidates=candidates)
    first = selector.select(budget)
    assert _reused(recorder) == 0
    again = selector.select(budget)
    assert _reused(recorder) == 1
    assert again.evaluations == 0
    _same_picks(again, first)
    return selector, first


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


class TestReuse:
    def test_stable_reselect_is_reused(self, objective, recorder):
        selector, first = _reused_selector(objective, recorder, 8)
        third = selector.select(8)
        assert _reused(recorder) == 2
        assert third.evaluations == 0
        assert first.evaluations > 0
        _same_picks(third, first)
        _same_picks(third, lazy_greedy_select(objective, 8))
        assert third.method == first.method

    def test_row_invalidation_of_a_pool_candidate_drops_reuse(
        self, objective, recorder
    ):
        selector, first = _reused_selector(objective, recorder, 6)
        road = next(r for r in objective.road_ids if r not in first.seeds)
        objective.fidelity_service.invalidate_rows(objective.graph, [road])
        result = selector.select(6)
        assert _reused(recorder) == 1
        assert result.evaluations > 0
        _same_picks(result, lazy_greedy_select(objective, 6))

    def test_wholesale_invalidation_drops_reuse(self, objective, recorder):
        selector, first = _reused_selector(objective, recorder, 6)
        objective.fidelity_service.invalidate()
        result = selector.select(6)
        assert _reused(recorder) == 1
        assert result.evaluations > 0
        _same_picks(result, first)

    def test_new_budget_runs_a_full_pass(self, objective, recorder):
        selector, first = _reused_selector(objective, recorder, 6)
        result = selector.select(7)
        assert _reused(recorder) == 1
        assert result.evaluations > 0
        assert result.seeds[:6] == first.seeds
        _same_picks(result, lazy_greedy_select(objective, 7))
        # The new budget's picks are the ones reused from now on.
        assert selector.select(7).evaluations == 0
        assert _reused(recorder) == 2

    def test_invalidation_outside_a_restricted_pool_keeps_reuse(
        self, objective, recorder
    ):
        pool = list(objective.road_ids[::3])
        selector, first = _reused_selector(objective, recorder, 5, pool)
        outside = [r for r in objective.road_ids if r not in set(pool)][:4]
        objective.fidelity_service.invalidate_rows(objective.graph, outside)
        assert selector.dirty_candidates == set()
        result = selector.select(5)
        assert _reused(recorder) == 2
        assert result.evaluations == 0
        _same_picks(result, lazy_greedy_select(objective, 5, candidates=pool))


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
