"""Compiled interval plans: differential equivalence and cache behaviour.

The vectorized Step-2 serving path (``repro.speed.plan``) must agree
with the per-road scalar oracle (``tests.oracles.ScalarTwoStep``) to
within 1e-9 on every query shape — full intervals, partial ``estimate_roads`` queries,
rounds with substituted seed observations, and the ``use_trend=False``
ablation — and its incremental cross-interval updates must be
bit-for-bit identical to evaluating a freshly compiled plan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InferenceError
from repro.history.fidelity import FidelityCacheService
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.speed.plan import IntervalPlanner
from tests.oracles import ScalarTwoStep
from tests.oracles.fidelity import influence_rows

SPEED_TOL = 1e-9


@pytest.fixture(scope="module")
def pair(small_dataset):
    """A vectorized estimator and the scalar oracle sharing one fitted HLM."""
    params = HlmParams()
    hlm = HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph, params
    )
    vec = TwoStepEstimator(
        small_dataset.network,
        small_dataset.store,
        small_dataset.graph,
        hlm=hlm,
        hlm_params=params,
    )
    sca = ScalarTwoStep(small_dataset.store, small_dataset.graph, hlm)
    return small_dataset, vec, sca


@pytest.fixture(scope="module")
def pair_no_trend(small_dataset):
    """The same pairing with the trend-conditional prior disabled."""
    params = HlmParams(use_trend=False)
    hlm = HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph, params
    )
    vec = TwoStepEstimator(
        small_dataset.network,
        small_dataset.store,
        small_dataset.graph,
        hlm=hlm,
        hlm_params=params,
    )
    sca = ScalarTwoStep(small_dataset.store, small_dataset.graph, hlm)
    return small_dataset, vec, sca


def seed_speeds_for(dataset, seeds, interval, factor=1.0):
    return {r: dataset.test.speed(r, interval) * factor for r in seeds}


def assert_equivalent(got, want):
    assert set(got) == set(want)
    for road, e in want.items():
        v = got[road]
        assert v.speed_kmh == pytest.approx(e.speed_kmh, abs=SPEED_TOL)
        assert v.trend is e.trend
        assert v.trend_probability == pytest.approx(
            e.trend_probability, abs=SPEED_TOL
        )
        assert v.is_seed == e.is_seed
        assert v.road_id == road and v.interval == e.interval


def seed_sets(dataset):
    roads = list(dataset.graph.road_ids)
    return st.sets(st.sampled_from(roads), min_size=1, max_size=12).map(sorted)


class TestDifferentialEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_full_interval_matches_scalar(self, pair, data):
        dataset, vec, sca = pair
        seeds = data.draw(seed_sets(dataset))
        interval = data.draw(
            st.sampled_from(dataset.test_day_intervals()), label="interval"
        )
        speeds = seed_speeds_for(dataset, seeds, interval)
        assert_equivalent(
            vec.estimate_interval(interval, speeds),
            sca.estimate_interval(interval, speeds),
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_partial_queries_match_scalar(self, pair, data):
        dataset, vec, sca = pair
        seeds = data.draw(seed_sets(dataset))
        interval = data.draw(
            st.sampled_from(dataset.test_day_intervals()), label="interval"
        )
        roads = data.draw(
            st.lists(
                st.sampled_from(list(dataset.graph.road_ids)),
                min_size=1,
                max_size=30,
            ),
            label="roads",
        )
        speeds = seed_speeds_for(dataset, seeds, interval)
        assert_equivalent(
            vec.estimate_roads(interval, speeds, roads),
            sca.estimate_roads(interval, speeds, roads),
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_substituted_seed_sequences_match_scalar(self, pair, data):
        """Rounds whose seed observations get substituted mid-sequence.

        The seed set stays fixed while some observations change between
        consecutive intervals (what degradation-driven substitution
        produces), which drives the plan's incremental update path.
        """
        dataset, vec, sca = pair
        seeds = data.draw(seed_sets(dataset))
        intervals = dataset.test_day_intervals()
        start = data.draw(
            st.integers(min_value=0, max_value=len(intervals) - 3), label="start"
        )
        substituted = data.draw(
            st.sets(st.sampled_from(seeds)), label="substituted"
        )
        factor = data.draw(
            st.floats(min_value=0.5, max_value=1.5), label="factor"
        )
        for step, interval in enumerate(intervals[start : start + 3]):
            speeds = seed_speeds_for(dataset, seeds, interval)
            if step > 0:
                for road in substituted:
                    speeds[road] *= factor
            assert_equivalent(
                vec.estimate_interval(interval, speeds),
                sca.estimate_interval(interval, speeds),
            )

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_use_trend_false_matches_scalar(self, pair_no_trend, data):
        dataset, vec, sca = pair_no_trend
        seeds = data.draw(seed_sets(dataset))
        interval = data.draw(
            st.sampled_from(dataset.test_day_intervals()), label="interval"
        )
        speeds = seed_speeds_for(dataset, seeds, interval)
        assert_equivalent(
            vec.estimate_interval(interval, speeds),
            sca.estimate_interval(interval, speeds),
        )


class TestIncrementalUpdates:
    def _fresh(self, dataset):
        return TwoStepEstimator(
            dataset.network, dataset.store, dataset.graph, hlm_params=HlmParams()
        )

    def test_incremental_identical_to_cold_plan(self, small_dataset):
        """Warm incremental evaluation is bit-for-bit the cold result."""
        seeds = list(small_dataset.graph.road_ids)[::7][:8]
        intervals = small_dataset.test_day_intervals()[:4]
        warm = self._fresh(small_dataset)
        warm_results = {}
        for interval in intervals:
            speeds = seed_speeds_for(small_dataset, seeds, interval)
            warm_results[interval] = warm.estimate_interval(interval, speeds)
        # Each interval cold, in a fresh estimator with no prior state.
        for interval in intervals:
            cold = self._fresh(small_dataset)
            speeds = seed_speeds_for(small_dataset, seeds, interval)
            cold_result = cold.estimate_interval(interval, speeds)
            assert warm_results[interval] == cold_result

    def test_repeated_observations_reuse_cached_solution(self, small_dataset):
        est = self._fresh(small_dataset)
        seeds = list(small_dataset.graph.road_ids)[::9][:6]
        interval = small_dataset.test_day_intervals()[10]
        speeds = seed_speeds_for(small_dataset, seeds, interval)
        first = est.estimate_interval(interval, speeds)
        second = est.estimate_interval(interval, dict(speeds))
        assert first == second
        stats = est.plan_cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_changing_one_seed_changes_only_its_influence(self, small_dataset):
        """A single substituted observation leaves unrelated roads exact."""
        est = self._fresh(small_dataset)
        seeds = list(small_dataset.graph.road_ids)[::9][:6]
        interval = small_dataset.test_day_intervals()[10]
        speeds = seed_speeds_for(small_dataset, seeds, interval)
        base = est.estimate_interval(interval, speeds)
        bumped = dict(speeds)
        bumped[seeds[0]] *= 1.2
        shifted = est.estimate_interval(interval, bumped)
        influence = ScalarTwoStep(
            small_dataset.store, small_dataset.graph, est.hlm
        ).influence_index(seeds)
        for road, estimate in shifted.items():
            if road == seeds[0]:
                continue
            touched = seeds[0] in influence.get(road, {})
            if not touched:
                assert estimate.speed_kmh == base[road].speed_kmh


class TestPlanCache:
    def test_buckets_share_the_live_structure(self, small_dataset):
        est = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            hlm_params=HlmParams(),
        )
        cache = est.plan_cache
        seeds = list(small_dataset.graph.road_ids)[:5]
        intervals = small_dataset.test_day_intervals()[:3]
        for interval in intervals:  # three distinct buckets, one seed set
            est.estimate_interval(
                interval, seed_speeds_for(small_dataset, seeds, interval)
            )
        stats = cache.stats()
        assert stats.misses == 3 and stats.evictions == 0 and stats.size == 3
        plans = [est.plan_for(interval, seeds) for interval in intervals]
        assert len({id(plan._structure) for plan in plans}) == 1
        # Every bucket of the live seed set stays cached.
        est.estimate_interval(
            intervals[0], seed_speeds_for(small_dataset, seeds, intervals[0])
        )
        assert cache.stats().misses == 3 and cache.stats().hits == 1

    def test_invalidated_with_fidelity_service(self, small_dataset):
        fidelity = FidelityCacheService()
        est = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            hlm_params=HlmParams(),
            fidelity_service=fidelity,
        )
        cache = est.plan_cache
        seeds = list(small_dataset.graph.road_ids)[:4]
        interval = small_dataset.test_day_intervals()[0]
        speeds = seed_speeds_for(small_dataset, seeds, interval)
        est.estimate_interval(interval, speeds)
        assert cache.stats().size == 1
        fidelity.invalidate()
        assert cache.stats().size == 0 and cache.stats().flushes == 1
        # Serving again after invalidation recompiles and still works.
        result = est.estimate_interval(interval, speeds)
        assert len(result) == len(small_dataset.graph.road_ids)
        assert cache.stats().misses == 2

    def test_distinct_seed_sets_get_distinct_plans(self, small_dataset):
        est = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            hlm_params=HlmParams(),
        )
        interval = small_dataset.test_day_intervals()[0]
        roads = list(small_dataset.graph.road_ids)
        est.estimate_interval(
            interval, seed_speeds_for(small_dataset, roads[:4], interval)
        )
        est.estimate_interval(
            interval, seed_speeds_for(small_dataset, roads[4:8], interval)
        )
        stats = est.plan_cache.stats()
        # The second set replaced the first: its one plan was evicted.
        assert stats.misses == 2 and stats.evictions == 1 and stats.size == 1

    def test_sentinel_rounds_keep_the_full_set(self, small_dataset):
        """Full and sentinel rounds alternate within a day (the adaptive
        scheduler's pattern): each set compiles once and both stay held;
        a re-selected, unrelated set then releases both."""
        import gc
        import weakref

        from repro.obs import FlightRecorder, set_recorder

        est = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            hlm_params=HlmParams(),
        )
        cache = est.plan_cache
        roads = list(small_dataset.graph.road_ids)
        full, sentinel = roads[:6], roads[:6:2]
        intervals = small_dataset.test_day_intervals()[:4]
        grid = small_dataset.store.grid
        assert len({grid.bucket_of(i) for i in intervals}) == 4
        rounds = [
            (interval, full if n % 2 == 0 else sentinel)
            for n, interval in enumerate(intervals)
        ]
        rec = FlightRecorder()
        previous = set_recorder(rec)
        try:
            for interval, seeds in rounds + rounds[:2]:
                est.estimate_interval(
                    interval, seed_speeds_for(small_dataset, seeds, interval)
                )
        finally:
            set_recorder(previous)
        compiles = [s for s in rec.tracer.drain() if s.name == "speed.plan.compile"]
        assert len(compiles) == 2
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.evictions, stats.size) == (4, 2, 0, 4)

        held = [
            weakref.ref(est.plan_for(interval, seeds)._structure)
            for interval, seeds in rounds[:2]
        ]
        est.estimate_interval(
            intervals[0], seed_speeds_for(small_dataset, roads[10:16], intervals[0])
        )
        gc.collect()
        assert all(ref() is None for ref in held)
        stats = cache.stats()
        assert stats.evictions == 4 and stats.size == 1

    def test_band_lookup_for_another_set_leaves_the_cache(self, small_dataset):
        """``plan_for`` with a seed set the cache does not hold builds a
        plan equal to a cached compile without releasing a held set."""
        est, fresh = (
            TwoStepEstimator(
                small_dataset.network,
                small_dataset.store,
                small_dataset.graph,
                hlm_params=HlmParams(),
            )
            for _ in range(2)
        )
        cache = est.plan_cache
        roads = list(small_dataset.graph.road_ids)
        seeds, other = roads[:5], roads[5:9]
        interval = small_dataset.test_day_intervals()[0]
        est.estimate_interval(interval, seed_speeds_for(small_dataset, seeds, interval))
        plan = est.plan_for(interval, seeds)

        looked_up = est.plan_for(interval, other)
        assert est.plan_for(interval, seeds) is plan
        stats = cache.stats()
        assert (stats.misses, stats.evictions, stats.size) == (2, 0, 1)
        assert est.plan_for(interval, other) is not looked_up  # cached nowhere

        fresh.estimate_interval(
            interval, seed_speeds_for(small_dataset, other, interval)
        )
        compiled = fresh.plan_for(interval, other)
        assert looked_up.seeds == compiled.seeds
        for column in ("has_reg", "residual_std", "historical"):
            assert getattr(looked_up, column).tobytes() == (
                getattr(compiled, column).tobytes()
            )


class TestDegradedPathDifferential:
    """The degraded path must not diverge between plan and scalar oracle.

    Fault-forced seed substitution flows through ``run_round``'s
    degradation machinery; every round's estimates, ``degraded`` flags
    and widened uncertainty bands must match the per-road scalar oracle
    served the same filled seed speeds.
    """

    def _system(self, dataset):
        from repro.core.pipeline import SpeedEstimationSystem

        system = SpeedEstimationSystem.from_parts(
            dataset.network, dataset.store, dataset.graph
        )
        system.select_seeds(8)
        return system

    def _platform(self):
        from repro.crowd.platform import CrowdsourcingPlatform
        from repro.crowd.workers import WorkerPool, WorkerPoolParams
        from repro.faults import get_scenario, inject_faults

        pool = WorkerPool.sample(
            60, WorkerPoolParams(noise_std_frac=0.10), seed=7
        )
        pool = inject_faults(pool, get_scenario("outage-window"))
        return CrowdsourcingPlatform(pool, workers_per_task=3)

    def test_degraded_flags_and_bands_match_scalar(self, small_dataset):
        from repro.speed.uncertainty import UncertaintyModel

        system = self._system(small_dataset)
        oracle = ScalarTwoStep(
            small_dataset.store, small_dataset.graph, system.estimator.hlm
        )
        platform = self._platform()
        intervals = small_dataset.test_day_intervals()
        bands_model = UncertaintyModel(system.estimator, small_dataset.store)
        saw_substitution = False
        # The outage window spans several rounds; drive far enough to
        # cover healthy rounds, the outage, and the recovery after it.
        for i in range(6):
            interval = intervals[i]
            out = system.run_round(
                interval, small_dataset.test, platform, crowd_seed=i
            )
            saw_substitution |= bool(out.substituted)
            estimates = out.estimates
            # Seed estimates carry the filled speeds Step 2 was served.
            filled = {r: estimates[r].speed_kmh for r in system.seeds}
            reference = oracle.estimate_interval(interval, filled)
            for road in out.substituted:
                reference[road] = reference[road].replace(degraded=True)
            assert set(estimates) == set(reference)
            for road, estimate in estimates.items():
                assert estimate.degraded == reference[road].degraded
                assert estimate.speed_kmh == pytest.approx(
                    reference[road].speed_kmh, abs=SPEED_TOL
                )
            bands = bands_model.bands_for(estimates, filled)
            reference_bands = bands_model.bands_for(reference, filled)
            assert set(bands) == set(reference_bands)
            for road, band in bands.items():
                want = reference_bands[road]
                assert band.std_kmh == pytest.approx(want.std_kmh, abs=SPEED_TOL)
                assert band.lower_kmh == pytest.approx(
                    want.lower_kmh, abs=SPEED_TOL
                )
                assert band.upper_kmh == pytest.approx(
                    want.upper_kmh, abs=SPEED_TOL
                )
        # The scenario must actually have exercised the degraded path.
        assert saw_substitution


class TestPosteriorArrays:
    def test_estimates_independent_of_seed_order(self, pair):
        dataset, vec, _ = pair
        seeds = list(dataset.graph.road_ids)[::11][:5]
        interval = dataset.test_day_intervals()[5]
        forward = seed_speeds_for(dataset, seeds, interval)
        backward = {r: forward[r] for r in reversed(seeds)}
        assert vec.estimate_interval(interval, forward) == vec.estimate_interval(
            interval, backward
        )


class TestGraphDeltaEviction:
    """Regression: delta-driven row invalidation must reach stale plans.

    A plan cache once registered only for whole-graph invalidations, so
    ``invalidate_rows`` dropped fidelity rows while compiled plans kept
    serving coefficients derived from the pre-delta graph. The
    estimator's one subscription now marks stale exactly the structures of
    plans whose seed rows dropped (the plans stay cached), and a warm
    estimator afterwards matches a cold one built from the mutated graph
    bit for bit.
    """

    def _build(self, dataset):
        from repro.history.correlation import CorrelationGraph

        # A private, mutable copy of the session graph.
        graph = CorrelationGraph(dataset.graph.road_ids, list(dataset.graph.edges()))
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(
            dataset.store, dataset.network, graph, params
        )
        fidelity = FidelityCacheService()
        est = TwoStepEstimator(
            dataset.network,
            dataset.store,
            graph,
            hlm=hlm,
            hlm_params=params,
            fidelity_service=fidelity,
        )
        return graph, hlm, params, fidelity, est.plan_cache, est

    def _delta_around(self, graph, road):
        from repro.history.correlation import CorrelationEdge
        from tests.oracles.delta import EdgeTuples

        edge = graph.neighbours(road)[0]
        new_weight = 0.93 if abs(edge.agreement - 0.93) > 1e-9 else 0.88
        return EdgeTuples(
            reweighted=(CorrelationEdge(edge.road_u, edge.road_v, new_weight),),
        ).delta()

    def test_row_invalidation_evicts_stale_plan(self, small_dataset):
        from repro.seeds.lazy import lazy_greedy_select
        from repro.seeds.objective import SeedSelectionObjective
        from repro.seeds.reselect import IncrementalCelfSelector

        graph, hlm, params, fidelity, cache, est = self._build(small_dataset)
        objective = SeedSelectionObjective(graph, fidelity_service=fidelity)
        selector = IncrementalCelfSelector(objective)
        seeds = list(selector.select(6).seeds)
        interval = small_dataset.test_day_intervals()[0]
        speeds = seed_speeds_for(small_dataset, seeds, interval)
        warm_before = est.estimate_interval(interval, speeds)
        assert cache.stats().size == 1

        delta = self._delta_around(graph, seeds[0])
        graph.apply_delta(delta)
        dropped = fidelity.apply_graph_delta(graph, delta)
        assert seeds[0] in dropped

        stats = cache.stats()
        assert stats.shard_evictions == 1  # the stale plan's structure...
        assert stats.flushes == 0  # ...without a wholesale flush
        assert stats.size == 1
        assert stats.row_evictions == 0

        # The marked plan serves the old seed set exactly as a cold
        # compile from the mutated graph does.
        cold_est = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            graph,
            hlm=hlm,
            hlm_params=params,
            fidelity_service=FidelityCacheService(),
        )
        refreshed = est.estimate_interval(interval, speeds)
        assert refreshed == cold_est.estimate_interval(interval, speeds)

        # Re-selection through the warm CELF selector matches a cold run
        # against the mutated graph.
        warm_sel = selector.select(6)
        cold_sel = lazy_greedy_select(
            SeedSelectionObjective(graph, fidelity_service=FidelityCacheService()), 6
        )
        assert warm_sel.seeds == cold_sel.seeds
        assert warm_sel.gains == cold_sel.gains

        # And serving through the warm estimator is bit-identical to a
        # cold compile from the mutated graph.
        new_seeds = list(warm_sel.seeds)
        new_speeds = seed_speeds_for(small_dataset, new_seeds, interval)
        warm = est.estimate_interval(interval, new_speeds)
        cold = cold_est.estimate_interval(interval, new_speeds)
        assert set(warm) == set(cold)
        for road in warm:
            assert warm[road].speed_kmh == cold[road].speed_kmh
        # Sanity: the delta actually moved at least one estimate, so the
        # pre-delta plan really was stale.
        assert any(
            warm_before[r].speed_kmh != warm[r].speed_kmh for r in warm
        ) or new_seeds != seeds

    def test_untouched_plans_survive_delta(self, small_dataset):
        graph, hlm, params, fidelity, cache, est = self._build(small_dataset)
        roads = list(graph.road_ids)
        interval = small_dataset.test_day_intervals()[0]
        set_a = roads[:4]
        set_b = roads[-4:]
        est.estimate_interval(
            interval, seed_speeds_for(small_dataset, set_a, interval)
        )
        est.estimate_interval(
            interval, seed_speeds_for(small_dataset, set_b, interval)
        )
        assert cache.stats().size == 1  # set_b replaced set_a

        delta = self._delta_around(graph, set_a[0])
        graph.apply_delta(delta)
        dropped = set(fidelity.apply_graph_delta(graph, delta))
        assert set_a[0] in dropped

        stats = cache.stats()
        touched = bool(dropped.intersection(set_b))
        assert stats.flushes == 0
        assert stats.size == 1  # marked or untouched, never dropped
        assert stats.row_evictions == 0
        assert stats.shard_evictions == int(touched)
        plan = est.plan_for(interval, set_b)
        assert plan.seeds == tuple(sorted(set_b))
        assert plan._structure.stale == touched

        # The live plan and a recompile of the replaced set alike serve
        # what a cold compile from the mutated graph serves.
        cold_est = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            graph,
            hlm=hlm,
            hlm_params=params,
            fidelity_service=FidelityCacheService(),
        )
        for seeds in (set_b, set_a):
            speeds = seed_speeds_for(small_dataset, seeds, interval)
            assert est.estimate_interval(interval, speeds) == (
                cold_est.estimate_interval(interval, speeds)
            )

    def test_replaced_seed_set_is_released(self, small_dataset):
        """Yesterday's seed set holds no structure after a re-selection.

        Set A serves two buckets, then set B (sharing one seed) takes
        over; a one-edge delta then drops that shared seed's row. Only
        B's structure is alive and marked: A's was collected with its
        plans, which count as evictions, not as stale structures.
        """
        import gc
        import weakref

        from repro.obs import FlightRecorder, set_recorder

        graph, hlm, params, fidelity, cache, est = self._build(small_dataset)
        roads = list(graph.road_ids)
        set_a, set_b = roads[:4], roads[1:5]
        intervals = small_dataset.test_day_intervals()
        buckets = {small_dataset.store.grid.bucket_of(i) for i in intervals[:2]}
        assert len(buckets) == 2
        for interval in intervals[:2]:
            est.estimate_interval(
                interval, seed_speeds_for(small_dataset, set_a, interval)
            )
        structure_a = weakref.ref(est.plan_for(intervals[0], set_a)._structure)
        est.estimate_interval(
            intervals[0], seed_speeds_for(small_dataset, set_b, intervals[0])
        )
        structure_b = weakref.ref(est.plan_for(intervals[0], set_b)._structure)

        rec = FlightRecorder()
        previous = set_recorder(rec)
        try:
            delta = self._delta_around(graph, roads[1])
            graph.apply_delta(delta)
            assert roads[1] in fidelity.apply_graph_delta(graph, delta)
        finally:
            set_recorder(previous)
        gc.collect()

        assert structure_a() is None, "the replaced structure is still alive"
        assert structure_b() is est.plan_for(intervals[0], set_b)._structure
        assert structure_b().stale
        stats = cache.stats()
        assert stats.size == 1 and stats.evictions == 2
        assert stats.shard_evictions == 1
        assert rec.registry.counter("plan.shards_evicted").value <= 1

    def test_default_plan_cache_follows_wholesale_invalidation(self, small_dataset):
        """A default-constructed estimator's own plan cache is no longer
        a second, unregistered cache: a wholesale invalidation of its
        graph on the process-default service flushes it too."""
        from repro.history.correlation import CorrelationGraph
        from repro.history.fidelity import get_fidelity_service
        from repro.seeds.lazy import lazy_greedy_select
        from repro.seeds.objective import SeedSelectionObjective
        from tests.oracles.delta import EdgeTuples

        graph = CorrelationGraph(
            small_dataset.graph.road_ids, list(small_dataset.graph.edges())
        )
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, graph, params
        )
        est = TwoStepEstimator(
            small_dataset.network, small_dataset.store, graph, hlm=hlm
        )
        seeds = list(
            lazy_greedy_select(
                SeedSelectionObjective(graph, fidelity_service=FidelityCacheService()),
                6,
            ).seeds
        )
        interval = small_dataset.test_day_intervals()[0]
        speeds = seed_speeds_for(small_dataset, seeds, interval)
        before = est.estimate_interval(interval, speeds)

        removed = sorted(
            {
                (edge.road_u, edge.road_v)
                for seed in seeds[:3]
                for edge in graph.neighbours(seed)
            }
        )
        graph.apply_delta(EdgeTuples(removed=tuple(removed)).delta())
        get_fidelity_service().invalidate(graph)

        warm = est.estimate_interval(interval, speeds)
        cold = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            graph,
            hlm=hlm,
            fidelity_service=FidelityCacheService(),
        ).estimate_interval(interval, speeds)
        assert warm.road_ids == cold.road_ids
        for column in ("speed", "trend", "p_rise", "is_seed"):
            assert getattr(warm, column).tobytes() == getattr(cold, column).tobytes()
        # The mutation moved estimates, so a stale plan would show.
        assert not np.array_equal(before.speed, warm.speed)


class TestEvictionIndexPinning:
    """The planner holds one structure: a row invalidation marks it
    exactly when a reference scan of its seeds would, a wholesale one
    forgets it and its plans, and a replaced one is released."""

    def _planner(self, pair):
        dataset, vec, _ = pair
        roads = list(dataset.graph.road_ids)

        def rows(seeds):
            return influence_rows({roads[0]: {seeds[0]: 0.9}}, seeds, roads)

        planner = IntervalPlanner(
            dataset.store, dataset.network, vec.hlm, roads, rows
        )
        return roads, planner

    def test_indexed_eviction_matches_linear_scan(self, pair):
        dataset, _, _ = pair
        roads = list(dataset.graph.road_ids)
        seed_sets = [
            tuple(roads[:4]),
            tuple(roads[2:6]),  # overlaps the first
            tuple(roads[50:54]),
            tuple(roads[100:103]),
        ]
        drops = [
            set(),
            {roads[3]},              # hits two overlapping sets
            {roads[2], roads[101]},  # hits sets in different regions
            {roads[110]},            # no structure uses this road
            {roads[0], roads[50], roads[100]},  # hits three sets
            {-1, 10**9},             # roads the planner never saw
        ]
        for seeds in seed_sets:
            for drop in drops:
                _, planner = self._planner(pair)
                plan = planner.plan(seeds, 0)
                planner.invalidate(drop)
                expected = bool(set(seeds) & drop)  # reference scan
                assert plan._structure.stale == expected
                assert planner.stats().shard_evictions == int(expected)
                assert planner.peek(seeds, 0) is plan

    def test_evict_all_clears_index(self, pair):
        roads, planner = self._planner(pair)
        seeds = tuple(roads[:3])
        plan = planner.plan(seeds, 0)
        planner.plan(seeds, 1)
        planner.invalidate(None)
        assert planner.peek(seeds, 0) is None
        assert planner.stats().size == 0 and planner.stats().flushes == 1
        # Recompiling after a full evict compiles a fresh structure.
        fresh = planner.plan(seeds, 0)
        assert fresh._structure is not plan._structure
        assert planner.stats().misses == 3

    def test_garbage_collected_structures_are_pruned(self, pair):
        import gc
        import weakref

        roads, planner = self._planner(pair)
        replaced = weakref.ref(planner.plan(tuple(roads[:3]), 0)._structure)
        live = planner.plan(tuple(roads[3:6]), 0)
        gc.collect()
        assert replaced() is None
        assert planner.stats().evictions == 1
        # Invalidating over the released seed set is a no-op.
        planner.invalidate({roads[0]})
        assert not live._structure.stale
        assert planner.stats().shard_evictions == 0
