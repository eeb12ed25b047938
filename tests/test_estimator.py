"""Unit/integration tests for the two-step estimator."""

import numpy as np
import pytest

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HlmParams
from repro.trend.bp import LoopyBeliefPropagation
from tests.oracles import ScalarTwoStep


@pytest.fixture(scope="module")
def estimator(small_dataset):
    return TwoStepEstimator(
        small_dataset.network, small_dataset.store, small_dataset.graph
    )


@pytest.fixture(scope="module")
def round_data(small_dataset):
    interval = small_dataset.test_day_intervals()[34]
    truth = small_dataset.test.speeds_at(interval)
    seeds = small_dataset.network.road_ids()[::12][:10]
    return interval, truth, {r: truth[r] for r in seeds}


class TestEstimateInterval:
    def test_covers_every_road(self, estimator, small_dataset, round_data):
        interval, _, seed_speeds = round_data
        estimates = estimator.estimate_interval(interval, seed_speeds)
        assert set(estimates) == set(small_dataset.graph.road_ids)

    def test_seeds_pass_through(self, estimator, round_data):
        interval, _, seed_speeds = round_data
        estimates = estimator.estimate_interval(interval, seed_speeds)
        for road, speed in seed_speeds.items():
            assert estimates[road].speed_kmh == speed
            assert estimates[road].is_seed

    def test_non_seeds_marked(self, estimator, round_data):
        interval, _, seed_speeds = round_data
        estimates = estimator.estimate_interval(interval, seed_speeds)
        non_seeds = [e for e in estimates.values() if not e.is_seed]
        assert non_seeds
        for est in non_seeds:
            assert 0.0 <= est.trend_probability <= 1.0
            assert est.speed_kmh > 0

    def test_trend_matches_probability(self, estimator, round_data):
        interval, _, seed_speeds = round_data
        for est in estimator.estimate_interval(interval, seed_speeds).values():
            if est.trend_probability >= 0.5:
                assert est.trend is Trend.RISE
            else:
                assert est.trend is Trend.FALL

    def test_empty_seeds_rejected(self, estimator):
        with pytest.raises(InferenceError):
            estimator.estimate_interval(0, {})

    def test_unknown_seed_rejected(self, estimator):
        with pytest.raises(InferenceError):
            estimator.estimate_interval(0, {999999: 30.0})

    def test_deterministic(self, estimator, round_data):
        interval, _, seed_speeds = round_data
        a = estimator.estimate_interval(interval, seed_speeds)
        b = estimator.estimate_interval(interval, seed_speeds)
        assert a == b

    def test_beats_historical_average(self, small_dataset, estimator, round_data):
        """The headline property: two-step beats HA on its own turf."""
        interval, truth, seed_speeds = round_data
        estimates = estimator.estimate_interval(interval, seed_speeds)
        store = small_dataset.store
        ours, has = [], []
        for road in small_dataset.network.road_ids():
            if road in seed_speeds:
                continue
            ours.append(abs(estimates[road].speed_kmh - truth[road]))
            has.append(abs(store.historical_speed(road, interval) - truth[road]))
        assert np.mean(ours) < np.mean(has)

    def test_pluggable_inference(self, small_dataset, round_data):
        interval, _, seed_speeds = round_data
        bp_estimator = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            trend_inference=LoopyBeliefPropagation(max_iterations=30),
        )
        estimates = bp_estimator.estimate_interval(interval, seed_speeds)
        assert len(estimates) == small_dataset.network.num_segments

    def test_influence_cache_reused_across_intervals(
        self, small_dataset, round_data
    ):
        _, _, seed_speeds = round_data
        from repro.history.fidelity import FidelityCacheService

        service = FidelityCacheService()
        estimator = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            fidelity_service=service,
        )
        intervals = small_dataset.test_day_intervals()[30:34]
        for interval in intervals:
            estimator.estimate_interval(interval, seed_speeds)
        # Per-seed influence lives in the shared cross-stage service:
        # at most one miss per (seed, transform) across all intervals
        # (raw fidelity for Step-2 weighting, log-odds for Step-1 votes),
        # everything after the first interval is a hit.
        stats = service.stats()
        assert stats.misses <= 2 * len(seed_speeds)
        assert stats.hits > 0

    def test_ablation_params_accepted(self, small_dataset, round_data):
        interval, _, seed_speeds = round_data
        ablated = TwoStepEstimator(
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
            hlm_params=HlmParams(use_trend=False, hierarchical=False),
        )
        estimates = ablated.estimate_interval(interval, seed_speeds)
        assert len(estimates) == small_dataset.network.num_segments


class TestEdgeCases:
    def test_single_seed(self, small_dataset):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval = small_dataset.test_day_intervals()[20]
        road = small_dataset.network.road_ids()[0]
        speed = small_dataset.test.speed(road, interval)
        estimates = estimator.estimate_interval(interval, {road: speed})
        assert len(estimates) == small_dataset.network.num_segments
        assert estimates[road].is_seed

    def test_every_road_as_seed(self, small_dataset):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval = small_dataset.test_day_intervals()[20]
        truth = small_dataset.test.speeds_at(interval)
        estimates = estimator.estimate_interval(interval, dict(truth))
        assert all(e.is_seed for e in estimates.values())
        assert all(
            estimates[r].speed_kmh == truth[r] for r in truth
        )

    def test_zero_speed_seed_handled(self, small_dataset):
        """A fully blocked seed road (0 km/h) must not crash anything."""
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval = small_dataset.test_day_intervals()[20]
        roads = small_dataset.network.road_ids()
        seed_speeds = {roads[0]: 0.0, roads[5]: 30.0}
        estimates = estimator.estimate_interval(interval, seed_speeds)
        for road, est in estimates.items():
            if not est.is_seed:
                assert est.speed_kmh >= 2.0

    def test_changing_seed_sets_between_calls(self, small_dataset):
        """The caches must not leak across different seed sets."""
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval = small_dataset.test_day_intervals()[20]
        truth = small_dataset.test.speeds_at(interval)
        roads = small_dataset.network.road_ids()
        set_a = {r: truth[r] for r in roads[:5]}
        set_b = {r: truth[r] for r in roads[5:10]}
        a1 = estimator.estimate_interval(interval, set_a)
        b1 = estimator.estimate_interval(interval, set_b)
        a2 = estimator.estimate_interval(interval, set_a)
        assert a1 == a2
        assert {r for r, e in a1.items() if e.is_seed} != {
            r for r, e in b1.items() if e.is_seed
        }


class TestEstimateRoads:
    def test_subset_matches_full_run(self, small_dataset, round_data):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval, _, seed_speeds = round_data
        full = estimator.estimate_interval(interval, seed_speeds)
        subset = small_dataset.network.road_ids()[20:30]
        partial = estimator.estimate_roads(interval, seed_speeds, subset)
        assert set(partial) == set(subset)
        for road in subset:
            assert partial[road] == full[road]

    def test_duplicates_collapse(self, small_dataset, round_data):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval, _, seed_speeds = round_data
        road = small_dataset.network.road_ids()[25]
        partial = estimator.estimate_roads(
            interval, seed_speeds, [road, road, road]
        )
        assert list(partial) == [road]

    def test_validation(self, small_dataset, round_data):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval, _, seed_speeds = round_data
        with pytest.raises(InferenceError, match="at least one road"):
            estimator.estimate_roads(interval, seed_speeds, [])
        with pytest.raises(InferenceError, match="not in correlation graph"):
            estimator.estimate_roads(interval, seed_speeds, [999999])

    def test_unknown_road_error_reports_full_count(self, small_dataset, round_data):
        """The error counts every unknown road, not just the listed few."""
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval, _, seed_speeds = round_data
        known = small_dataset.network.road_ids()[:2]
        unknown = list(range(900000, 900008))
        with pytest.raises(
            InferenceError, match=r"8 of 10 requested roads"
        ) as excinfo:
            estimator.estimate_roads(interval, seed_speeds, known + unknown)
        # Only the first five are spelled out.
        assert "900004" in str(excinfo.value)
        assert "900005" not in str(excinfo.value)

    def test_unknown_duplicates_counted_once(self, small_dataset, round_data):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        interval, _, seed_speeds = round_data
        with pytest.raises(InferenceError, match=r"1 of 1 requested roads"):
            estimator.estimate_roads(
                interval, seed_speeds, [999999, 999999, 999999]
            )


class TestServingPath:
    def test_plan_matches_scalar_oracle(self, small_dataset, round_data):
        """Compiled-plan serving equals the per-road oracle to 1e-9."""
        interval, _, seed_speeds = round_data
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        oracle = ScalarTwoStep(
            small_dataset.store, small_dataset.graph, estimator.hlm
        )
        ev = estimator.estimate_interval(interval, seed_speeds)
        es = oracle.estimate_interval(interval, seed_speeds)
        assert set(ev) == set(es)
        for road in ev:
            assert ev[road].speed_kmh == pytest.approx(
                es[road].speed_kmh, abs=1e-9
            )
        assert estimator.plan_cache.stats().misses == 1


class TestSpeedEstimateType:
    """The tuple-backed SpeedEstimate keeps dataclass-era guarantees."""

    def make(self, **overrides):
        from repro.core.types import SpeedEstimate

        fields = dict(
            road_id=1,
            interval=0,
            speed_kmh=42.0,
            trend=Trend.RISE,
            trend_probability=0.75,
        )
        fields.update(overrides)
        return SpeedEstimate(**fields)

    def test_constructor_validates_probability(self):
        with pytest.raises(ValueError):
            self.make(trend_probability=1.5)
        with pytest.raises(ValueError):
            self.make(trend_probability=-0.1)

    def test_replace_validates_probability(self):
        """Regression: _replace's _make path calls tuple.__new__
        directly and skipped the range check."""
        est = self.make()
        with pytest.raises(ValueError):
            est.replace(trend_probability=1.5)

    def test_replace_derives_modified_copy(self):
        est = self.make()
        flagged = est.replace(degraded=True)
        assert flagged.degraded and not est.degraded
        assert flagged.speed_kmh == est.speed_kmh
        assert flagged != est and est == self.make()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.make().speed_kmh = 3.0
