"""Unit tests for the hierarchical linear model (Step 2)."""

import numpy as np
import pytest

from repro.core.errors import DataError, InferenceError
from repro.core.types import Trend
from repro.speed.hlm import HierarchicalLinearModel, HlmParams, JointSeedRegression
from repro.trend.model import TrendPosterior


@pytest.fixture(scope="module")
def hlm(small_dataset):
    return HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph
    )


def flat_posterior(road_ids, p=0.5):
    return TrendPosterior(tuple(road_ids), np.full(len(road_ids), float(p)))


class TestHlmParams:
    def test_defaults_valid(self):
        HlmParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prior_weight": -1},
            {"min_fidelity": 0.0},
            {"min_fidelity": 1.0},
            {"slope_clip": 0},
            {"ridge_alpha": -0.1},
            {"max_seeds_per_road": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DataError):
            HlmParams(**kwargs)


class TestJointSeedRegression:
    def test_single_seed_close_to_marginal(self, small_dataset):
        """With one seed and tiny ridge, joint slope ≈ marginal OLS slope."""
        store = small_dataset.store
        joint = JointSeedRegression(store, HlmParams(ridge_alpha=1e-9))
        seed, target = store.road_ids[3], store.road_ids[8]
        centred = store.deviation_matrix() - 1.0
        x = centred[:, store.road_column(seed)]
        y = centred[:, store.road_column(target)]
        fitted = joint.for_road(target, {seed: 0.5})
        assert fitted is not None
        assert fitted.coefficients[0] == pytest.approx(
            float(x @ y / (x @ x)), abs=1e-6
        )

    def test_no_influence_returns_none(self, small_dataset):
        joint = JointSeedRegression(small_dataset.store, HlmParams())
        assert joint.for_road(small_dataset.store.road_ids[0], {}) is None

    def test_caps_seed_count(self, small_dataset):
        store = small_dataset.store
        joint = JointSeedRegression(store, HlmParams(max_seeds_per_road=3))
        influence = {s: 0.5 for s in store.road_ids[1:10]}
        fitted = joint.for_road(store.road_ids[0], influence)
        assert len(fitted.seeds) == 3

    def test_keeps_highest_fidelity_seeds(self, small_dataset):
        store = small_dataset.store
        joint = JointSeedRegression(store, HlmParams(max_seeds_per_road=2))
        influence = {
            store.road_ids[1]: 0.9,
            store.road_ids[2]: 0.1,
            store.road_ids[3]: 0.8,
        }
        fitted = joint.for_road(store.road_ids[0], influence)
        assert set(fitted.seeds) == {store.road_ids[1], store.road_ids[3]}

    def test_r_squared_bounds(self, small_dataset):
        store = small_dataset.store
        joint = JointSeedRegression(store, HlmParams())
        fitted = joint.for_road(
            store.road_ids[0], {s: 0.5 for s in store.road_ids[1:6]}
        )
        assert 0.0 <= fitted.r_squared < 1.0
        assert fitted.weight >= 0.0

    def test_predict_neutral_for_neutral_seeds(self, small_dataset):
        store = small_dataset.store
        joint = JointSeedRegression(store, HlmParams())
        fitted = joint.for_road(
            store.road_ids[0], {s: 0.5 for s in store.road_ids[1:4]}
        )
        neutral = {s: 1.0 for s in fitted.seeds}
        assert fitted.predict(neutral) == pytest.approx(1.0)

    def test_cached_per_seed_set(self, small_dataset):
        store = small_dataset.store
        joint = JointSeedRegression(store, HlmParams())
        influence = {store.road_ids[1]: 0.5}
        a = joint.for_road(store.road_ids[0], influence)
        b = joint.for_road(store.road_ids[0], influence)
        assert a is b


class TestEstimateRoad:
    def test_no_influence_uses_prior(self, small_dataset, hlm):
        store = small_dataset.store
        road = store.road_ids[0]
        interval = small_dataset.test_day_intervals()[30]
        posterior = flat_posterior(store.road_ids, p=0.9)
        speed = hlm.estimate_road(road, interval, posterior, {}, {}, {})
        bucket = small_dataset.grid.bucket_of(interval)
        expected = hlm.hierarchy.conditional_mean(
            road, bucket, Trend.RISE
        ) * store.historical_speed(road, interval)
        assert speed == pytest.approx(expected, rel=0.05)

    def test_falling_seeds_lower_estimate(self, small_dataset, hlm):
        store = small_dataset.store
        road = store.road_ids[0]
        neighbours = small_dataset.graph.neighbour_ids(road)[:3]
        interval = small_dataset.test_day_intervals()[30]
        posterior = flat_posterior(store.road_ids)
        influence = {s: 0.8 for s in neighbours}
        slow = hlm.estimate_road(
            road, interval, posterior,
            {s: 0.6 for s in neighbours},
            {s: Trend.FALL for s in neighbours},
            influence,
        )
        fast = hlm.estimate_road(
            road, interval, posterior,
            {s: 1.4 for s in neighbours},
            {s: Trend.RISE for s in neighbours},
            influence,
        )
        assert slow < fast

    def test_estimates_clamped(self, small_dataset, hlm):
        store = small_dataset.store
        road = store.road_ids[0]
        neighbours = small_dataset.graph.neighbour_ids(road)[:3]
        interval = small_dataset.test_day_intervals()[10]
        posterior = flat_posterior(store.road_ids)
        influence = {s: 0.9 for s in neighbours}
        crazy_fast = hlm.estimate_road(
            road, interval, posterior,
            {s: 10.0 for s in neighbours},
            {s: Trend.RISE for s in neighbours},
            influence,
        )
        upper = (
            small_dataset.network.segment(road).free_flow_kmh
            * hlm.params.max_over_free_flow
        )
        assert crazy_fast <= upper
        crazy_slow = hlm.estimate_road(
            road, interval, posterior,
            {s: 0.0001 for s in neighbours},
            {s: Trend.FALL for s in neighbours},
            influence,
        )
        assert crazy_slow >= hlm.params.min_speed_kmh

    def test_missing_observation_raises(self, small_dataset, hlm):
        store = small_dataset.store
        road = store.road_ids[0]
        neighbour = small_dataset.graph.neighbour_ids(road)[0]
        posterior = flat_posterior(store.road_ids)
        with pytest.raises(InferenceError):
            hlm.estimate_road(
                road, 0, posterior, {}, {}, {neighbour: 0.8}
            )

    def test_no_trend_ablation_ignores_posterior(self, small_dataset):
        params = HlmParams(use_trend=False)
        hlm = HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, params=params
        )
        store = small_dataset.store
        road = store.road_ids[0]
        interval = small_dataset.test_day_intervals()[30]
        confident_rise = flat_posterior(store.road_ids, 0.99)
        confident_fall = flat_posterior(store.road_ids, 0.01)
        a = hlm.estimate_road(road, interval, confident_rise, {}, {}, {})
        b = hlm.estimate_road(road, interval, confident_fall, {}, {}, {})
        assert a == b  # trend machinery fully disabled

    def test_flat_ablation_uses_global_mean(self, small_dataset):
        params = HlmParams(hierarchical=False)
        hlm = HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, params=params
        )
        store = small_dataset.store
        interval = small_dataset.test_day_intervals()[30]
        posterior = flat_posterior(store.road_ids, 0.99)
        for road in store.road_ids[:5]:
            speed = hlm.estimate_road(road, interval, posterior, {}, {}, {})
            expected = hlm.hierarchy.global_mean(
                Trend.RISE
            ) * store.historical_speed(road, interval)
            # Prior confidence scaling applies equally; ratio must match.
            assert speed == pytest.approx(
                hlm._clamp(road, expected), rel=1e-9
            )
