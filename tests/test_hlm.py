"""Unit tests for the hierarchical linear model (Step 2)."""

import numpy as np
import pytest

from repro.core.errors import DataError, InferenceError
from repro.core.types import Trend
from repro.speed.hlm import (
    HierarchicalLinearModel,
    HlmParams,
    JointSeedRegression,
    fit_batch,
)
from repro.speed.plan import compile_seed_structure
from repro.trend.model import TrendPosterior
from tests.oracles import ScalarHlm


@pytest.fixture(scope="module")
def hlm(small_dataset):
    """The per-road Step-2 definition over a fitted model."""
    return ScalarHlm(
        HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, small_dataset.graph
        )
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


def fit_one(store, params, road, influence, seeds=None):
    """``road``'s row from the batched kernel, fitted as a one-road batch."""
    seeds = tuple(sorted(influence)) if seeds is None else seeds
    (batch,) = JointSeedRegression(store, params).moments(seeds).gather(
        [(road,)], {road: influence}
    )
    return seeds, batch, fit_batch(params, batch)


def chosen_seeds(seeds, fits):
    return [seeds[k] for k in fits.seed_idx[0] if k < len(seeds)]


class TestJointSeedRegression:
    def test_single_seed_close_to_marginal(self, small_dataset):
        """With one seed and tiny ridge, joint slope ≈ marginal OLS slope."""
        store = small_dataset.store
        seed, target = store.road_ids[3], store.road_ids[8]
        centred = store.deviation_matrix() - 1.0
        x = centred[:, store.road_column(seed)]
        y = centred[:, store.road_column(target)]
        _, _, fits = fit_one(store, HlmParams(ridge_alpha=1e-9), target, {seed: 0.5})
        assert fits.has_reg[0]
        assert fits.coef[0, 0] == pytest.approx(float(x @ y / (x @ x)), abs=1e-6)

    def test_no_influence_returns_none(self, small_dataset):
        store = small_dataset.store
        _, batch, fits = fit_one(
            store, HlmParams(), store.road_ids[0], {}, seeds=(store.road_ids[1],)
        )
        assert batch.rows_fitted == 0
        assert not fits.has_reg[0]
        assert fits.weight[0] == 0.0 and fits.residual_std[0] == 0.0

    def test_caps_seed_count(self, small_dataset):
        store = small_dataset.store
        influence = {s: 0.5 for s in store.road_ids[1:10]}
        seeds, _, fits = fit_one(
            store, HlmParams(max_seeds_per_road=3), store.road_ids[0], influence
        )
        assert len(chosen_seeds(seeds, fits)) == 3

    def test_keeps_highest_fidelity_seeds(self, small_dataset):
        store = small_dataset.store
        influence = {
            store.road_ids[1]: 0.9,
            store.road_ids[2]: 0.1,
            store.road_ids[3]: 0.8,
        }
        seeds, _, fits = fit_one(
            store, HlmParams(max_seeds_per_road=2), store.road_ids[0], influence
        )
        assert chosen_seeds(seeds, fits) == [store.road_ids[1], store.road_ids[3]]

    def test_r_squared_bounds(self, small_dataset):
        """The weight R²/(1 − R²) of an R² in [0, 0.999], capped."""
        store = small_dataset.store
        params = HlmParams()
        _, _, fits = fit_one(
            store, params, store.road_ids[0], {s: 0.5 for s in store.road_ids[1:6]}
        )
        assert 0.0 <= fits.weight[0] <= params.max_regression_weight
        assert fits.residual_std[0] >= 0.0

    def test_predict_neutral_for_neutral_seeds(self, small_dataset):
        store = small_dataset.store
        params = HlmParams()
        seeds, batch, _ = fit_one(
            store, params, store.road_ids[0], {s: 0.5 for s in store.road_ids[1:4]}
        )
        structure = compile_seed_structure(params, batch)
        regressed, _ = structure.regressed(np.ones(len(seeds)))
        assert regressed[0] == pytest.approx(1.0)

    def test_refit_per_seed_set_is_bitwise(self, small_dataset):
        """No memo: a refit in a fresh kernel has the same bits."""
        store = small_dataset.store
        influence = {store.road_ids[1]: 0.5, store.road_ids[4]: 0.3}
        _, _, a = fit_one(store, HlmParams(), store.road_ids[0], influence)
        _, _, b = fit_one(store, HlmParams(), store.road_ids[0], influence)
        for got, want in zip(a, b):
            assert got.tobytes() == want.tobytes()


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
        fitted = HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, params=params
        )
        hlm = ScalarHlm(fitted)
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
        fitted = HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, params=params
        )
        hlm = ScalarHlm(fitted)
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
                hlm.clamp(road, expected), rel=1e-9
            )
