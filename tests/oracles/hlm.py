"""The per-road Step-2 definition: the reference for the batched fits.

:class:`ScalarSeedRegression` fits one road's joint ridge regression on
its ranked seeds with its own gather, ``XᵀX``, trace and solve, and
memoises it per (road, seed set): the form
:class:`~repro.speed.hlm.JointSeedRegression` replaced with one batched
kernel. :meth:`ScalarHlm.estimate_road` is the per-road speed that
compiled interval plans evaluate in arrays.

The kernel sums its Gram entries, traces and quadratic forms in another
order than this oracle, so fits agree to a relative tolerance, not bit
for bit (``tests/test_batched_fits.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.store import HistoricalSpeedStore
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.trend.model import TrendPosterior


@dataclass(frozen=True)
class RoadRegression:
    """A fitted joint ridge regression of one road on its seed set.

    ``seeds`` fixes the coefficient order; prediction for observed seed
    deviations ``d`` is ``1 + coefficients · (d − 1)``. ``weight`` is the
    blend weight derived from the in-sample R² (signal-to-noise form
    R² / (1 − R²), capped). ``residual_std`` is the in-sample residual
    std of the deviation-ratio regression.
    """

    seeds: tuple[int, ...]
    coefficients: np.ndarray
    r_squared: float
    weight: float
    residual_std: float = 0.0

    def predict(self, seed_deviations: dict[int, float]) -> float:
        residuals = np.array(
            [seed_deviations[seed] - 1.0 for seed in self.seeds]
        )
        return float(1.0 + self.coefficients @ residuals)


class ScalarSeedRegression:
    """Per-road joint ridge regressions, fitted one road at a time.

    For road ``r`` with influencing seeds ``S`` (capped at
    ``max_seeds_per_road`` by fidelity, ties by seed id), solves::

        γ = argmin ‖y − Xγ‖² + λ‖γ‖²,   λ = ridge_alpha · tr(XᵀX)/|S|

    on the centred historical deviation matrix, once per (road, seed
    set) pair.
    """

    def __init__(self, store: HistoricalSpeedStore, params: HlmParams) -> None:
        self.params = params
        self._centred = store.deviation_matrix() - 1.0
        self._norms = (self._centred * self._centred).sum(axis=0)
        self._column = {road: i for i, road in enumerate(store.road_ids)}
        self._cache: dict[tuple[int, tuple[int, ...]], RoadRegression] = {}

    def for_road(
        self, road: int, influence: dict[int, float]
    ) -> RoadRegression | None:
        """The fitted regression of ``road`` on its influencing seeds.

        Returns None when no seed influences the road (the caller then
        uses the prior alone).
        """
        if not influence:
            return None
        ranked = sorted(influence.items(), key=lambda kv: (-kv[1], kv[0]))
        seeds = tuple(
            seed for seed, _ in ranked[: self.params.max_seeds_per_road]
        )
        key = (road, seeds)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        road_col = self._column.get(road)
        if road_col is None:
            raise InferenceError(f"road {road} not in historical store")
        seed_cols = []
        for seed in seeds:
            col = self._column.get(seed)
            if col is None:
                raise InferenceError(f"seed road {seed} not in historical store")
            seed_cols.append(col)

        x = self._centred[:, seed_cols]
        y = self._centred[:, road_col]
        gram = x.T @ x
        m = len(seeds)
        lam = self.params.ridge_alpha * float(np.trace(gram)) / m
        gram_reg = gram + lam * np.eye(m)
        moment = x.T @ y
        try:
            coefficients = np.linalg.solve(gram_reg, moment)
        except np.linalg.LinAlgError:
            coefficients = np.linalg.lstsq(gram_reg, moment, rcond=None)[0]
        total = float(self._norms[road_col])
        if total <= 1e-12:
            r_squared = 0.0
        else:
            r_squared = float(np.clip((coefficients @ moment) / total, 0.0, 0.999))
        weight = min(
            self.params.max_regression_weight, r_squared / (1.0 - r_squared)
        )
        rss = float(
            total - 2.0 * (coefficients @ moment) + coefficients @ gram @ coefficients
        )
        residual_std = float(np.sqrt(max(rss, 0.0) / x.shape[0]))
        fitted = RoadRegression(
            seeds=seeds,
            coefficients=coefficients,
            r_squared=r_squared,
            weight=weight,
            residual_std=residual_std,
        )
        self._cache[key] = fitted
        return fitted


class ScalarHlm:
    """Step 2 road by road over a fitted model's hierarchy.

    Uses the model's params, hierarchy, store and network, and its own
    :class:`ScalarSeedRegression` for the seed regressions.
    """

    def __init__(self, hlm: HierarchicalLinearModel) -> None:
        self.params = hlm.params
        self.hierarchy = hlm.hierarchy
        self._store = hlm.store
        self._network = hlm.network
        self.regression = ScalarSeedRegression(hlm.store, hlm.params)

    def estimate_road(
        self,
        road_id: int,
        interval: int,
        posterior: TrendPosterior,
        seed_deviations: dict[int, float],
        seed_trends: dict[int, Trend],
        influence: dict[int, float],
    ) -> float:
        """Predicted speed (km/h) for one non-seed road.

        ``seed_deviations`` maps seed road -> observed deviation ratio;
        ``influence`` maps seed road -> best-path fidelity q(seed→road),
        already floor-filtered by the caller.
        """
        del seed_trends  # trend information enters through the posterior
        params = self.params
        bucket = self._store.grid.bucket_of(interval)

        if params.use_trend:
            p_rise = posterior.p_rise(road_id)
            map_trend = Trend.RISE if p_rise >= 0.5 else Trend.FALL
            prior_mean = self._prior_mean(road_id, bucket, map_trend)
            # A confident posterior makes the trend-conditional prior
            # trustworthy; an uncertain one should barely steer.
            confidence = 2.0 * max(p_rise, 1.0 - p_rise) - 1.0
            prior_weight = params.prior_weight * (0.25 + 0.75 * confidence)
        else:
            prior_mean = 1.0
            prior_weight = params.prior_weight

        fitted = self.regression.for_road(road_id, influence)
        if fitted is None:
            predicted_deviation = prior_mean
        else:
            missing = [s for s in fitted.seeds if s not in seed_deviations]
            if missing:
                raise InferenceError(
                    f"influencing seeds {missing[:3]} have no observation"
                )
            regressed = fitted.predict(seed_deviations)
            predicted_deviation = (
                prior_weight * prior_mean + fitted.weight * regressed
            ) / (prior_weight + fitted.weight)

        historical = self._store.historical_speed(road_id, interval)
        speed = predicted_deviation * historical
        return self.clamp(road_id, speed)

    def _prior_mean(self, road_id: int, bucket: int, trend: Trend) -> float:
        if self.params.hierarchical:
            return self.hierarchy.conditional_mean(road_id, bucket, trend)
        return self.hierarchy.global_mean(trend)

    def clamp(self, road_id: int, speed: float) -> float:
        """``speed`` clamped to the road's physical limits."""
        segment = self._network.segment(road_id)
        upper = segment.free_flow_kmh * self.params.max_over_free_flow
        return float(min(upper, max(self.params.min_speed_kmh, speed)))
