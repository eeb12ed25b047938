"""The Step-2 hierarchical linear model: trends + seeds → speeds.

Given the Step-1 trend posterior and the crowdsourced seed speeds, each
non-seed road's deviation ratio is predicted as a precision-weighted
linear blend of two evidence sources:

1. **The hierarchical prior** — the trend-conditional deviation mean
   from :class:`~repro.speed.hierarchy.DeviationHierarchy`, weighted by
   ``prior_weight``. This is what the road "usually does" when its trend
   is the inferred one, and it carries the estimate wherever seed
   influence is thin.
2. **Regressed seed deviations** — for every seed ``u`` whose influence
   reaches road ``r`` (best-path fidelity ≥ the floor), the no-intercept
   linear regression ``(d_r − 1) ≈ β_ru (d_u − 1)`` fitted on the
   training history projects the seed's observed deviation onto ``r``.
   The seed's weight is the regression's **R²** — how much of ``r``'s
   historical variance that seed actually explains — scaled by **trend
   consistency**: the posterior probability that ``r`` shares the seed's
   observed trend. A seed contradicting the inferred trend is softly
   down-weighted rather than dropped.

Each road's joint regression on its seed set is fitted once and cached,
so fitting cost is paid once per (road, seed set) — matching the
production pattern where one seed set serves many intervals.

The predicted speed is ``d̂_r × historical_mean_r(bucket)``, clamped to
physical limits. Ablation switches reproduce experiments F7a (skip the
trend machinery entirely) and F7b (flat, non-hierarchical prior).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.errors import DataError, InferenceError
from repro.core.types import Trend
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.speed.hierarchy import DeviationHierarchy
from repro.trend.model import TrendPosterior


@dataclass(frozen=True)
class HlmParams:
    """Tuning knobs of the hierarchical linear model."""

    prior_weight: float = 1.0
    min_fidelity: float = 0.05
    shrinkage_kappa: float = 8.0
    slope_clip: float = 1.5
    ridge_alpha: float = 0.1
    max_seeds_per_road: int = 12
    max_regression_weight: float = 25.0
    max_over_free_flow: float = 1.2
    min_speed_kmh: float = 2.0
    #: F7a ablation: ignore trends (flat prior at 1.0, no consistency weights).
    use_trend: bool = True
    #: F7b ablation: replace the hierarchy with the global trend mean.
    hierarchical: bool = True

    def __post_init__(self) -> None:
        if self.prior_weight < 0:
            raise DataError("prior_weight must be >= 0")
        if not 0.0 < self.min_fidelity < 1.0:
            raise DataError("min_fidelity must be in (0, 1)")
        if self.slope_clip <= 0:
            raise DataError("slope_clip must be positive")
        if self.ridge_alpha < 0:
            raise DataError("ridge_alpha must be >= 0")
        if self.max_seeds_per_road < 1:
            raise DataError("max_seeds_per_road must be >= 1")


@dataclass(frozen=True)
class RoadRegression:
    """A fitted joint ridge regression of one road on its seed set.

    ``seeds`` fixes the coefficient order; prediction for observed seed
    deviations ``d`` is ``1 + coefficients · (d − 1)``. ``weight`` is the
    blend weight derived from the in-sample R² (signal-to-noise form
    R² / (1 − R²), capped), so well-explained roads trust the regression
    and poorly-explained roads fall back to the hierarchical prior.
    """

    seeds: tuple[int, ...]
    coefficients: np.ndarray
    r_squared: float
    weight: float
    #: In-sample residual std of the deviation-ratio regression; the
    #: basis of this road's prediction interval (see speed.uncertainty).
    residual_std: float = 0.0

    def predict(self, seed_deviations: dict[int, float]) -> float:
        residuals = np.array(
            [seed_deviations[seed] - 1.0 for seed in self.seeds]
        )
        return float(1.0 + self.coefficients @ residuals)


class JointSeedRegression:
    """Fits and caches per-road joint ridge regressions.

    For road ``r`` with influencing seeds ``S`` (capped at
    ``max_seeds_per_road`` by fidelity), solves::

        γ = argmin ‖y − Xγ‖² + λ‖γ‖²,   λ = ridge_alpha · tr(XᵀX)/|S|

    on the centred historical deviation matrix. One fit per (road, seed
    set) pair — in the production pattern of a fixed daily seed set this
    is a single pass over the network.
    """

    def __init__(self, store: HistoricalSpeedStore, params: HlmParams) -> None:
        self._params = params
        self._centred = store.deviation_matrix() - 1.0
        self._norms = (self._centred * self._centred).sum(axis=0)
        self._column = {road: i for i, road in enumerate(store.road_ids)}
        self._cache: dict[tuple[int, tuple[int, ...]], RoadRegression] = {}

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], params: HlmParams
    ) -> "JointSeedRegression":
        """Rebuild a regression from its pre-centred deviation matrix.

        The builder of the worker pool's ``"plan"`` context
        (:class:`~repro.speed.plan.IntervalPlanner`): the parent exports
        ``arrays["centred"]`` (its ``deviation_matrix() - 1.0``,
        bit-identical through shared memory) and the store's column
        order ``arrays["road_ids"]``, so every fit a worker produces is
        bitwise equal to the parent's — identical C-contiguous inputs
        through the same BLAS/LAPACK calls.
        """
        centred = arrays["centred"]
        self = cls.__new__(cls)
        self._params = params
        self._centred = centred
        self._norms = (centred * centred).sum(axis=0)
        self._column = {int(road): i for i, road in enumerate(arrays["road_ids"])}
        self._cache = {}
        return self

    @property
    def params(self) -> HlmParams:
        return self._params

    @property
    def centred(self) -> np.ndarray:
        """The centred history matrix (``deviation_matrix() - 1.0``)."""
        return self._centred

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
            seed for seed, _ in ranked[: self._params.max_seeds_per_road]
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
        lam = self._params.ridge_alpha * float(np.trace(gram)) / m
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
            self._params.max_regression_weight, r_squared / (1.0 - r_squared)
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
        # Cache misses only: once a (road, seed set) is fitted the hot
        # path never reaches this line again.
        get_recorder().count("speed.hlm.regression_fits")
        return fitted


class HierarchicalLinearModel:
    """The fitted Step-2 model. Build with :meth:`fit`."""

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hierarchy: DeviationHierarchy,
        regression: JointSeedRegression,
        params: HlmParams,
    ) -> None:
        self._store = store
        self._network = network
        self._hierarchy = hierarchy
        self._regression = regression
        self._params = params

    @classmethod
    def fit(
        cls,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        graph: CorrelationGraph | None = None,
        params: HlmParams | None = None,
    ) -> "HierarchicalLinearModel":
        """Fit hierarchy and seed regressions from the historical store.

        ``graph`` is accepted for interface symmetry with the rest of the
        pipeline but is not needed: regressions are fitted per seed on
        demand, against whatever roads that seed influences.
        """
        del graph
        params = params or HlmParams()
        with get_recorder().span("speed.hlm.fit", roads=len(store.road_ids)):
            hierarchy = DeviationHierarchy(
                store, network, kappa=params.shrinkage_kappa
            )
            regression = JointSeedRegression(store, params)
            return cls(store, network, hierarchy, regression, params)

    @property
    def params(self) -> HlmParams:
        return self._params

    @property
    def hierarchy(self) -> DeviationHierarchy:
        return self._hierarchy

    @property
    def regression(self) -> JointSeedRegression:
        return self._regression

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
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
        params = self._params
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

        fitted = self._regression.for_road(road_id, influence)
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
        return self._clamp(road_id, speed)

    def _prior_mean(self, road_id: int, bucket: int, trend: Trend) -> float:
        if self._params.hierarchical:
            return self._hierarchy.conditional_mean(road_id, bucket, trend)
        return self._hierarchy.global_mean(trend)

    def _clamp(self, road_id: int, speed: float) -> float:
        segment = self._network.segment(road_id)
        upper = segment.free_flow_kmh * self._params.max_over_free_flow
        return float(min(upper, max(self._params.min_speed_kmh, speed)))
