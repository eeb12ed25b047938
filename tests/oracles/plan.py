"""The whole-city Step-2 plan: the reference for compiled and refreshed plans.

:class:`~repro.speed.plan.IntervalPlanner` compiles a seed set's
structure as a refresh from the prior: it ranks every road's seeds,
fits only the rows whose ranked seeds differ from the structure's and
patches them in place, and after a graph delta refits only the rows
the delta re-ranked. This oracle fits every road in one gather and
one batch (:func:`compile_seed_structure`) and blends the whole city
with the arithmetic unchanged. Every plan the production planner
serves, cold or refreshed, must match it bit for bit.

:func:`oracle_estimator` builds a
:class:`~repro.speed.estimator.TwoStepEstimator` that serves rounds
through :class:`MonolithicPlanner`. The planner keeps no structure
cache and cannot be marked stale: build a fresh estimator after a
graph delta.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.store import HistoricalSpeedStore
from repro.roadnet.network import RoadNetwork
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import FitBatch, HierarchicalLinearModel, HlmParams, fit_batch
from repro.speed.plan import _SeedStructure


def compile_seed_structure(params: HlmParams, batch: FitBatch) -> _SeedStructure:
    """Fit every row of ``batch`` into a fresh structure, in batch order."""
    rows = np.arange(batch.rows.size)
    structure = _SeedStructure(batch.seeds, rows.size, batch.width)
    structure.patch(rows, fit_batch(params, batch))
    return structure


class MonolithicPlan:
    """One whole-city structure plus one bucket's overlays."""

    def __init__(
        self,
        road_ids: tuple[int, ...],
        index: dict[int, int],
        bucket: int,
        structure: _SeedStructure,
        prior_rise: np.ndarray,
        prior_fall: np.ndarray,
        historical: np.ndarray,
        upper: np.ndarray,
        min_speed: float,
        prior_weight: float,
        use_trend: bool,
    ) -> None:
        self.road_ids = road_ids
        self.index = index
        self.bucket = bucket
        self._structure = structure
        self._prior_rise = prior_rise
        self._prior_fall = prior_fall
        self.historical = historical
        self._upper = upper
        self._min_speed = min_speed
        self._prior_weight = prior_weight
        self._use_trend = use_trend

    @property
    def seeds(self) -> tuple[int, ...]:
        return self._structure.seeds

    @property
    def num_roads(self) -> int:
        return len(self.road_ids)

    @property
    def num_seeds(self) -> int:
        return len(self._structure.seeds)

    @property
    def has_reg(self) -> np.ndarray:
        return self._structure.has_reg

    @property
    def residual_std(self) -> np.ndarray:
        return self._structure.residual_std

    def evaluate(self, deviations: np.ndarray, p_rise: np.ndarray) -> np.ndarray:
        if p_rise.shape != (self.num_roads,):
            raise InferenceError(
                f"posterior vector has shape {p_rise.shape}, plan expects "
                f"({self.num_roads},)"
            )
        regressed, _ = self._structure.regressed(deviations)
        if self._use_trend:
            confidence = 2.0 * np.maximum(p_rise, 1.0 - p_rise) - 1.0
            prior_weight = self._prior_weight * (0.25 + 0.75 * confidence)
            prior_mean = np.where(p_rise >= 0.5, self._prior_rise, self._prior_fall)
        else:
            prior_weight = np.full(self.num_roads, self._prior_weight)
            prior_mean = np.ones(self.num_roads)
        weight = self._structure.reg_weight
        denominator = prior_weight + weight
        blend = prior_mean.copy()
        np.divide(
            prior_weight * prior_mean + weight * regressed,
            denominator,
            out=blend,
            where=denominator > 0.0,
        )
        predicted = np.where(self._structure.has_reg, blend, prior_mean)
        return np.minimum(
            self._upper, np.maximum(self._min_speed, predicted * self.historical)
        )


class MonolithicPlanner:
    """Compiles :class:`MonolithicPlan` objects: one structure per city."""

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hlm: HierarchicalLinearModel,
        road_ids,
    ) -> None:
        self._store = store
        self._hlm = hlm
        self._road_ids = tuple(road_ids)
        self._index = {road: i for i, road in enumerate(self._road_ids)}
        self._columns = np.array(
            [store.road_column(road) for road in self._road_ids], dtype=np.int64
        )
        self._upper = np.array(
            [network.segment(road).free_flow_kmh for road in self._road_ids]
        ) * hlm.params.max_over_free_flow

    def evict_structures(self, roads=None) -> int:
        """Nothing to evict: every compile builds its structure afresh."""
        return 0

    def compile(self, seeds, bucket, influence_provider) -> MonolithicPlan:
        params = self._hlm.params
        seeds = tuple(seeds)
        moments = self._hlm.regression.moments(seeds, self._road_ids)
        batch = moments.gather(
            np.arange(len(self._road_ids)), moments.rank(influence_provider())
        )
        structure = compile_seed_structure(params, batch)
        hierarchy = self._hlm.hierarchy
        if params.use_trend and params.hierarchical:
            prior_rise = hierarchy.conditional_mean_row(bucket, Trend.RISE)[
                self._columns
            ]
            prior_fall = hierarchy.conditional_mean_row(bucket, Trend.FALL)[
                self._columns
            ]
        else:
            prior_rise = np.full(len(self._road_ids), hierarchy.global_mean(Trend.RISE))
            prior_fall = np.full(len(self._road_ids), hierarchy.global_mean(Trend.FALL))
        return MonolithicPlan(
            road_ids=self._road_ids,
            index=self._index,
            bucket=bucket,
            structure=structure,
            prior_rise=prior_rise,
            prior_fall=prior_fall,
            historical=self._store.bucket_mean_row(bucket)[self._columns],
            upper=self._upper,
            min_speed=params.min_speed_kmh,
            prior_weight=params.prior_weight,
            use_trend=params.use_trend,
        )


def oracle_estimator(network, store, graph, **kwargs) -> TwoStepEstimator:
    """A :class:`~repro.speed.estimator.TwoStepEstimator` whose Step 2
    is served through :class:`MonolithicPlanner` (``kwargs`` as the
    estimator's)."""
    estimator = TwoStepEstimator(network, store, graph, **kwargs)
    estimator._planner = MonolithicPlanner(
        store, network, estimator.hlm, graph.road_ids
    )
    return estimator
