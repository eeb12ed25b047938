"""The per-road Step-2 solve: the reference for compiled interval plans."""

from __future__ import annotations

from repro.core.types import SpeedEstimate, Trend
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.speed.hlm import HierarchicalLinearModel
from repro.trend.model import TrendModel
from repro.trend.propagation import TrendPropagationInference
from tests.oracles.fidelity import influence_index
from tests.oracles.hlm import ScalarHlm


class ScalarTwoStep:
    """Step 1 as in production, then one ``estimate_road`` call per road.

    Step 2 runs through :class:`~tests.oracles.hlm.ScalarHlm` over the
    given model's hierarchy, fitting each road's regression on its own.

    Mirrors :class:`~repro.speed.estimator.TwoStepEstimator`'s
    ``estimate_interval``/``estimate_roads`` so a test can serve the
    same rounds through both. The influence index is built from the
    scalar rows of :mod:`tests.oracles.fidelity`; the Step-1 posterior
    comes from ``trend_inference`` (the production propagation method by
    default), so a comparison isolates Step 2.
    """

    def __init__(
        self,
        store: HistoricalSpeedStore,
        graph: CorrelationGraph,
        hlm: HierarchicalLinearModel,
        trend_inference: object | None = None,
    ) -> None:
        self._store = store
        self._graph = graph
        self._hlm = hlm
        self._scalar = ScalarHlm(hlm)
        self._trend_model = TrendModel(graph, store)
        self._inference = trend_inference or TrendPropagationInference(
            min_fidelity=hlm.params.min_fidelity
        )
        self._influence: dict[frozenset[int], dict[int, dict[int, float]]] = {}

    def estimate_interval(
        self, interval: int, seed_speeds: dict[int, float]
    ) -> dict[int, SpeedEstimate]:
        return self._estimate(interval, seed_speeds, self._graph.road_ids)

    def estimate_roads(
        self, interval: int, seed_speeds: dict[int, float], roads: list[int]
    ) -> dict[int, SpeedEstimate]:
        return self._estimate(interval, seed_speeds, sorted(set(roads)))

    def influence_index(self, seeds) -> dict[int, dict[int, float]]:
        """road id -> {seed -> fidelity}, seeds in sorted order."""
        key = frozenset(seeds)
        index = self._influence.get(key)
        if index is None:
            index = self._influence[key] = influence_index(
                self._graph, key, self._hlm.params.min_fidelity
            )
        return index

    def _estimate(
        self, interval: int, seed_speeds: dict[int, float], roads
    ) -> dict[int, SpeedEstimate]:
        bucket = self._store.grid.bucket_of(interval)
        seed_trends: dict[int, Trend] = {}
        seed_deviations: dict[int, float] = {}
        for road, speed in seed_speeds.items():
            historical = self._store.mean(road, bucket)
            seed_trends[road] = Trend.RISE if speed >= historical else Trend.FALL
            seed_deviations[road] = speed / historical
        posterior = self._inference.infer(
            self._trend_model.instance(interval, seed_trends)
        )
        influence_by_road = self.influence_index(seed_speeds)

        estimates: dict[int, SpeedEstimate] = {}
        for road in roads:
            if road in seed_speeds:
                trend = seed_trends[road]
                estimates[road] = SpeedEstimate(
                    road_id=road,
                    interval=interval,
                    speed_kmh=seed_speeds[road],
                    trend=trend,
                    trend_probability=1.0 if trend is Trend.RISE else 0.0,
                    is_seed=True,
                )
                continue
            speed = self._scalar.estimate_road(
                road,
                interval,
                posterior,
                seed_deviations,
                seed_trends,
                influence_by_road.get(road, {}),
            )
            p_rise = posterior.p_rise(road)
            estimates[road] = SpeedEstimate(
                road_id=road,
                interval=interval,
                speed_kmh=speed,
                trend=Trend.RISE if p_rise >= 0.5 else Trend.FALL,
                trend_probability=p_rise,
            )
        return estimates
