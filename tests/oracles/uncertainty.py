"""The per-road band loop: the reference for plan-column prediction bands.

Also :func:`normal_confidences`, the confidence levels the band tests
sweep.
"""

from __future__ import annotations

from repro.core.types import SpeedEstimate
from repro.history.store import HistoricalSpeedStore
from repro.speed.estimator import TwoStepEstimator
from repro.speed.plan import compile_seed_structure
from repro.speed.uncertainty import _Z_BY_CONFIDENCE, SpeedBand, z_for_confidence


class ScalarBands:
    """Prediction bands by one regression lookup per road.

    Same constructor and ``bands_for`` as
    :class:`~repro.speed.uncertainty.UncertaintyModel`, but each
    non-seed road is fitted on its own, as a one-road batch of the
    production kernel under the round's seed tuple, to recover its
    residual std, and reads its historical speed from the store, instead
    of gathering both from the compiled plan. A row's fit does not
    depend on the batch it is fitted in, so the bands stay bitwise
    equal to the plan's.
    """

    def __init__(
        self,
        estimator: TwoStepEstimator,
        store: HistoricalSpeedStore,
        confidence: float = 0.90,
        seed_observation_std_kmh: float = 1.0,
        degraded_inflation: float = 1.5,
    ) -> None:
        self._estimator = estimator
        self._store = store
        self._confidence = confidence
        self._z = z_for_confidence(confidence)
        self._seed_std = seed_observation_std_kmh
        self._degraded_inflation = degraded_inflation
        self._prior_dev_std = store.deviation_matrix().std(axis=0)
        self._column = {road: i for i, road in enumerate(store.road_ids)}

    def bands_for(
        self,
        estimates: dict[int, SpeedEstimate],
        seed_speeds: dict[int, float],
    ) -> dict[int, SpeedBand]:
        influence_by_road = self._estimator.influence_index(set(seed_speeds))
        hlm = self._estimator.hlm
        moments = hlm.regression.moments(tuple(sorted(seed_speeds)))
        bands: dict[int, SpeedBand] = {}
        for road, estimate in estimates.items():
            if estimate.is_seed:
                std_kmh = self._seed_std
            else:
                (batch,) = moments.gather([(road,)], influence_by_road)
                fitted = compile_seed_structure(hlm.params, batch)
                historical = self._store.historical_speed(
                    road, estimate.interval
                )
                if fitted.has_reg[0]:
                    dev_std = float(fitted.residual_std[0])
                else:
                    dev_std = float(self._prior_dev_std[self._column[road]])
                std_kmh = max(0.1, dev_std * historical)
            if estimate.degraded:
                std_kmh *= self._degraded_inflation
            margin = self._z * std_kmh
            bands[road] = SpeedBand(
                road_id=road,
                interval=estimate.interval,
                speed_kmh=estimate.speed_kmh,
                lower_kmh=max(0.0, estimate.speed_kmh - margin),
                upper_kmh=estimate.speed_kmh + margin,
                std_kmh=std_kmh,
                confidence=self._confidence,
            )
        return bands


def normal_confidences() -> list[float]:
    """Supported confidence levels."""
    return sorted(_Z_BY_CONFIDENCE)
