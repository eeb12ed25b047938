"""Prediction intervals for speed estimates.

A point estimate without a band is hard to act on: a navigation system
weighting routes, or an operator deciding whether to crowdsource more,
both need to know how sure the estimate is. The band comes from the
Step-2 regression itself:

* a road fitted on influencing seeds inherits its regression's
  **in-sample residual std** (deviation-ratio space);
* a road with no influence falls back to its **historical deviation
  std** — the prior's own spread.

Deviation stds convert to km/h through the road's historical bucket
mean, and a two-sided normal band of the requested confidence is
clamped to physical limits. The fitted residual stds and bucket means
are columns of the compiled :class:`~repro.speed.plan.IntervalPlan`
that produced the estimates, so a round's bands are a few array ops
over those columns and the estimates' own columns, returned as one
:class:`BandColumns`. The per-road loop that defines them, fitting
each road on its own through the batched regression kernel, is the test
oracle in ``tests/oracles/uncertainty.py``. Empirical coverage of the
nominal bands is verified in the test suite.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.columns import RoadColumns
from repro.core.errors import InferenceError
from repro.core.types import SpeedEstimate
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.speed.estimator import EstimateColumns, TwoStepEstimator

#: Two-sided normal quantiles for common confidence levels.
_Z_BY_CONFIDENCE = {0.80: 1.2816, 0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True, slots=True)
class SpeedBand:
    """A speed estimate with its prediction interval."""

    road_id: int
    interval: int
    speed_kmh: float
    lower_kmh: float
    upper_kmh: float
    std_kmh: float
    confidence: float

    @property
    def width_kmh(self) -> float:
        return self.upper_kmh - self.lower_kmh

    def contains(self, speed_kmh: float) -> bool:
        return self.lower_kmh <= speed_kmh <= self.upper_kmh


class BandColumns(RoadColumns):
    """One round's bands: a read-only ``Mapping[int, SpeedBand]``.

    Columns, aligned with ``road_ids``: ``speed``, ``lower``, ``upper``
    and ``std`` (km/h) and ``confidence``. A :class:`SpeedBand` is built
    only when a road is looked up.
    """

    FIELDS = (
        ("speed", "speed_kmh", np.float64),
        ("lower", "lower_kmh", np.float64),
        ("upper", "upper_kmh", np.float64),
        ("std", "std_kmh", np.float64),
        ("confidence", "confidence", np.float64),
    )
    COLUMNS = tuple(name for name, _, _ in FIELDS)
    __slots__ = COLUMNS

    def _record(self, i: int) -> SpeedBand:
        return SpeedBand(
            self.road_ids[i],
            self.interval,
            self.speed.item(i),
            self.lower.item(i),
            self.upper.item(i),
            self.std.item(i),
            self.confidence.item(i),
        )


class UncertaintyModel:
    """Attaches prediction intervals to a two-step estimator's output.

    ``store`` is the history ``estimator`` was fitted on: it supplies
    the prior-only deviation std, and the estimator's plans supply the
    bucket means the same store produced.
    """

    def __init__(
        self,
        estimator: TwoStepEstimator,
        store: HistoricalSpeedStore,
        confidence: float = 0.90,
        seed_observation_std_kmh: float = 1.0,
        degraded_inflation: float = 1.5,
    ) -> None:
        z = _Z_BY_CONFIDENCE.get(round(confidence, 2))
        if z is None:
            raise InferenceError(
                f"confidence must be one of {sorted(_Z_BY_CONFIDENCE)}, "
                f"got {confidence}"
            )
        if degraded_inflation < 1.0:
            raise InferenceError("degraded_inflation must be >= 1")
        self._estimator = estimator
        self._confidence = confidence
        self._z = z
        self._seed_std = seed_observation_std_kmh
        self._degraded_inflation = degraded_inflation
        # Per-road historical deviation std: the prior-only fallback.
        deviations = store.deviation_matrix()
        self._prior_dev_std = deviations.std(axis=0)
        self._column = {road: i for i, road in enumerate(store.road_ids)}

    @property
    def confidence(self) -> float:
        return self._confidence

    def bands_for(
        self,
        estimates: Mapping[int, SpeedEstimate],
        seed_speeds: dict[int, float],
    ) -> BandColumns | dict:
        """Prediction bands for one round's estimates.

        ``estimates`` is the output of ``estimate_interval`` or
        ``estimate_roads`` for the same ``seed_speeds`` (any mapping of
        one interval's estimates; non-columnar ones are converted
        first). The band columns are read from the compiled plan that
        served those estimates and the estimates' own columns: one
        gather per plan column when the roads are not in plan order,
        and no per-road objects.
        """
        if not estimates:
            return {}
        estimates = EstimateColumns.from_mapping(estimates)
        road_ids = estimates.road_ids
        n = len(road_ids)
        with get_recorder().span("speed.uncertainty.bands", roads=n):
            plan = self._estimator.plan_for(estimates.interval, seed_speeds)
            has_reg, residual_std, historical = (
                plan.has_reg, plan.residual_std, plan.historical
            )
            if not (road_ids is plan.road_ids or road_ids == plan.road_ids):
                rows = np.fromiter(map(plan.index.__getitem__, road_ids), np.int64, n)
                has_reg, residual_std, historical = (
                    has_reg[rows], residual_std[rows], historical[rows]
                )
            columns = np.fromiter(map(self._column.__getitem__, road_ids), np.int64, n)
            dev_std = np.where(has_reg, residual_std, self._prior_dev_std[columns])
            std = np.maximum(0.1, dev_std * historical)
            std = np.where(estimates.is_seed, self._seed_std, std)
            # A substituted seed observation is no real observation:
            # widen its band so consumers see the lower confidence.
            std = np.where(estimates.degraded, std * self._degraded_inflation, std)
            margin = self._z * std
            speed = estimates.speed
            return BandColumns(
                road_ids,
                estimates.interval,
                estimates.position,
                speed=speed,
                lower=np.maximum(0.0, speed - margin),
                upper=speed + margin,
                std=std,
                confidence=np.full(n, self._confidence),
            )

    def empirical_coverage(
        self,
        bands: dict[int, SpeedBand],
        true_speeds: dict[int, float],
        exclude_seeds: set[int] | None = None,
    ) -> float:
        """Fraction of non-seed true speeds inside their bands."""
        exclude = exclude_seeds or set()
        hits = []
        for road, band in bands.items():
            if road in exclude:
                continue
            truth = true_speeds.get(road)
            if truth is None:
                raise InferenceError(f"no true speed for road {road}")
            hits.append(band.contains(truth))
        if not hits:
            raise InferenceError("no non-seed roads to score")
        return float(np.mean(hits))


def sharpness_kmh(bands: dict[int, SpeedBand]) -> float:
    """Mean band width — the sharpness companion to coverage."""
    if not bands:
        raise InferenceError("no bands to summarise")
    return float(np.mean([band.width_kmh for band in bands.values()]))


def z_for_confidence(confidence: float) -> float:
    """The two-sided normal quantile used for a supported confidence."""
    z = _Z_BY_CONFIDENCE.get(round(confidence, 2))
    if z is None:
        raise InferenceError(f"unsupported confidence {confidence}")
    return z
