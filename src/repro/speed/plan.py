"""Compiled interval plans: the Step-2 serving path.

Step 2 is defined per road by ``estimate_road`` (the test oracle in
``tests/oracles/hlm.py``). Calling it in a per-road loop re-does the
same bookkeeping every interval: rank a road's influencing seeds, fit
or look up its joint regression, fetch two trend-conditional prior
means, blend, clamp. For a fixed (seed set, time bucket) none of that
structure changes — only the observed seed deviations and the Step-1
posterior do. This module compiles the structure once so serving an
interval becomes a handful of array ops:

* :class:`_SeedStructure` — the seed-dependent half of a plan, shared
  by every bucket: each road's fitted regression row packed into a
  padded ``(roads, max_seeds_per_road)`` coefficient block (a
  CSR-in-disguise whose rows have at most ``max_seeds_per_road``
  entries), the per-road regression blend weights, and a per-seed
  reverse index of the rows each seed touches. It also carries the
  **incremental state**: the last seed-deviation vector and the
  regressed predictions it produced, so consecutive intervals that
  change only a few seed observations (a degraded round substituting a
  seed, a sentinel round) recompute only the affected rows — bit-for-bit
  identical to a cold evaluation, because affected rows are re-evaluated
  with the same row reduction rather than patched with float deltas.
* :class:`IntervalPlan` — one ``_SeedStructure`` over the whole road
  order plus one bucket's overlay (trend-conditional prior means,
  historical bucket-mean speeds, clamp bounds).
  :meth:`IntervalPlan.evaluate` turns a deviation vector and a posterior
  array into clamped speeds: one padded-row gather-multiply-reduce, a
  vectorized posterior-confidence blend, one multiply by the historical
  speeds, one clip. The plan also exposes the per-row band columns
  (``has_reg``, ``residual_std``, ``historical``) that
  :meth:`~repro.speed.uncertainty.UncertaintyModel.bands_for` turns
  into prediction intervals without refitting anything.
* :class:`IntervalPlanner` — the one Step-2 plan cache of a fitted
  system: the structure and bucket plans of the seed set served last
  and of at most one set that contains it or that it contains (a
  sentinel round's subset); an unrelated set releases the others. A
  structure's compile is a refresh from the prior (every row unfitted):
  :meth:`~repro.speed.hlm.SeedMoments.rank` ranks every road's seeds,
  the rows whose ranked seeds differ from the structure's are gathered
  (:meth:`~repro.speed.hlm.SeedMoments.gather` computes the seed × road
  product in fixed column blocks) and fitted in one stacked solve per
  seed count, and patched in place. One ``speed.plan.compile`` span per
  compile or refresh carries ``rows_fitted`` and ``moment_blocks``. The
  planner registers nothing: the owning estimator's one
  :class:`~repro.history.fidelity.FidelityCacheService` subscription
  calls :meth:`IntervalPlanner.invalidate`.

Step 2 reads influence straight from the plan seeds' cached raw
fidelity rows (:class:`~repro.history.fidelity.SparseRow`), whose
positions follow the planner's road order (the correlation graph's):
no per-road influence map is built or kept.

Delta invalidation is row-scoped: a row invalidation that drops a
seed's fidelity row marks each held structure holding it stale
(``plan.shards_evicted``); the next evaluation re-ranks the seeds'
fresh rows and refits exactly the rows whose top-ranked seed ids
changed: rows newly reached, rows no longer reached (reset to the
prior) and rows whose ranking changed. Soundness: a row's fit depends
only on its road, its ranked seeds and the plan's seed tuple — the
fidelities only rank — and rows are independent in the fixed-block
moments and in the stacked solves, so a refreshed structure is
bitwise equal to a cold compile (``tests/test_plan_sharded.py`` pins
it, and the plans against the whole-city oracle in
``tests/oracles/plan.py``).

Cache traffic is exported as ``plan.cache`` counts and evaluations as
``plan.eval`` (mode = full / incremental / cached); the estimator wraps
evaluation in a ``speed.solve_vectorized`` span (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.fidelity import SparseRow
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.speed.hlm import (
    FittedRows,
    HierarchicalLinearModel,
    SeedMoments,
    fit_batch,
)

class _SeedStructure:
    """The bucket-independent half of a plan: regression rows + state.

    ``coef`` and ``seed_idx`` are padded ``(roads, width)`` blocks: row
    ``i`` holds road ``i``'s fitted joint-regression coefficients in its
    regression's own seed order, padded with zero coefficients pointing
    at the sentinel residual slot (index ``num_seeds``, always 0), so
    the regressed prediction for every road is one gather-multiply-
    reduce over the block. ``rows_by_seed[k]`` lists the rows whose
    regression uses seed ``k`` — the reverse index the incremental path
    uses to find the rows a changed deviation can affect.
    ``residual_std[i]`` is row ``i``'s in-sample regression residual std
    (0 where ``has_reg[i]`` is False), the column prediction bands read.

    A new structure holds the prior in every row and is ``stale``; the
    planner's structure refreshes from ``moments`` and the seeds' rows
    that ``influence_provider`` returns.
    """

    def __init__(
        self,
        seeds: tuple[int, ...],
        num_roads: int,
        width: int,
        moments: SeedMoments | None = None,
        influence_provider: Callable[[], Sequence[SparseRow]] | None = None,
    ) -> None:
        self.seeds = seeds
        self.moments = moments
        self.influence_provider = influence_provider
        self.coef = np.zeros((num_roads, width))
        self.seed_idx = np.full((num_roads, width), len(seeds), dtype=np.int64)
        self.reg_weight = np.zeros(num_roads)
        self.has_reg = np.zeros(num_roads, dtype=bool)
        self.residual_std = np.zeros(num_roads)
        self.rows_by_seed: list[np.ndarray] = []
        self.stale = True
        self._seed_set = frozenset(seeds)
        self._last_resid: np.ndarray | None = None
        self._last_regressed: np.ndarray | None = None

    @property
    def num_roads(self) -> int:
        return self.coef.shape[0]

    def patch(self, rows: np.ndarray, fits: FittedRows) -> None:
        """Overwrite ``rows`` with ``fits`` (in ``rows`` order).

        Rebuilds the reverse index and re-evaluates the patched rows in
        the incremental memo, so the memo stays what a cold evaluation
        of the patched structure gives.
        """
        self.coef[rows] = fits.coef
        self.seed_idx[rows] = fits.seed_idx
        self.reg_weight[rows] = fits.weight
        self.has_reg[rows] = fits.has_reg
        self.residual_std[rows] = fits.residual_std
        num_seeds = len(self.seeds)
        at, slots = np.nonzero(self.seed_idx < num_seeds)
        positions = self.seed_idx[at, slots]
        # A stable sort keeps each seed's rows ascending.
        by_seed = at[np.argsort(positions, kind="stable")]
        bounds = np.cumsum(np.bincount(positions, minlength=num_seeds))[:-1]
        self.rows_by_seed = np.split(by_seed, bounds) if num_seeds else []
        if self._last_regressed is not None and rows.size:
            regressed = self._last_regressed.copy()
            regressed[rows] = self._evaluate_rows(self._last_resid, rows)
            self._last_regressed = regressed

    def refresh(self) -> None:
        """Refit exactly the rows whose ranked seeds changed.

        Re-ranks the seeds' current rows and diffs each row's ranked
        seed ids against ``seed_idx``: a cold compile (every row the
        prior) fits every reached row, a refresh after a delta the rows
        newly reached, no longer reached or re-ranked.
        """
        assert self.moments is not None and self.influence_provider is not None
        with get_recorder().span(
            "speed.plan.compile", roads=self.num_roads, seeds=len(self.seeds)
        ) as span:
            ranked = self.moments.rank(self.influence_provider())
            rows = np.flatnonzero((ranked != self.seed_idx).any(axis=1))
            batch = self.moments.gather(rows, ranked)
            self.patch(rows, fit_batch(self.moments.params, batch))
            span.set(rows_fitted=rows.size, moment_blocks=batch.blocks)
        self.stale = False

    def mark_stale(self, roads: set[int]) -> int:
        """Mark the structure stale if ``roads`` holds a plan seed.

        Returns 1 if the structure is newly stale, else 0 (a structure
        already stale is not counted again). The planner's
        :meth:`IntervalPlanner.invalidate` is the one caller.
        """
        if self.stale or self._seed_set.isdisjoint(roads):
            return 0
        self.stale = True
        get_recorder().count("plan.shards_evicted")
        return 1

    def _evaluate_rows(self, resid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Regressed deviation predictions for a subset of rows.

        The reduction runs over each row's padded width independently,
        so evaluating a subset is bitwise identical to slicing a full
        evaluation — the invariant the incremental path relies on.
        """
        resid_ext = np.append(resid, 0.0)
        gathered = self.coef[rows] * resid_ext[self.seed_idx[rows]]
        return 1.0 + gathered.sum(axis=1)

    def _evaluate_all(self, resid: np.ndarray) -> np.ndarray:
        resid_ext = np.append(resid, 0.0)
        return 1.0 + (self.coef * resid_ext[self.seed_idx]).sum(axis=1)

    def regressed(self, deviations: np.ndarray) -> tuple[np.ndarray, str]:
        """Per-road regressed deviation predictions for one interval.

        Returns the prediction vector and the evaluation mode:
        ``"full"`` (cold or mostly-changed), ``"incremental"`` (only the
        rows reachable from changed seeds re-evaluated) or ``"cached"``
        (deviation vector unchanged). All three produce bit-identical
        results.
        """
        if deviations.shape != (len(self.seeds),):
            raise InferenceError(
                f"deviation vector has shape {deviations.shape}, plan "
                f"expects ({len(self.seeds)},)"
            )
        resid = deviations - 1.0
        last = self._last_resid
        if last is not None and self._last_regressed is not None:
            changed = np.flatnonzero(resid != last)
            if changed.size == 0:
                return self._last_regressed, "cached"
            if changed.size < len(self.seeds):
                rows = [self.rows_by_seed[int(k)] for k in changed]
                affected = (
                    np.unique(np.concatenate(rows))
                    if rows
                    else np.empty(0, dtype=np.int64)
                )
                if affected.size <= self.num_roads // 2:
                    regressed = self._last_regressed.copy()
                    if affected.size:
                        regressed[affected] = self._evaluate_rows(resid, affected)
                    self._last_resid = resid
                    self._last_regressed = regressed
                    return regressed, "incremental"
        regressed = self._evaluate_all(resid)
        self._last_resid = resid
        self._last_regressed = regressed
        return regressed, "full"


class IntervalPlan:
    """A compiled (seed set, bucket) serving plan. Build via the planner.

    Immutable from the caller's point of view. The mutable state is the
    structure's incremental memo, which never changes results, and the
    staleness mark a row invalidation leaves: evaluation and the band
    columns first refresh a structure the planner marked stale.
    """

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
        self._historical = historical
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

    def _fresh_structure(self) -> _SeedStructure:
        """The structure, refreshed first if a delta left it stale."""
        if self._structure.stale:
            self._structure.refresh()
        return self._structure

    @property
    def has_reg(self) -> np.ndarray:
        """Per-row: does the road have a fitted seed regression?"""
        return self._fresh_structure().has_reg

    @property
    def residual_std(self) -> np.ndarray:
        """Per-row in-sample residual std of the road's regression."""
        return self._fresh_structure().residual_std

    @property
    def historical(self) -> np.ndarray:
        """Per-row historical mean speed (km/h) in the plan's bucket."""
        return self._historical

    def evaluate(self, deviations: np.ndarray, p_rise: np.ndarray) -> np.ndarray:
        """Clamped speed estimates for every road in plan order.

        ``deviations[k]`` is the observed deviation ratio of plan seed
        ``k``; ``p_rise[i]`` is the Step-1 posterior P(RISE) of plan
        road ``i``. Seed roads get a regular non-seed evaluation here —
        the estimator overwrites them with their observations.
        """
        if p_rise.shape != (self.num_roads,):
            raise InferenceError(
                f"posterior vector has shape {p_rise.shape}, plan expects "
                f"({self.num_roads},)"
            )
        structure = self._fresh_structure()
        regressed, mode = structure.regressed(deviations)
        if self._use_trend:
            # Mirrors the scalar path term by term: confidence scales
            # the prior's pull, the MAP trend picks the prior branch.
            confidence = 2.0 * np.maximum(p_rise, 1.0 - p_rise) - 1.0
            prior_weight = self._prior_weight * (0.25 + 0.75 * confidence)
            prior_mean = np.where(p_rise >= 0.5, self._prior_rise, self._prior_fall)
        else:
            prior_weight = np.full(self.num_roads, self._prior_weight)
            prior_mean = np.ones(self.num_roads)
        weight = structure.reg_weight
        denominator = prior_weight + weight
        blend = prior_mean.copy()
        np.divide(
            prior_weight * prior_mean + weight * regressed,
            denominator,
            out=blend,
            where=denominator > 0.0,
        )
        predicted = np.where(structure.has_reg, blend, prior_mean)
        speeds = np.minimum(
            self._upper, np.maximum(self._min_speed, predicted * self._historical)
        )
        get_recorder().count("plan.eval", mode=mode)
        return speeds


class _HeldSet:
    """One seed set the planner holds: its structure and plans by bucket."""

    __slots__ = ("structure", "plans")

    def __init__(self, structure: _SeedStructure) -> None:
        self.structure = structure
        self.plans: dict[int, IntervalPlan] = {}


class IntervalPlanner:
    """The one Step-2 plan cache: the served seed sets' structures and plans.

    One selected seed set serves a whole day, but its rounds need not
    all query every seed: a sentinel round queries a subset
    (:class:`~repro.crowd.scheduler.AdaptiveBudgetScheduler` alternates
    it with full rounds within a day). So the planner holds the seed set
    it served last and, next to it, at most one other: the most recently
    served set that contains it or that it contains. A set related to
    neither (a re-selection) releases the old ones. Each held set keeps
    one :class:`_SeedStructure` and its :class:`IntervalPlan` objects
    keyed by bucket: the time grid's bucket count bounds the plans, so
    no capacity is configured.

    * A lookup for a held set and a cached bucket is a hit; any other
      lookup is a miss that builds the (seed set, bucket) plan. A miss
      for a set not held first releases the sets it does not keep; their
      plans count as ``evictions``.
    * :meth:`invalidate` with rows marks each held structure stale that
      holds a dropped seed (``shard_evictions``); the next evaluation
      refreshes it. Wholesale, it drops every structure and plan
      (``flushes``).

    ``rows(seeds)`` returns the *current* raw fidelity rows of
    ``seeds``, in seed order, over the planner's road order. A structure
    calls it on its first compile and again after a row invalidation
    left it stale, so refreshes see the rows a graph delta recomputed.
    """

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hlm: HierarchicalLinearModel,
        road_ids: list[int] | tuple[int, ...],
        rows: Callable[[tuple[int, ...]], Sequence[SparseRow]],
    ) -> None:
        self._store = store
        self._hlm = hlm
        self._rows = rows
        self._road_ids = tuple(road_ids)
        self._index = {road: i for i, road in enumerate(self._road_ids)}
        self._columns = np.array(
            [store.road_column(road) for road in self._road_ids], dtype=np.int64
        )
        params = hlm.params
        self._upper = np.array(
            [network.segment(road).free_flow_kmh for road in self._road_ids]
        ) * params.max_over_free_flow
        self._upper.setflags(write=False)
        # At most two sets, the one served last at the end.
        self._held: dict[tuple[int, ...], _HeldSet] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._flushes = 0
        self._shard_evictions = 0

    @property
    def road_ids(self) -> tuple[int, ...]:
        return self._road_ids

    @property
    def index(self) -> dict[int, int]:
        return self._index

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=sum(len(held.plans) for held in self._held.values()),
            flushes=self._flushes,
            shard_evictions=self._shard_evictions,
        )

    def peek(self, seeds: tuple[int, ...], bucket: int) -> IntervalPlan | None:
        """The cached plan for ``(seeds, bucket)``, or None; counts nothing.

        Prediction bands read the round's plan this way, so a second
        read within one round does not look like a second round.
        """
        held = self._held.get(seeds)
        return None if held is None else held.plans.get(bucket)

    def plan(self, seeds: tuple[int, ...], bucket: int) -> IntervalPlan:
        """The plan for ``(seeds, bucket)``: cached, or built and cached."""
        held = self._held.pop(seeds, None)
        if held is None:
            self._release_unrelated(seeds)
            held = _HeldSet(self._build_structure(seeds))
        self._held[seeds] = held
        plan = held.plans.get(bucket)
        if plan is not None:
            self._hits += 1
            get_recorder().count("plan.cache", hit="true")
            return plan
        plan = held.plans[bucket] = self._new_plan(held.structure, bucket)
        return plan

    def build(self, seeds: tuple[int, ...], bucket: int) -> IntervalPlan:
        """A plan for ``(seeds, bucket)`` that leaves the cache as it is.

        Built over the held structure of ``seeds`` if there is one, else
        over a new one; counted as a miss, cached nowhere. A band lookup
        for a round the cache does not hold reads its plan this way, so
        it cannot release the sets that serve the rounds.
        """
        held = self._held.get(seeds)
        structure = self._build_structure(seeds) if held is None else held.structure
        return self._new_plan(structure, bucket)

    def _new_plan(self, structure: _SeedStructure, bucket: int) -> IntervalPlan:
        """A (structure, bucket) plan, refreshing a stale structure first."""
        self._misses += 1
        get_recorder().count("plan.cache", hit="false")
        if structure.stale:
            structure.refresh()
        prior_rise, prior_fall, historical = self._bucket_overlays(bucket)
        params = self._hlm.params
        return IntervalPlan(
            road_ids=self._road_ids,
            index=self._index,
            bucket=bucket,
            structure=structure,
            prior_rise=prior_rise,
            prior_fall=prior_fall,
            historical=historical,
            upper=self._upper,
            min_speed=params.min_speed_kmh,
            prior_weight=params.prior_weight,
            use_trend=params.use_trend,
        )

    def invalidate(self, roads: set[int] | None = None) -> None:
        """Follow a fidelity invalidation: ``roads`` dropped rows, or all.

        ``None`` drops every structure and plan, so the next lookup
        compiles from scratch. Rows mark each held structure stale that
        holds a dropped seed; its plans stay cached and refresh it on use.
        """
        if roads is None:
            dropped = sum(len(held.plans) for held in self._held.values())
            if dropped:
                self._flushes += 1
                get_recorder().count("plan.cache_flushes", dropped)
            self._held.clear()
        else:
            self._shard_evictions += self._mark_stale(roads)

    def _release_unrelated(self, seeds: tuple[int, ...]) -> None:
        """Before ``seeds`` is held: keep at most one set related to it.

        The kept set is the most recently served one that contains
        ``seeds`` or is contained in it (the full set of a sentinel
        round, or the sentinels of a full one); the others are released.
        """
        new = frozenset(seeds)
        kept = next(
            (old for old in reversed(self._held) if new <= set(old) or new >= set(old)),
            None,
        )
        for old in [old for old in self._held if old != kept]:
            dropped = len(self._held.pop(old).plans)
            if dropped:
                self._evictions += dropped
                get_recorder().count("plan.cache_evictions", dropped)

    def _build_structure(self, seeds: tuple[int, ...]) -> _SeedStructure:
        """A new structure for ``seeds``: every row the prior, stale."""
        moments = self._hlm.regression.moments(seeds, self._road_ids)
        return _SeedStructure(
            seeds,
            len(self._road_ids),
            moments.width,
            moments,
            partial(self._rows, seeds),
        )

    def _mark_stale(self, roads: set[int]) -> int:
        """Mark the held structures stale; how many are newly stale."""
        return sum(held.structure.mark_stale(roads) for held in self._held.values())

    def _bucket_overlays(
        self, bucket: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bucket-dependent plan overlays (priors + historical means)."""
        params = self._hlm.params
        hierarchy = self._hlm.hierarchy
        if params.use_trend and params.hierarchical:
            prior_rise = hierarchy.conditional_mean_row(bucket, Trend.RISE)[
                self._columns
            ]
            prior_fall = hierarchy.conditional_mean_row(bucket, Trend.FALL)[
                self._columns
            ]
        else:
            prior_rise = np.full(
                len(self._road_ids), hierarchy.global_mean(Trend.RISE)
            )
            prior_fall = np.full(
                len(self._road_ids), hierarchy.global_mean(Trend.FALL)
            )
        historical = self._store.bucket_mean_row(bucket)[self._columns]
        for array in (prior_rise, prior_fall, historical):
            array.setflags(write=False)
        return prior_rise, prior_fall, historical


@dataclass(frozen=True)
class PlanCacheStats:
    """Cumulative accounting of an :class:`IntervalPlanner`.

    ``evictions`` counts plans dropped because a plan for a seed set
    unrelated to them was built; ``flushes`` whole-cache invalidations
    (each counts every plan it dropped); ``shard_evictions`` the times a
    row invalidation marked a held structure stale (the plans stay cached;
    the name stays for readers that use it). ``row_evictions`` is always
    0: a row invalidation drops no plan (the field stays for readers
    that name it). A healthy streaming deployment shows
    ``shard_evictions`` growing with graph churn and ``flushes`` stuck
    at 0.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    row_evictions: int = 0
    flushes: int = 0
    shard_evictions: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses
