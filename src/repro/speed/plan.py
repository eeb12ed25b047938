"""Compiled interval plans: the Step-2 serving path.

Step 2 is defined per road by :meth:`~repro.speed.hlm.
HierarchicalLinearModel.estimate_road`. Calling it in a per-road loop
(the scalar reference, kept as the test oracle in
``tests/oracles/estimator.py``) re-does the same bookkeeping every
interval: rank a road's influencing seeds, look up its fitted joint
regression, fetch two trend-conditional prior means, blend, clamp. For
a fixed (seed set, time bucket) none of that structure changes — only
the observed seed deviations and the Step-1 posterior do. This module
compiles the structure once so serving an interval becomes a handful of
array ops:

* :class:`_SeedStructure` — the seed-dependent half, shared by every
  bucket: each road's fitted regression row packed into a padded
  ``(roads, max_seeds_per_road)`` coefficient block (a CSR-in-disguise
  whose rows have at most ``max_seeds_per_road`` entries), the per-road
  regression blend weights, and a per-seed reverse index of the rows
  each seed touches. It also carries the **incremental state**: the last
  seed-deviation vector and the regressed predictions it produced, so
  consecutive intervals that change only a few seed observations (a
  degraded round substituting a seed, a sentinel round) recompute only
  the affected rows — bit-for-bit identical to a cold evaluation,
  because affected rows are re-evaluated with the same row reduction
  rather than patched with float deltas.
* :class:`IntervalPlan` — the structure plus one bucket's overlay
  (trend-conditional prior means, historical bucket-mean speeds, clamp
  bounds). :meth:`IntervalPlan.evaluate` turns a deviation vector and a
  posterior array into clamped speeds: one padded-row gather-multiply-
  reduce, a vectorized posterior-confidence blend, one multiply by the
  historical speeds, one clip. The plan also exposes the per-row band
  columns (``has_reg``, ``residual_std``, ``historical``) that
  :meth:`~repro.speed.uncertainty.UncertaintyModel.bands_for` turns
  into prediction intervals without refitting anything.
* :class:`IntervalPlanner` — compiles plans for one fitted system,
  reusing structures across buckets through a weak-value cache (a
  structure lives exactly as long as some cached plan references it).
* :class:`IntervalPlanCache` — the small LRU keyed by (seed set,
  bucket, params) that the pipeline owns next to its
  :class:`~repro.history.fidelity.FidelityCacheService`; attaching it
  to the service makes fidelity invalidation drop compiled plans too.

Cache traffic is exported as ``plan.cache`` counts and evaluations as
``plan.eval`` (mode = full / incremental / cached); the estimator wraps
evaluation in a ``speed.solve_vectorized`` span (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.speed.hlm import HierarchicalLinearModel, HlmParams, JointSeedRegression


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
    """

    def __init__(
        self,
        seeds: tuple[int, ...],
        coef: np.ndarray,
        seed_idx: np.ndarray,
        reg_weight: np.ndarray,
        has_reg: np.ndarray,
        residual_std: np.ndarray,
        rows_by_seed: list[np.ndarray],
    ) -> None:
        self.seeds = seeds
        self.coef = coef
        self.seed_idx = seed_idx
        self.reg_weight = reg_weight
        self.has_reg = has_reg
        self.residual_std = residual_std
        self.rows_by_seed = rows_by_seed
        self._last_resid: np.ndarray | None = None
        self._last_regressed: np.ndarray | None = None

    @property
    def num_roads(self) -> int:
        return self.coef.shape[0]

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


def compile_seed_structure(
    regression: JointSeedRegression,
    params: HlmParams,
    seeds: tuple[int, ...],
    road_ids: tuple[int, ...],
    influence_by_road: Mapping[int, Mapping[int, float]],
) -> _SeedStructure:
    """Compile the padded regression block for ``road_ids``.

    ``road_ids`` may be any slice of the network (the whole city for the
    monolithic planner, one district for a shard); ``seeds`` is always
    the *global* seed tuple, so the padded width and the seed-index
    positions are identical regardless of how the rows are sliced —
    the property that makes a district-sharded evaluation bitwise equal
    to the monolithic one. Row indices (including ``rows_by_seed``) are
    local to ``road_ids``.
    """
    n = len(road_ids)
    num_seeds = len(seeds)
    width = max(1, min(params.max_seeds_per_road, num_seeds))
    seed_pos = {seed: k for k, seed in enumerate(seeds)}
    coef = np.zeros((n, width))
    # Padding entries point at the sentinel residual slot, which the
    # evaluator pins to 0, so padded columns never contribute.
    seed_idx = np.full((n, width), num_seeds, dtype=np.int64)
    reg_weight = np.zeros(n)
    has_reg = np.zeros(n, dtype=bool)
    residual_std = np.zeros(n)
    rows_by_seed: list[list[int]] = [[] for _ in seeds]
    seed_set = set(seeds)
    empty: dict[int, float] = {}
    for i, road in enumerate(road_ids):
        if road in seed_set:
            # Seed estimates are observation pass-throughs; skipping
            # them here matches the scalar path, which never fits a
            # regression for a seed road.
            continue
        fitted = regression.for_road(road, influence_by_road.get(road, empty))
        if fitted is None:
            continue
        has_reg[i] = True
        reg_weight[i] = fitted.weight
        residual_std[i] = fitted.residual_std
        for j, seed in enumerate(fitted.seeds):
            coef[i, j] = fitted.coefficients[j]
            position = seed_pos[seed]
            seed_idx[i, j] = position
            rows_by_seed[position].append(i)
    return _SeedStructure(
        seeds=seeds,
        coef=coef,
        seed_idx=seed_idx,
        reg_weight=reg_weight,
        has_reg=has_reg,
        residual_std=residual_std,
        rows_by_seed=[np.array(rows, dtype=np.int64) for rows in rows_by_seed],
    )


class IntervalPlan:
    """A compiled (seed set, bucket) serving plan. Build via the planner.

    Immutable from the caller's point of view; the only mutable state is
    the shared structure's incremental memo, which never changes
    results, only how much of the regression block is re-evaluated.
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

    @property
    def has_reg(self) -> np.ndarray:
        """Per-row: does the road have a fitted seed regression?"""
        return self._structure.has_reg

    @property
    def residual_std(self) -> np.ndarray:
        """Per-row in-sample residual std of the road's regression."""
        return self._structure.residual_std

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
        regressed, mode = self._structure.regressed(deviations)
        if self._use_trend:
            # Mirrors the scalar path term by term: confidence scales
            # the prior's pull, the MAP trend picks the prior branch.
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
        speeds = np.minimum(
            self._upper, np.maximum(self._min_speed, predicted * self._historical)
        )
        get_recorder().count("plan.eval", mode=mode)
        return speeds


class IntervalPlanner:
    """Compiles :class:`IntervalPlan` objects for one fitted system.

    Seed structures are shared across buckets through a weak-value
    cache: as long as any cached plan for a seed set is alive, its
    structure (the expensive compile product) is reused; once every
    plan referencing it is evicted, the structure is garbage collected.
    """

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hlm: HierarchicalLinearModel,
        road_ids: list[int] | tuple[int, ...],
    ) -> None:
        self._store = store
        self._hlm = hlm
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
        self._structures: "weakref.WeakValueDictionary[tuple[int, ...], _SeedStructure]" = (
            weakref.WeakValueDictionary()
        )
        # Inverted index for evict_structures: seed road -> the structure
        # keys (seed tuples) that contain it. Entries are added on
        # compile and pruned on evict; keys whose structures were
        # garbage-collected out of the weak cache are filtered (and
        # lazily dropped) at eviction time, so the index is always a
        # superset of the live keys and eviction sets match a linear
        # scan exactly.
        self._keys_by_seed: dict[int, set[tuple[int, ...]]] = {}

    @property
    def road_ids(self) -> tuple[int, ...]:
        return self._road_ids

    @property
    def index(self) -> dict[int, int]:
        return self._index

    def _register_structure_key(self, seeds: tuple[int, ...]) -> None:
        for seed in seeds:
            self._keys_by_seed.setdefault(seed, set()).add(seeds)

    def _forget_structure_key(self, seeds: tuple[int, ...]) -> None:
        for seed in seeds:
            keys = self._keys_by_seed.get(seed)
            if keys is None:
                continue
            keys.discard(seeds)
            if not keys:
                del self._keys_by_seed[seed]

    def evict_structures(self, roads: set[int] | None = None) -> None:
        """Forget compiled seed structures touching ``roads`` (or all).

        Structures live in a weak-value cache, so normally they die
        with the plans referencing them — but a caller holding a plan
        outside the :class:`IntervalPlanCache` would keep its structure
        alive past a row invalidation, and a later :meth:`compile` for
        the same seed set must not resurrect the stale coefficients.

        Touched keys come from the seed->keys inverted index, so the
        cost is proportional to the structures actually touching
        ``roads``, not cached-structures x seeds.
        """
        if roads is None:
            stale = list(self._structures.keys())
            self._keys_by_seed.clear()
        else:
            candidates: set[tuple[int, ...]] = set()
            for road in roads:
                keys = self._keys_by_seed.get(road)
                if keys:
                    candidates |= keys
            stale = [seeds for seeds in candidates if seeds in self._structures]
            for seeds in candidates:
                self._forget_structure_key(seeds)
        for seeds in stale:
            self._structures.pop(seeds, None)

    def compile(
        self,
        seeds: tuple[int, ...],
        bucket: int,
        influence_by_road: Mapping[int, Mapping[int, float]],
    ) -> IntervalPlan:
        """Compile the plan for ``(seeds, bucket)``.

        ``influence_by_road`` maps road id -> {seed -> fidelity}, the
        same floor-filtered index the scalar path hands to
        :meth:`~repro.speed.hlm.JointSeedRegression.for_road`, so both
        paths fit (and cache) identical regressions.
        """
        params = self._hlm.params
        with get_recorder().span(
            "speed.plan.compile",
            roads=len(self._road_ids),
            seeds=len(seeds),
            bucket=bucket,
        ):
            structure = self._structures.get(seeds)
            if structure is None:
                structure = self._compile_structure(seeds, influence_by_road)
                self._structures[seeds] = structure
                self._register_structure_key(seeds)
            prior_rise, prior_fall, historical = self._bucket_overlays(bucket)
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

    def _compile_structure(
        self,
        seeds: tuple[int, ...],
        influence_by_road: Mapping[int, Mapping[int, float]],
    ) -> _SeedStructure:
        return compile_seed_structure(
            self._hlm.regression,
            self._hlm.params,
            seeds,
            self._road_ids,
            influence_by_road,
        )


@dataclass(frozen=True)
class PlanCacheStats:
    """Cumulative accounting of an :class:`IntervalPlanCache`.

    ``evictions`` counts LRU capacity evictions; ``row_evictions``
    plans dropped because their seed rows were invalidated;
    ``flushes`` whole-cache invalidations (each counts every plan it
    dropped); ``shard_evictions`` district shards marked stale inside
    sharded plans that stayed cached (see
    :class:`~repro.speed.shardplan.ShardedIntervalPlan`). A healthy
    streaming deployment shows ``row_evictions``/``shard_evictions``
    growing with graph churn and ``flushes`` stuck at 0.
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


class IntervalPlanCache:
    """Small LRU of compiled plans keyed by (seed set, bucket, params).

    Lives next to the pipeline's
    :class:`~repro.history.fidelity.FidelityCacheService`; call
    :meth:`attach` to register this cache as an invalidation listener so
    dropping fidelity rows also drops the plans compiled from them.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise InferenceError(f"plan cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._plans: "OrderedDict[Hashable, IntervalPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._row_evictions = 0
        self._flushes = 0
        self._shard_evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._plans),
            row_evictions=self._row_evictions,
            flushes=self._flushes,
            shard_evictions=self._shard_evictions,
        )

    def get_or_build(
        self, key: Hashable, builder: Callable[[], IntervalPlan]
    ) -> IntervalPlan:
        """The cached plan for ``key``, compiling (and caching) on miss."""
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self._hits += 1
            get_recorder().count("plan.cache", hit="true")
            return plan
        self._misses += 1
        get_recorder().count("plan.cache", hit="false")
        plan = builder()
        self._plans[key] = plan
        if len(self._plans) > self._maxsize:
            self._plans.popitem(last=False)
            self._evictions += 1
            get_recorder().count("plan.cache_evictions")
        return plan

    def peek(self, key: Hashable) -> IntervalPlan | None:
        """The cached plan for ``key``, or None; counts nothing.

        Leaves LRU order and the hit/miss accounting untouched, so a
        second read of a plan within one round (prediction bands after
        the estimate) does not look like a second round.
        """
        return self._plans.get(key)

    def invalidate(self, graph: object | None = None) -> None:
        """Drop every cached plan.

        Accepts (and ignores) the graph argument so the method doubles
        as a :class:`~repro.history.fidelity.FidelityCacheService`
        invalidation listener — plans derive from fidelity rows, so any
        fidelity invalidation must drop them all.
        """
        del graph
        if self._plans:
            self._flushes += 1
            get_recorder().count("plan.cache_flushes", len(self._plans))
        self._plans.clear()

    def invalidate_rows(self, graph: object | None, roads) -> None:
        """Drop exactly the plans whose seed rows were invalidated.

        The row-level counterpart of :meth:`invalidate`, with the
        :meth:`~repro.history.fidelity.FidelityCacheService.
        add_row_invalidation_listener` signature: a plan's coefficient
        blocks are regressions over its seeds' fidelity rows, so a plan
        survives only if none of its seeds are in ``roads``. ``roads``
        of ``None`` means a whole-graph invalidation — everything goes.
        """
        del graph
        if roads is None:
            self.invalidate()
            return
        road_set = set(roads)
        stale = []
        shards_marked = 0
        for key, plan in self._plans.items():
            if not road_set.intersection(plan.seeds):
                continue
            mark = getattr(plan, "mark_rows_stale", None)
            if mark is not None:
                # District-sharded plans stay cached: only the shards
                # whose regressions touched the dropped rows are marked
                # stale and recompiled lazily at the next evaluation.
                shards_marked += mark(road_set)
            else:
                stale.append(key)
        for key in stale:
            del self._plans[key]
        if stale:
            self._row_evictions += len(stale)
            get_recorder().count("plan.rows_evicted", len(stale))
        if shards_marked:
            self._shard_evictions += shards_marked

    def attach(self, fidelity_service) -> "IntervalPlanCache":
        """Invalidate this cache whenever ``fidelity_service`` is.

        Registers both listener granularities: whole-graph
        invalidations flush everything, and row invalidations (the
        streaming path — see :meth:`~repro.history.fidelity.
        FidelityCacheService.apply_graph_delta`) evict only plans
        whose seeds lost their rows. Registering only the coarse
        listener would let ``invalidate_rows`` drop fidelity rows
        while compiled plans keep serving coefficients regressed from
        them.
        """
        fidelity_service.add_invalidation_listener(self.invalidate)
        fidelity_service.add_row_invalidation_listener(self.invalidate_rows)
        return self
