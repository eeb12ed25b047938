"""Compiled interval plans: the Step-2 serving path.

Step 2 is defined per road by ``estimate_road`` (the test oracle in
``tests/oracles/hlm.py``). Calling it in a per-road loop re-does the
same bookkeeping every interval: rank a road's influencing seeds, fit
or look up its joint regression, fetch two trend-conditional prior
means, blend, clamp. For a fixed (seed set, time bucket) none of that
structure changes — only the observed seed deviations and the Step-1
posterior do. This module compiles the structure once so serving an
interval becomes a handful of array ops:

* :class:`_SeedStructure` — the seed-dependent half of one district,
  shared by every bucket: each road's fitted regression row packed into
  a padded ``(roads, max_seeds_per_road)`` coefficient block (a
  CSR-in-disguise whose rows have at most ``max_seeds_per_road``
  entries), the per-road regression blend weights, and a per-seed
  reverse index of the rows each seed touches. It also carries the
  **incremental state**: the last seed-deviation vector and the
  regressed predictions it produced, so consecutive intervals that
  change only a few seed observations (a degraded round substituting a
  seed, a sentinel round) recompute only the affected rows — bit-for-bit
  identical to a cold evaluation, because affected rows are re-evaluated
  with the same row reduction rather than patched with float deltas.
* :class:`IntervalPlan` — one :class:`PlanShard` (a ``_SeedStructure``)
  per district plus one bucket's overlay (trend-conditional prior means,
  historical bucket-mean speeds, clamp bounds).
  :meth:`IntervalPlan.evaluate` turns a deviation vector and a posterior
  array into clamped speeds: one padded-row gather-multiply-reduce per
  district scattered to global rows, a vectorized posterior-confidence
  blend, one multiply by the historical speeds, one clip. The plan also
  exposes the per-row band columns (``has_reg``, ``residual_std``,
  ``historical``) that :meth:`~repro.speed.uncertainty.UncertaintyModel.
  bands_for` turns into prediction intervals without refitting anything.
* :class:`IntervalPlanner` — compiles plans for one fitted system over a
  district partition of the road order; the default is one district.
  A compile (or a stale-shard refresh) fits its rows in a few array
  passes: one :meth:`~repro.speed.hlm.SeedMoments.gather` computes the
  seed × road product once in fixed column blocks and hands each
  district its rows' Gram matrices and moments, and
  :func:`compile_seed_structure` solves each seed count's rows in one
  stacked solve (``speed.plan.compile`` spans carry ``rows_fitted`` and
  ``moment_blocks``). A row's fit depends only on its road, its ranked
  seeds and the plan's seed tuple, and the padded width comes from the
  *global* seed tuple, so any partition or compile history serves
  the same speeds bit for bit (the differentials in
  ``tests/test_plan_sharded.py`` and ``tests/test_batched_fits.py`` pin
  them against the whole-city oracle in ``tests/oracles/plan.py``).
* :class:`IntervalPlanCache` — the small LRU keyed by (seed set,
  bucket, params). It registers nothing: the owning estimator's one
  :class:`~repro.history.fidelity.FidelityCacheService` subscription
  flushes it and has the planner mark stale shards.

Delta invalidation is district-scoped: a row invalidation marks stale
only the shards whose compiled regressions used a dropped seed's
influence rows (``plan.shards_evicted``); the next evaluation recompiles
exactly those shards (``plan.shard_compiles{district}``,
``speed.plan.compile`` spans carrying a ``district`` attribute) after
re-checking the *fresh* influence index for districts the dropped seeds
newly reach. Soundness: a changed fidelity row for seed ``s`` can only
change road ``r``'s regression if ``s`` influenced ``r`` before the
delta (then ``s`` is in ``r``'s shard's ``active_seeds``) or influences
it after (then ``r`` shows up in the refreshed influence index with
``s`` among its seeds, which the refresh pass scans). Untouched
districts' shards survive by object identity.

Cache traffic is exported as ``plan.cache`` counts and evaluations as
``plan.eval`` (mode = full / incremental / cached); the estimator wraps
evaluation in a ``speed.solve_vectorized`` span (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.speed.hlm import (
    FitBatch,
    HierarchicalLinearModel,
    HlmParams,
    SeedMoments,
    fit_batch,
)

#: Influence index type: road id -> {seed -> fidelity}.
InfluenceIndex = Mapping[int, Mapping[int, float]]


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


def compile_seed_structure(params: HlmParams, batch: FitBatch) -> _SeedStructure:
    """Fit one district's gathered rows and pack them as a padded block.

    ``batch`` comes from :meth:`~repro.speed.hlm.SeedMoments.gather`
    over the *global* seed tuple, so the padded width and the
    seed-index positions are identical regardless of how the rows are
    sliced — the property that makes every partition evaluate bitwise
    equal. Row indices (including ``rows_by_seed``) are local to the
    district, through :func:`~repro.speed.hlm.fit_batch`'s stacked
    solves.
    """
    fits = fit_batch(params, batch)
    num_seeds = len(batch.seeds)
    rows, slots = np.nonzero(fits.seed_idx < num_seeds)
    positions = fits.seed_idx[rows, slots]
    # A stable sort keeps each seed's rows ascending.
    by_seed = rows[np.argsort(positions, kind="stable")]
    bounds = np.cumsum(np.bincount(positions, minlength=num_seeds))[:-1]
    return _SeedStructure(
        seeds=batch.seeds,
        coef=fits.coef,
        seed_idx=fits.seed_idx,
        reg_weight=fits.weight,
        has_reg=fits.has_reg,
        residual_std=fits.residual_std,
        rows_by_seed=np.split(by_seed, bounds) if num_seeds else [],
    )


class PlanShard:
    """One district's slice of a plan.

    ``positions`` are the members' row positions in the planner's road
    order — the scatter targets of the stitched evaluation.
    ``active_seeds`` is the set of plan seeds whose influence reached
    any member at compile time (the seed's *old support* restricted to
    this district), the key row invalidations are tested against.
    """

    __slots__ = ("district", "members", "positions", "structure", "active_seeds")

    def __init__(
        self, district: int, members: tuple[int, ...], positions: np.ndarray
    ) -> None:
        self.district = district
        self.members = members
        self.positions = positions
        self.structure: _SeedStructure | None = None
        self.active_seeds: frozenset[int] = frozenset()


class _ShardSet:
    """The per-seed-set compile product: shards + staleness bookkeeping.

    Shared (via the planner's weak-value cache) by every bucket's plan
    for one seed set, so marking shards stale once propagates to all
    buckets, and a recompile refreshes them all. ``moments`` keeps the
    seed set's Gram matrix for those refreshes.
    """

    def __init__(
        self,
        seeds: tuple[int, ...],
        shards: list[PlanShard],
        num_roads: int,
        moments: SeedMoments,
    ) -> None:
        self.seeds = seeds
        self.moments = moments
        self._seed_set = frozenset(seeds)
        self.shards = shards
        self.reg_weight = np.zeros(num_roads)
        self.has_reg = np.zeros(num_roads, dtype=bool)
        self.residual_std = np.zeros(num_roads)
        for shard in shards:
            self.restitch(shard)
        self.stale: set[int] = set()
        self.pending_dropped: set[int] = set()
        self.influence_provider: Callable[[], InfluenceIndex] | None = None

    def restitch(self, shard: PlanShard) -> None:
        """Scatter one shard's per-row columns into the global arrays."""
        assert shard.structure is not None
        self.reg_weight[shard.positions] = shard.structure.reg_weight
        self.has_reg[shard.positions] = shard.structure.has_reg
        self.residual_std[shard.positions] = shard.structure.residual_std

    @property
    def needs_refresh(self) -> bool:
        return bool(self.stale or self.pending_dropped)

    def mark_stale(self, roads: set[int]) -> int:
        """Mark shards whose regressions touched dropped seed rows.

        Returns the number of *newly* stale shards (idempotent: a shard
        already stale is not counted again). The planner's
        :meth:`IntervalPlanner.evict_structures` is the one caller.
        Dropped seeds are also queued so the next refresh can mark
        districts the seeds newly reach — that side needs the fresh
        influence index, which only exists lazily.
        """
        dropped = self._seed_set.intersection(roads)
        if not dropped:
            return 0
        newly = 0
        for district, shard in enumerate(self.shards):
            if district in self.stale:
                continue
            if not shard.active_seeds.isdisjoint(dropped):
                self.stale.add(district)
                newly += 1
        self.pending_dropped |= dropped
        if newly:
            get_recorder().count("plan.shards_evicted", newly)
        return newly


class IntervalPlan:
    """A compiled (seed set, bucket) serving plan. Build via the planner.

    Immutable from the caller's point of view. The mutable state is the
    shards' incremental memos, which never change results, and the
    staleness marks a row invalidation leaves: evaluation and the band
    columns first recompile any shard the planner marked stale.
    """

    def __init__(
        self,
        planner: "IntervalPlanner",
        road_ids: tuple[int, ...],
        index: dict[int, int],
        bucket: int,
        shard_set: _ShardSet,
        prior_rise: np.ndarray,
        prior_fall: np.ndarray,
        historical: np.ndarray,
        upper: np.ndarray,
        min_speed: float,
        prior_weight: float,
        use_trend: bool,
    ) -> None:
        self._planner = planner
        self.road_ids = road_ids
        self.index = index
        self.bucket = bucket
        self._shard_set = shard_set
        self._prior_rise = prior_rise
        self._prior_fall = prior_fall
        self._historical = historical
        self._upper = upper
        self._min_speed = min_speed
        self._prior_weight = prior_weight
        self._use_trend = use_trend

    @property
    def seeds(self) -> tuple[int, ...]:
        return self._shard_set.seeds

    @property
    def num_roads(self) -> int:
        return len(self.road_ids)

    @property
    def num_seeds(self) -> int:
        return len(self._shard_set.seeds)

    @property
    def shards(self) -> list[PlanShard]:
        return self._shard_set.shards

    def _fresh_shard_set(self) -> _ShardSet:
        """The shard set, with stale shards recompiled first."""
        if self._shard_set.needs_refresh:
            self._planner.refresh_shards(self._shard_set)
        return self._shard_set

    @property
    def has_reg(self) -> np.ndarray:
        """Per-row: does the road have a fitted seed regression?"""
        return self._fresh_shard_set().has_reg

    @property
    def residual_std(self) -> np.ndarray:
        """Per-row in-sample residual std of the road's regression."""
        return self._fresh_shard_set().residual_std

    @property
    def historical(self) -> np.ndarray:
        """Per-row historical mean speed (km/h) in the plan's bucket."""
        return self._historical

    def evaluate(self, deviations: np.ndarray, p_rise: np.ndarray) -> np.ndarray:
        """Clamped speed estimates for every road in plan order.

        ``deviations[k]`` is the observed deviation ratio of plan seed
        ``k``; ``p_rise[i]`` is the Step-1 posterior P(RISE) of plan
        road ``i``. Seed roads get a regular non-seed evaluation here —
        the estimator overwrites them with their observations. Each
        district's regressed rows are scattered to their global
        positions; the blend and clamp then run over the whole city.
        """
        if p_rise.shape != (self.num_roads,):
            raise InferenceError(
                f"posterior vector has shape {p_rise.shape}, plan expects "
                f"({self.num_roads},)"
            )
        shard_set = self._fresh_shard_set()
        regressed = np.empty(self.num_roads)
        modes: set[str] = set()
        for shard in shard_set.shards:
            assert shard.structure is not None
            part, mode = shard.structure.regressed(deviations)
            regressed[shard.positions] = part
            modes.add(mode)
        if self._use_trend:
            # Mirrors the scalar path term by term: confidence scales
            # the prior's pull, the MAP trend picks the prior branch.
            confidence = 2.0 * np.maximum(p_rise, 1.0 - p_rise) - 1.0
            prior_weight = self._prior_weight * (0.25 + 0.75 * confidence)
            prior_mean = np.where(p_rise >= 0.5, self._prior_rise, self._prior_fall)
        else:
            prior_weight = np.full(self.num_roads, self._prior_weight)
            prior_mean = np.ones(self.num_roads)
        weight = shard_set.reg_weight
        denominator = prior_weight + weight
        blend = prior_mean.copy()
        np.divide(
            prior_weight * prior_mean + weight * regressed,
            denominator,
            out=blend,
            where=denominator > 0.0,
        )
        predicted = np.where(shard_set.has_reg, blend, prior_mean)
        speeds = np.minimum(
            self._upper, np.maximum(self._min_speed, predicted * self._historical)
        )
        # One plan.eval per evaluation; the mode is the most expensive
        # any shard paid this interval.
        mode = (
            "full"
            if "full" in modes
            else ("incremental" if "incremental" in modes else "cached")
        )
        get_recorder().count("plan.eval", mode=mode)
        return speeds


class IntervalPlanner:
    """Compiles :class:`IntervalPlan` objects for one fitted system.

    ``partitions`` is any disjoint cover of ``road_ids`` (the pipeline
    passes :func:`~repro.seeds.partition.partition_graph` districts for
    ``use_sharded_plan``); ``None`` is the one-district case, the whole
    road order as a single shard. Every district compiles in-process.

    Compiled shard sets are shared across buckets through a weak-value
    cache: as long as any plan for a seed set is alive, its shards (the
    expensive compile product) are reused.
    """

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hlm: HierarchicalLinearModel,
        road_ids: list[int] | tuple[int, ...],
        partitions: Sequence[Sequence[int]] | None = None,
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
        if partitions is None:
            self._partitions = [self._road_ids]
        else:
            self._partitions = [tuple(chunk) for chunk in partitions]
            self._check_partitions()
        self._shard_positions = [
            np.fromiter(
                (self._index[road] for road in chunk),
                dtype=np.int64,
                count=len(chunk),
            )
            for chunk in self._partitions
        ]
        self._district_of = {
            road: district
            for district, chunk in enumerate(self._partitions)
            for road in chunk
        }
        self._shard_sets: "weakref.WeakValueDictionary[tuple[int, ...], _ShardSet]" = (
            weakref.WeakValueDictionary()
        )

    def _check_partitions(self) -> None:
        if not self._partitions:
            raise InferenceError("planner needs at least one district")
        seen: set[int] = set()
        for chunk in self._partitions:
            for road in chunk:
                if road not in self._index:
                    raise InferenceError(
                        f"district road {road} not in the planner's road set"
                    )
                if road in seen:
                    raise InferenceError(
                        f"road {road} appears in more than one district"
                    )
                seen.add(road)
        if len(seen) != len(self._road_ids):
            raise InferenceError(
                f"districts cover {len(seen)} of {len(self._road_ids)} roads"
            )

    @property
    def road_ids(self) -> tuple[int, ...]:
        return self._road_ids

    @property
    def index(self) -> dict[int, int]:
        return self._index

    def evict_structures(self, roads: set[int] | None = None) -> int:
        """Invalidate compiled shard sets touching ``roads`` (or all).

        ``None`` forgets every shard set, so the next compile rebuilds
        from scratch. A row-scoped eviction marks the affected shards of
        every live shard set stale instead, so the next evaluation
        recompiles those districts — in every bucket's plan, cached in
        an :class:`IntervalPlanCache` or held elsewhere. Returns the
        number of newly stale shards (0 for ``None``).
        """
        if roads is None:
            self._shard_sets.clear()
            return 0
        return sum(
            shard_set.mark_stale(roads)
            for shard_set in list(self._shard_sets.values())
        )

    def compile(
        self,
        seeds: tuple[int, ...],
        bucket: int,
        influence_provider: Callable[[], InfluenceIndex],
    ) -> IntervalPlan:
        """Compile the plan for ``(seeds, bucket)``.

        ``influence_provider`` returns the *current* influence index
        (road id -> {seed -> fidelity}, floor-filtered). It is read for
        a cold compile and again when a row
        invalidation left shards stale, so refreshes see the rows a
        graph delta recomputed.
        """
        params = self._hlm.params
        with get_recorder().span(
            "speed.plan.compile",
            roads=len(self._road_ids),
            seeds=len(seeds),
            bucket=bucket,
            districts=len(self._partitions),
        ):
            shard_set = self._shard_sets.get(seeds)
            if shard_set is None:
                shards = [
                    PlanShard(district, chunk, self._shard_positions[district])
                    for district, chunk in enumerate(self._partitions)
                ]
                moments = self._hlm.regression.moments(seeds)
                self._compile_districts(
                    moments, shards, range(len(shards)), influence_provider()
                )
                shard_set = _ShardSet(seeds, shards, len(self._road_ids), moments)
                self._shard_sets[seeds] = shard_set
            shard_set.influence_provider = influence_provider
            prior_rise, prior_fall, historical = self._bucket_overlays(bucket)
            return IntervalPlan(
                planner=self,
                road_ids=self._road_ids,
                index=self._index,
                bucket=bucket,
                shard_set=shard_set,
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

    def refresh_shards(self, shard_set: _ShardSet) -> None:
        """Recompile exactly the stale shards of one seed set.

        Two-sided staleness: shards already marked (a dropped seed's
        *old* support touched them) plus districts the dropped seeds
        newly reach in the refreshed influence index (*new* support).
        Untouched districts keep their structures — and their
        incremental memos — by object identity.
        """
        provider = shard_set.influence_provider
        assert provider is not None  # set on every compile
        influence = provider()
        pending = shard_set.pending_dropped
        if pending and len(shard_set.stale) < len(shard_set.shards):
            for road, seed_influence in influence.items():
                if pending.isdisjoint(seed_influence):
                    continue
                district = self._district_of.get(road)
                if district is not None:
                    shard_set.stale.add(district)
        if shard_set.stale:
            stale = sorted(shard_set.stale)
            self._compile_districts(
                shard_set.moments, shard_set.shards, stale, influence
            )
            for district in stale:
                shard_set.restitch(shard_set.shards[district])
        shard_set.stale.clear()
        shard_set.pending_dropped.clear()

    def _compile_districts(
        self,
        moments: SeedMoments,
        shards: list[PlanShard],
        districts,
        influence_by_road: InfluenceIndex,
    ) -> None:
        """Compile (or recompile) the given districts' structures.

        One :meth:`~repro.speed.hlm.SeedMoments.gather` for all of them
        (each column block of the seed × road product once), then one
        fit per district.
        """
        recorder = get_recorder()
        ordered = list(districts)
        batches = moments.gather(
            [shards[district].members for district in ordered], influence_by_road
        )
        for district, batch in zip(ordered, batches):
            shard = shards[district]
            with recorder.span(
                "speed.plan.compile",
                roads=len(shard.members),
                seeds=len(moments.seeds),
                district=district,
                rows_fitted=batch.rows_fitted,
                moment_blocks=batch.blocks,
            ):
                shard.structure = compile_seed_structure(self._hlm.params, batch)
            shard.active_seeds = frozenset().union(
                *(
                    influence_by_road[road]
                    for road in shard.members
                    if road in influence_by_road
                )
            )
            recorder.count("plan.shard_compiles", district=str(district))


@dataclass(frozen=True)
class PlanCacheStats:
    """Cumulative accounting of an :class:`IntervalPlanCache`.

    ``evictions`` counts LRU capacity evictions; ``flushes``
    whole-cache invalidations (each counts every plan it dropped);
    ``shard_evictions`` district shards a row invalidation marked stale
    (the plans stay cached). ``row_evictions`` is always 0: a
    row invalidation marks shards and drops no plan (the field stays
    for readers that name it). A healthy streaming deployment shows
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


class IntervalPlanCache:
    """Small LRU of compiled plans keyed by (seed set, bucket, params).

    A passive store: the owning
    :class:`~repro.speed.estimator.TwoStepEstimator` subscribes to its
    :class:`~repro.history.fidelity.FidelityCacheService` and, on an
    invalidation of its graph, calls :meth:`invalidate` (wholesale) or
    has its planner mark the stale shards and reports them through
    :meth:`count_shard_evictions` (rows).
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise InferenceError(f"plan cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._plans: "OrderedDict[Hashable, IntervalPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
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

    def invalidate(self) -> None:
        """Drop every cached plan (a wholesale fidelity invalidation)."""
        if self._plans:
            self._flushes += 1
            get_recorder().count("plan.cache_flushes", len(self._plans))
        self._plans.clear()

    def count_shard_evictions(self, count: int) -> None:
        """Account ``count`` shards a row invalidation marked stale."""
        self._shard_evictions += count
