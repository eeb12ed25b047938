"""District-sharded Step-2 plan compilation and evaluation.

At metropolitan scale the monolithic :class:`~repro.speed.plan.
IntervalPlanner` is the last single-shard stage of a round: one
``_SeedStructure`` over every road (seconds of ridge fits cold), and any
graph delta touching a plan's seeds recompiles the whole city. This
module shards that stage per district, the same unit
:class:`~repro.seeds.parallel.DistrictPool` already parallelises Step-1
and selection by:

* :class:`ShardedIntervalPlanner` — splits the planner's road order into
  district-local slices (``partition_graph`` districts mapped to global
  row positions) and compiles one
  :class:`~repro.speed.plan._SeedStructure` per district over the
  *global* seed tuple. Because every per-road quantity in the monolithic
  evaluation is row-independent and the padded width derives from the
  global seed count, evaluating district slices and scattering them back
  into global row positions is **bitwise identical** to the monolithic
  plan — asserted differentially in CI like ``DistrictPool.select``.
* :class:`PlanCompilePool` — runs district compiles across a spawn
  process pool. The regression's centred history matrix and the store's
  column order are exported once through the same
  :mod:`multiprocessing.shared_memory` plumbing the district pool uses
  (:class:`~repro.core.shm.SharedArrayExport`), so workers fit
  regressions without pickling the HLM. With one worker (or no pool)
  compilation runs in-process through the identical sharded code path.
* District-scoped delta eviction — a row invalidation marks stale only
  the shards whose compiled regressions actually used a dropped seed's
  influence rows (``plan.shards_evicted``); the next evaluation
  recompiles exactly those shards (``plan.shard_compiles{district}``,
  ``speed.plan.compile`` spans carrying a ``district`` attribute) after
  re-checking the *fresh* influence index for districts the dropped
  seeds newly reach. An incident day recompiles one district, not the
  city.

Soundness of the scoped eviction: a changed fidelity row for seed ``s``
can only change road ``r``'s regression if ``s`` influenced ``r``
before the delta (then ``s`` is in ``r``'s shard's ``active_seeds``) or
influences it after (then ``r`` shows up in the refreshed influence
index with ``s`` among its seeds, which the refresh pass scans). Both
sides are covered, so untouched districts' shards survive by object
identity.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import InferenceError
from repro.core.shm import SharedArrayExport, attach_shared_array
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.speed.hlm import HierarchicalLinearModel, HlmParams, JointSeedRegression
from repro.speed.plan import (
    IntervalPlanner,
    _SeedStructure,
    compile_seed_structure,
)

__all__ = ["PlanCompilePool", "PlanShard", "ShardedIntervalPlan", "ShardedIntervalPlanner"]

#: Influence index type: road id -> {seed -> fidelity}.
InfluenceIndex = Mapping[int, Mapping[int, float]]


class PlanShard:
    """One district's slice of a sharded plan.

    ``positions`` are the members' row positions in the planner's global
    road order — the scatter targets that make the stitched evaluation
    bitwise equal to the monolithic one. ``active_seeds`` is the set of
    plan seeds whose influence reached any member at compile time (the
    seed's *old support* restricted to this district), the key the
    district-scoped eviction tests dropped rows against.
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
    for one seed set, exactly like the monolithic ``_SeedStructure`` —
    so marking shards stale once propagates to all buckets, and a
    recompile refreshes them all.
    """

    def __init__(
        self, seeds: tuple[int, ...], shards: list[PlanShard], num_roads: int
    ) -> None:
        self.seeds = seeds
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

        Returns the number of *newly* stale shards (idempotent: both the
        plan cache and the estimator's row listener call this for the
        same invalidation). Dropped seeds are also queued so the next
        refresh can mark districts the seeds newly reach — that side
        needs the fresh influence index, which only exists lazily.
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


class ShardedIntervalPlan:
    """A compiled (seed set, bucket) plan over district shards.

    Drop-in for :class:`~repro.speed.plan.IntervalPlan` on the serving
    path: same evaluation surface and band columns, bitwise-identical
    speeds. Evaluation and the band columns first recompile any shards
    a row invalidation marked stale. The extra
    surface is :meth:`mark_rows_stale`, which lets the
    :class:`~repro.speed.plan.IntervalPlanCache` keep the plan cached
    across a row invalidation and recompile only affected shards.
    """

    def __init__(
        self,
        planner: "ShardedIntervalPlanner",
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

    def mark_rows_stale(self, roads: set[int]) -> int:
        """District-scoped eviction hook; returns newly stale shards."""
        return self._shard_set.mark_stale(roads)

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
        """Clamped speeds for every road, stitched in district order.

        Bitwise identical to the monolithic
        :meth:`~repro.speed.plan.IntervalPlan.evaluate`: the regression
        reduction is per-row, the blend is elementwise, and the padded
        width comes from the global seed tuple, so per-district slices
        scattered back to global positions reproduce the monolithic
        arrays bit for bit.
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
        # One plan.eval per evaluation like the monolithic path; the mode
        # is the most expensive any shard paid this interval.
        mode = (
            "full"
            if "full" in modes
            else ("incremental" if "incremental" in modes else "cached")
        )
        get_recorder().count("plan.eval", mode=mode)
        return speeds


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_plan_regression: JointSeedRegression | None = None


def _init_plan_worker(specs: dict, params: HlmParams) -> None:
    """Pool initializer: rebuild the regression over shared arrays."""
    global _plan_regression
    centred = attach_shared_array(specs["centred"])
    road_ids = tuple(int(r) for r in attach_shared_array(specs["road_ids"]))
    _plan_regression = JointSeedRegression.from_arrays(centred, road_ids, params)


def _compile_shard_task(
    task: tuple[tuple[int, ...], tuple[int, ...], dict[int, dict[int, float]]]
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    list[np.ndarray], float,
]:
    """Worker task: compile one district's structure rows."""
    seeds, members, influence = task
    assert _plan_regression is not None
    start = time.perf_counter()
    structure = compile_seed_structure(
        _plan_regression, _plan_regression.params, seeds, members, influence
    )
    compile_s = time.perf_counter() - start
    return (
        structure.coef,
        structure.seed_idx,
        structure.reg_weight,
        structure.has_reg,
        structure.residual_std,
        structure.rows_by_seed,
        compile_s,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class PlanCompilePool:
    """A process pool for district structure compiles on one history.

    Exports the joint regression's centred deviation matrix and the
    store's column order once; workers fit per-road ridge regressions
    against the shared (bit-identical) matrix, so returned coefficient
    blocks are bitwise equal to an in-process compile. Create once per
    fitted system and reuse across seed sets; close explicitly (or via
    the owning pipeline) to release workers and shared segments.
    """

    def __init__(
        self,
        hlm: HierarchicalLinearModel,
        store: HistoricalSpeedStore,
        num_workers: int = 0,
    ) -> None:
        self._export = SharedArrayExport(
            {
                "centred": hlm.regression.centred,
                "road_ids": np.asarray(store.road_ids, dtype=np.int64),
            }
        )
        self.num_workers = max(1, num_workers or (os.cpu_count() or 1))
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=get_context("spawn"),
            initializer=_init_plan_worker,
            initargs=(self._export.specs, hlm.params),
        )
        self._closed = False
        recorder = get_recorder()
        recorder.gauge("plan.parallel.workers", self.num_workers)
        recorder.gauge("plan.parallel.shared_bytes", self._export.nbytes)

    def compile_shards(
        self,
        seeds: tuple[int, ...],
        tasks: Sequence[tuple[tuple[int, ...], dict[int, dict[int, float]]]],
    ) -> list[tuple[_SeedStructure, float]]:
        """One (structure, worker compile seconds) per task, in order."""
        if self._closed:
            raise InferenceError("plan compile pool is closed")
        futures = [
            self._pool.submit(_compile_shard_task, (seeds, members, influence))
            for members, influence in tasks
        ]
        structures: list[tuple[_SeedStructure, float]] = []
        # future order == district order == stitch order, never
        # completion order.
        for future in futures:
            (
                coef, seed_idx, reg_weight, has_reg, residual_std,
                rows_by_seed, compile_s,
            ) = future.result()
            structures.append(
                (
                    _SeedStructure(
                        seeds=seeds,
                        coef=coef,
                        seed_idx=seed_idx,
                        reg_weight=reg_weight,
                        has_reg=has_reg,
                        residual_std=residual_std,
                        rows_by_seed=rows_by_seed,
                    ),
                    compile_s,
                )
            )
        return structures

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._export.close()

    def __enter__(self) -> "PlanCompilePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedIntervalPlanner(IntervalPlanner):
    """Compiles :class:`ShardedIntervalPlan` objects over districts.

    ``partitions`` is any disjoint cover of ``road_ids`` (normally
    :func:`~repro.seeds.partition.partition_graph` districts). With a
    :class:`PlanCompilePool` the district compiles run across worker
    processes; without one they run in-process through the same sharded
    code path, so single-core CI exercises sharding every run.
    """

    #: Duck-typing marker the estimator uses to pass an influence
    #: provider without importing this module on the monolithic path.
    sharded = True

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hlm: HierarchicalLinearModel,
        road_ids: list[int] | tuple[int, ...],
        partitions: Sequence[Sequence[int]],
        pool: PlanCompilePool | None = None,
    ) -> None:
        super().__init__(store, network, hlm, road_ids)
        if not partitions:
            raise InferenceError("sharded planner needs at least one district")
        self._partitions = [tuple(chunk) for chunk in partitions]
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
        self._pool = pool
        self._shard_sets: "weakref.WeakValueDictionary[tuple[int, ...], _ShardSet]" = (
            weakref.WeakValueDictionary()
        )

    @property
    def num_districts(self) -> int:
        return len(self._partitions)

    @property
    def partitions(self) -> list[tuple[int, ...]]:
        return list(self._partitions)

    def evict_structures(self, roads: set[int] | None = None) -> None:
        """District-scoped counterpart of the monolithic eviction.

        Row-scoped evictions don't forget shard sets — they mark the
        affected shards stale (idempotently with the plan cache's own
        marking), so the next evaluation recompiles districts instead
        of the next compile rebuilding the city.
        """
        if roads is None:
            self._shard_sets.clear()
            return
        for shard_set in list(self._shard_sets.values()):
            shard_set.mark_stale(roads)

    def compile(
        self,
        seeds: tuple[int, ...],
        bucket: int,
        influence_by_road: InfluenceIndex,
        influence_provider: Callable[[], InfluenceIndex] | None = None,
    ) -> ShardedIntervalPlan:
        """Compile the sharded plan for ``(seeds, bucket)``.

        ``influence_provider`` re-reads the *current* influence index at
        shard-refresh time (the estimator passes its cached index
        accessor, which row invalidations keep fresh). Without one,
        refreshes fall back to the influence captured here — fine for
        static graphs, stale under graph deltas, so any caller driving
        deltas must supply a live provider.
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
                self._compile_districts(
                    seeds, shards, range(len(shards)), influence_by_road
                )
                shard_set = _ShardSet(seeds, shards, len(self._road_ids))
                self._shard_sets[seeds] = shard_set
            if influence_provider is not None:
                shard_set.influence_provider = influence_provider
            elif shard_set.influence_provider is None:
                shard_set.influence_provider = lambda: influence_by_road
            prior_rise, prior_fall, historical = self._bucket_overlays(bucket)
            return ShardedIntervalPlan(
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
        if pending:
            for road, seed_influence in influence.items():
                if pending.isdisjoint(seed_influence):
                    continue
                district = self._district_of.get(road)
                if district is not None:
                    shard_set.stale.add(district)
        if shard_set.stale:
            self._compile_districts(
                shard_set.seeds,
                shard_set.shards,
                sorted(shard_set.stale),
                influence,
            )
            for district in sorted(shard_set.stale):
                shard_set.restitch(shard_set.shards[district])
        shard_set.stale.clear()
        shard_set.pending_dropped.clear()

    def _compile_districts(
        self,
        seeds: tuple[int, ...],
        shards: list[PlanShard],
        districts,
        influence_by_road: InfluenceIndex,
    ) -> None:
        """Compile (or recompile) the given districts' structures."""
        recorder = get_recorder()
        ordered = list(districts)
        tasks = []
        for district in ordered:
            shard = shards[district]
            sub = {
                road: dict(influence_by_road[road])
                for road in shard.members
                if road in influence_by_road
            }
            tasks.append((district, shard, sub))
        if self._pool is not None:
            structures = self._pool.compile_shards(
                seeds, [(shard.members, sub) for _, shard, sub in tasks]
            )
        else:
            structures = None
        for position, (district, shard, sub) in enumerate(tasks):
            # Per-district compile span (district attr). On the pool
            # path the batch already ran in the workers, so the span's
            # own duration only covers unpacking; the worker-measured
            # compile time rides along as the ``compile_s`` attr and
            # is the authoritative per-district number there.
            with recorder.span(
                "speed.plan.compile",
                roads=len(shard.members),
                seeds=len(seeds),
                district=district,
            ) as span:
                if structures is not None:
                    structure, worker_s = structures[position]
                    span.set(compile_s=worker_s)
                else:
                    structure = compile_seed_structure(
                        self._hlm.regression,
                        self._hlm.params,
                        seeds,
                        shard.members,
                        sub,
                    )
            shard.structure = structure
            shard.active_seeds = frozenset(
                seed for seed_influence in sub.values() for seed in seed_influence
            )
            recorder.count("plan.shard_compiles", district=str(district))
