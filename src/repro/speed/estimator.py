"""The two-step estimator: the paper's full inference pipeline.

Wires Step 1 (trend inference over the correlation-graph MRF) to Step 2
(the hierarchical linear model) behind one call:
:meth:`TwoStepEstimator.estimate_interval` takes the crowdsourced seed
speeds for an interval and returns a :class:`~repro.core.types.SpeedEstimate`
for every road in the correlation graph, carried as the columns of one
:class:`EstimateColumns`.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.columns import RoadColumns
from repro.core.errors import DataError, InferenceError
from repro.core.types import SpeedEstimate, Trend
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.history.fidelity import FidelityCacheService, get_fidelity_service
from repro.roadnet.network import RoadNetwork
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.speed.plan import IntervalPlan, IntervalPlanCache, IntervalPlanner
from repro.trend.model import TrendModel
from repro.trend.propagation import TrendPropagationInference

_TRENDS = {int(trend): trend for trend in Trend}


class EstimateColumns(RoadColumns):
    """One round's estimates: a read-only ``Mapping[int, SpeedEstimate]``.

    Columns, aligned with ``road_ids``: ``speed`` (km/h; seeds carry
    their observation verbatim), ``trend`` (the :class:`Trend` value as
    int8), ``p_rise`` (the trend probability) and the boolean
    ``is_seed`` and ``degraded`` flags. A :class:`SpeedEstimate` is
    built only when a road is looked up.
    """

    FIELDS = (
        ("speed", "speed_kmh", np.float64),
        ("trend", "trend", np.int8),
        ("p_rise", "trend_probability", np.float64),
        ("is_seed", "is_seed", bool),
        ("degraded", "degraded", bool),
    )
    COLUMNS = tuple(name for name, _, _ in FIELDS)
    __slots__ = COLUMNS

    def _record(self, i: int) -> SpeedEstimate:
        return SpeedEstimate(
            self.road_ids[i],
            self.interval,
            self.speed.item(i),
            _TRENDS[self.trend.item(i)],
            self.p_rise.item(i),
            self.is_seed.item(i),
            self.degraded.item(i),
        )

    def with_degraded(self, roads) -> "EstimateColumns":
        """A copy with the estimates of ``roads`` flagged ``degraded``."""
        roads = list(roads)
        if not roads:
            return self
        degraded = self.degraded.copy()
        position = self.position
        for road in roads:
            degraded[position[road]] = True
        return EstimateColumns(
            self.road_ids, self.interval, position, **self._columns(degraded=degraded)
        )


class TwoStepEstimator:
    """Trend inference + hierarchical linear model, end to end.

    The trend-inference algorithm is pluggable (any object with an
    ``infer(TrendInstance) -> TrendPosterior`` method); the default is
    the fast propagation method. Per-seed influence maps are cached, so
    repeated estimation with a fixed seed set (the production pattern —
    one seed set serves a whole day) costs one pruned Dijkstra per seed
    total, not per interval.

    Step-2 serving runs through compiled
    :class:`~repro.speed.plan.IntervalPlan` objects — one padded
    matrix-vector product per district plus a vectorized blend per
    interval. The per-road loop over
    :meth:`~repro.speed.hlm.HierarchicalLinearModel.estimate_road`, the
    definition the plans compile, is the test oracle in
    ``tests/oracles/estimator.py``.
    """

    def __init__(
        self,
        network: RoadNetwork,
        store: HistoricalSpeedStore,
        graph: CorrelationGraph,
        hlm: HierarchicalLinearModel | None = None,
        trend_inference: object | None = None,
        hlm_params: HlmParams | None = None,
        fidelity_service: FidelityCacheService | None = None,
        plan_cache: IntervalPlanCache | None = None,
        planner_factory=None,
    ) -> None:
        self._network = network
        self._store = store
        self._graph = graph
        self._params = hlm_params or HlmParams()
        self._trend_model = TrendModel(graph, store)
        self._fidelity = fidelity_service or get_fidelity_service()
        self._inference = trend_inference or TrendPropagationInference(
            min_fidelity=self._params.min_fidelity,
            fidelity_service=self._fidelity,
        )
        self._hlm = hlm or HierarchicalLinearModel.fit(
            store, network, graph, self._params
        )
        self._influence_cache: dict[frozenset[int], dict[int, dict[int, float]]] = {}
        # `is not None`, not truthiness: an empty cache has len() == 0.
        self._plans = plan_cache if plan_cache is not None else IntervalPlanCache()
        # Pluggable planner construction: the pipeline passes a factory
        # building a planner over partition_graph districts when
        # use_sharded_plan is on; None plans the city as one district.
        self._planner_factory = planner_factory
        self._planner: IntervalPlanner | None = None
        # The one Step-2 subscriber: every fidelity invalidation reaches
        # the plans, shards and influence indexes built from the rows.
        self._fidelity.subscribe(self._on_rows_invalidated)

    @property
    def trend_model(self) -> TrendModel:
        return self._trend_model

    @property
    def hlm(self) -> HierarchicalLinearModel:
        return self._hlm

    @property
    def plan_cache(self) -> IntervalPlanCache:
        """The LRU of compiled interval plans this estimator serves from."""
        return self._plans

    def estimate_interval(
        self, interval: int, seed_speeds: dict[int, float]
    ) -> EstimateColumns:
        """Estimates for every road given crowdsourced ``seed_speeds``.

        ``seed_speeds`` maps seed road id -> observed speed (km/h).
        Returns a mapping keyed by road id covering every road in the
        correlation graph, in graph road order; seeds carry their
        observation verbatim.
        """
        return self._estimate(interval, seed_speeds, None)

    def estimate_roads(
        self,
        interval: int,
        seed_speeds: dict[int, float],
        roads: list[int],
    ) -> EstimateColumns:
        """Estimates for ``roads`` only — the latency-sensitive query path.

        Trend inference still runs over the whole graph (evidence flows
        through roads you did not ask about), but Step-2 regression work
        is done only for the requested roads.
        """
        if not roads:
            raise InferenceError("estimate_roads needs at least one road")
        # Deduplicate before validating and estimating: repeated ids must
        # not double Step-2 work or inflate the unknown-road count.
        unique = sorted(set(roads))
        unknown = [r for r in unique if not self._graph.has_road(r)]
        if unknown:
            raise InferenceError(
                f"{len(unknown)} of {len(unique)} requested roads not in "
                f"correlation graph (first {min(len(unknown), 5)} shown): "
                f"{unknown[:5]}"
            )
        return self._estimate(interval, seed_speeds, unique)

    def _estimate(
        self,
        interval: int,
        seed_speeds: dict[int, float],
        roads: list[int] | None,
    ) -> EstimateColumns:
        if not seed_speeds:
            raise InferenceError("at least one seed observation is required")
        for road in seed_speeds:
            if not self._graph.has_road(road):
                raise InferenceError(f"seed road {road} not in correlation graph")

        recorder = get_recorder()
        # One bucket lookup + one historical mean per seed; trend and
        # deviation derive from the same mean (equivalent to trend_of /
        # deviation_ratio, without re-resolving the bucket four times).
        bucket = self._store.grid.bucket_of(interval)
        seed_trends: dict[int, Trend] = {}
        seed_deviations: dict[int, float] = {}
        for road, speed in seed_speeds.items():
            historical = self._store.mean(road, bucket)
            if historical <= 0:
                raise DataError(f"road {road} has non-positive historical mean")
            seed_trends[road] = Trend.RISE if speed >= historical else Trend.FALL
            seed_deviations[road] = speed / historical

        with recorder.span(
            "trend.infer",
            method=type(self._inference).__name__,
            seeds=len(seed_speeds),
        ):
            instance = self._trend_model.instance(interval, seed_trends)
            posterior = self._inference.infer(instance)

        estimates, seed_count = self._solve(
            interval, posterior, seed_speeds, seed_trends, seed_deviations, roads
        )
        recorder.count("speed.estimates", len(estimates))
        recorder.count("speed.seed_estimates", seed_count)
        return estimates

    def _solve(
        self,
        interval: int,
        posterior,
        seed_speeds: dict[int, float],
        seed_trends: dict[int, Trend],
        seed_deviations: dict[int, float],
        roads: list[int] | None,
    ) -> tuple[EstimateColumns, int]:
        """The compiled-plan serving path: a few array ops per interval.

        ``roads`` None means every road, in plan (= graph) order.
        """
        recorder = get_recorder()
        seeds = tuple(sorted(seed_speeds))
        bucket = self._store.grid.bucket_of(interval)
        with recorder.span(
            "speed.solve_vectorized",
            roads=len(roads) if roads is not None else self._graph.num_roads,
            seeds=len(seeds),
        ) as span:
            key = (seeds, bucket, self._params)
            plan = self._plans.get_or_build(
                key, lambda: self._compile_plan(seeds, bucket)
            )
            deviations = np.fromiter(
                (seed_deviations[s] for s in seeds),
                dtype=np.float64,
                count=len(seeds),
            )
            if posterior.road_ids == plan.road_ids:
                p_rise = posterior.as_array()
            else:
                p_rise = np.fromiter(
                    (posterior.p_rise(road) for road in plan.road_ids),
                    dtype=np.float64,
                    count=plan.num_roads,
                )
            speeds = plan.evaluate(deviations, p_rise)
            span.set(plan_roads=plan.num_roads)

            # Both arrays are fresh per call, so the seed rows can be
            # overwritten in place.
            if roads is None:
                road_ids, position = plan.road_ids, plan.index
            else:
                road_ids = tuple(roads)
                position = {road: i for i, road in enumerate(road_ids)}
                rows = np.fromiter(
                    map(plan.index.__getitem__, road_ids), np.int64, len(road_ids)
                )
                speeds, p_rise = speeds[rows], p_rise[rows]
            trend = np.where(p_rise >= 0.5, np.int8(Trend.RISE), np.int8(Trend.FALL))
            is_seed = np.zeros(len(road_ids), dtype=bool)
            seed_count = 0
            for road, observed in seed_speeds.items():
                i = position.get(road)
                if i is None:
                    continue
                rise = seed_trends[road] is Trend.RISE
                speeds[i] = observed
                trend[i] = seed_trends[road]
                p_rise[i] = 1.0 if rise else 0.0
                is_seed[i] = True
                seed_count += 1
            estimates = EstimateColumns(
                road_ids,
                interval,
                position,
                speed=speeds,
                trend=trend,
                p_rise=p_rise,
                is_seed=is_seed,
                degraded=np.zeros(len(road_ids), dtype=bool),
            )
        return estimates, seed_count

    def plan_for(self, interval: int, seeds) -> IntervalPlan:
        """The compiled plan serving ``interval`` for the seed set ``seeds``.

        The lookup behind prediction bands: a plan already cached (the
        round's ``estimate_*`` call compiled or hit it) is returned
        without counting a ``plan.cache`` hit or touching LRU order, so
        plan hits + misses keep counting estimation rounds. A plan not
        cached is compiled and counted as a miss.
        """
        ordered = tuple(sorted(seeds))
        bucket = self._store.grid.bucket_of(interval)
        key = (ordered, bucket, self._params)
        plan = self._plans.peek(key)
        if plan is None:
            plan = self._plans.get_or_build(
                key, lambda: self._compile_plan(ordered, bucket)
            )
        return plan

    def _compile_plan(self, seeds: tuple[int, ...], bucket: int) -> IntervalPlan:
        if self._planner is None:
            factory = self._planner_factory or IntervalPlanner
            self._planner = factory(
                self._store, self._network, self._hlm, self._graph.road_ids
            )
        # The provider re-reads the influence index *after* a delta has
        # dropped the memoised one, so shard refreshes see fresh rows.
        # It holds the estimator weakly (the plan lives in the
        # estimator's own cache), so the two form no reference cycle.
        key = frozenset(seeds)
        influence_index = weakref.WeakMethod(self._influence_index)
        return self._planner.compile(
            seeds, bucket, lambda: influence_index()(key)
        )

    def influence_index(
        self, seeds: frozenset[int] | set[int]
    ) -> dict[int, dict[int, float]]:
        """road id -> {seed -> fidelity} for a seed set (cached).

        Public accessor for diagnostics and the reference band loop in
        ``tests/oracles/uncertainty.py``.
        """
        return self._influence_index(frozenset(seeds))

    # ------------------------------------------------------------------
    # Influence caching
    # ------------------------------------------------------------------
    def _on_rows_invalidated(self, graph, roads) -> None:
        """Drop derived state built from invalidated fidelity rows.

        Wholesale (``roads`` None): flush the plan cache and forget every
        compiled shard set. Rows: the planner marks stale the shards of
        every live seed set that lost a row — cached plans and plans
        held elsewhere alike — and the plan cache counts them.
        """
        if graph is not None and graph is not self._graph:
            return
        if roads is None:
            self._influence_cache.clear()
            self._plans.invalidate()
            if self._planner is not None:
                self._planner.evict_structures(None)
        else:
            road_set = set(roads)
            stale = [key for key in self._influence_cache if key & road_set]
            for key in stale:
                del self._influence_cache[key]
            if self._planner is not None:
                self._plans.count_shard_evictions(
                    self._planner.evict_structures(road_set)
                )
        # In-place graph deltas invalidate the model's baked edge
        # potentials too (cheap: one pass over the edge list).
        self._trend_model.refresh_edges()

    def _influence_index(
        self, seeds: frozenset[int]
    ) -> dict[int, dict[int, float]]:
        """road id -> {seed -> fidelity} for the given seed set.

        Built from one batch of the shared cache's sparse rows, seeds in
        sorted order; a seed's own entry and zero entries are left out.
        """
        cached = self._influence_cache.get(seeds)
        if cached is None:
            cached = {}
            ordered = sorted(seeds)
            rows = self._fidelity.sparse_rows(
                self._graph, ordered, min_fidelity=self._params.min_fidelity
            )
            road_ids = self._fidelity.csr(self._graph).road_ids
            for seed, (indices, values) in zip(ordered, rows):
                for i, q in zip(indices.tolist(), values.tolist()):
                    road = road_ids[i]
                    if q != 0.0 and road != seed:
                        cached.setdefault(road, {})[seed] = q
            self._influence_cache[seeds] = cached
        return cached
