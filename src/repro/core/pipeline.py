"""The end-to-end speed-estimation system — the package's front door.

:class:`SpeedEstimationSystem` composes everything the paper describes:

1. **fit** — from a road network and historical speed data, build the
   historical store, mine the correlation graph, and fit the two-step
   model (trend MRF + hierarchical linear model);
2. **select_seeds(K)** — choose the budgeted crowdsourcing roads with
   the configured selection algorithm;
3. **estimate(interval, seed_speeds)** — turn one round of crowdsourced
   seed speeds into a speed estimate for every road.

A convenience :meth:`run_round` drives a whole crowdsourcing round
against a simulated truth field and worker pool, which is what the
examples and the live-monitoring style deployments do.

Typical use::

    system = SpeedEstimationSystem.fit(network, grid, [history_field])
    seeds = system.select_seeds(budget=50)
    estimates = system.estimate(interval, crowd_speeds_for(seeds))
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Sequence

from repro.core.config import PipelineConfig
from repro.core.errors import ConfigError, SelectionError
from repro.core.field import SpeedField
from repro.core.pool import SharedWorkerPool
from repro.core.types import SpeedEstimate
from repro.crowd.platform import CrowdsourcingPlatform, SpeedQueryTask
from repro.crowd.report import RoundReport
from repro.history.correlation import CorrelationGraph, mine_correlation_graph
from repro.history.fidelity import FidelityCacheService
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.seeds.baselines import k_center_select, random_select, top_degree_select
from repro.seeds.greedy import SelectionResult, greedy_select
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictStage
from repro.speed.degradation import DegradationParams, DegradationPolicy
from repro.speed.estimator import EstimateColumns, TwoStepEstimator
from repro.speed.plan import IntervalPlanner
from repro.trend.bp import LoopyBeliefPropagation
from repro.trend.gibbs import GibbsSamplingInference
from repro.trend.propagation import TrendPropagationInference


class RoundOutcome(Mapping):
    """Everything one :meth:`SpeedEstimationSystem.run_round` produced.

    Behaves as a road id -> :class:`~repro.core.types.SpeedEstimate`
    mapping for drop-in compatibility with the previous return type,
    and additionally carries the crowdsourcing
    :class:`~repro.crowd.report.RoundReport`, the real observations the
    crowd delivered, and the seeds whose observations had to be
    substituted (road id -> ``"stale"`` | ``"prior"``).
    """

    def __init__(
        self,
        estimates: Mapping[int, SpeedEstimate],
        report: RoundReport,
        observed: dict[int, float],
        substituted: dict[int, str],
    ) -> None:
        self._estimates = estimates
        self.report = report
        self.observed = dict(observed)
        self.substituted = dict(substituted)

    @property
    def estimates(self) -> dict[int, SpeedEstimate]:
        return dict(self._estimates)

    @property
    def degraded(self) -> bool:
        """True when the round was partial in any way."""
        return bool(self.substituted) or self.report.is_degraded

    def __getitem__(self, road_id: int) -> SpeedEstimate:
        return self._estimates[road_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._estimates)

    def __len__(self) -> int:
        return len(self._estimates)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"RoundOutcome(roads={len(self)}, degraded={self.degraded}, "
            f"substituted={len(self.substituted)})"
        )


class SpeedEstimationSystem:
    """The fitted system. Construct with :meth:`fit` or :meth:`from_parts`."""

    def __init__(
        self,
        network: RoadNetwork,
        store: HistoricalSpeedStore,
        graph: CorrelationGraph,
        config: PipelineConfig,
    ) -> None:
        self._network = network
        self._store = store
        self._graph = graph
        self._config = config
        # One influence cache for the whole system: Step-1 inference,
        # seed selection and Step-2 regression all share fidelity rows.
        self._fidelity = FidelityCacheService()
        self._inference = self._build_inference(config, self._fidelity)
        self._objective = SeedSelectionObjective(
            graph,
            min_fidelity=config.hlm.min_fidelity,
            fidelity_service=self._fidelity,
        )
        self._estimator = TwoStepEstimator(
            network,
            store,
            graph,
            trend_inference=self._inference,
            hlm_params=config.hlm,
            fidelity_service=self._fidelity,
        )
        self._seeds: list[int] = []
        self._selection: SelectionResult | None = None
        self._degradation = DegradationPolicy(store, config.degradation)
        # Lazy: the district stage and its worker pool, and the
        # warm-started incremental re-selector.
        self._pool: SharedWorkerPool | None = None
        self._districts: DistrictStage | None = None
        self._reselector = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        network: RoadNetwork,
        grid: TimeGrid,
        history: Sequence[SpeedField],
        config: PipelineConfig | None = None,
    ) -> "SpeedEstimationSystem":
        """Build the full system from raw historical speed fields."""
        config = config or PipelineConfig()
        if grid.interval_minutes != config.interval_minutes:
            raise ConfigError(
                f"grid interval {grid.interval_minutes} does not match "
                f"config interval {config.interval_minutes}"
            )
        with get_recorder().span(
            "pipeline.fit", roads=network.num_segments, days=len(history)
        ):
            store = HistoricalSpeedStore.from_fields(grid, list(history))
            graph = mine_correlation_graph(
                network,
                store,
                max_hops=config.correlation_max_hops,
                min_agreement=config.correlation_min_agreement,
                min_valid_fraction=config.correlation_min_valid_fraction,
            )
            return cls(network, store, graph, config)

    @classmethod
    def from_parts(
        cls,
        network: RoadNetwork,
        store: HistoricalSpeedStore,
        graph: CorrelationGraph,
        config: PipelineConfig | None = None,
    ) -> "SpeedEstimationSystem":
        """Build from pre-computed store and correlation graph."""
        return cls(network, store, graph, config or PipelineConfig())

    @staticmethod
    def _build_inference(config: PipelineConfig, fidelity: FidelityCacheService):
        if config.inference_method == "propagation":
            return TrendPropagationInference(
                min_fidelity=config.hlm.min_fidelity,
                fidelity_service=fidelity,
            )
        if config.inference_method == "bp":
            return LoopyBeliefPropagation()
        return GibbsSamplingInference()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def store(self) -> HistoricalSpeedStore:
        return self._store

    @property
    def graph(self) -> CorrelationGraph:
        return self._graph

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def estimator(self) -> TwoStepEstimator:
        return self._estimator

    @property
    def fidelity_service(self) -> FidelityCacheService:
        """The influence cache shared by every stage of this system."""
        return self._fidelity

    @property
    def plan_cache(self) -> IntervalPlanner:
        """The compiled interval plans serving Step-2 estimation."""
        return self._estimator.plan_cache

    @property
    def objective(self) -> SeedSelectionObjective:
        return self._objective

    @property
    def seeds(self) -> list[int]:
        """The currently selected seed roads (empty before selection)."""
        return list(self._seeds)

    @property
    def selection(self) -> SelectionResult | None:
        return self._selection

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def select_seeds(
        self, budget: int, method: str | None = None, random_seed: int = 0
    ) -> list[int]:
        """Select and remember the budget-K crowdsourcing seed roads."""
        recorder = get_recorder()
        num_roads = len(self._graph.road_ids)
        if budget < 1:
            recorder.count("seeds.budget_rejected", reason="non_positive")
            raise SelectionError(
                f"seed budget must be >= 1, got K={budget} (correlation "
                f"graph has {num_roads} roads)"
            )
        if budget > num_roads:
            recorder.count("seeds.budget_rejected", reason="exceeds_graph")
            raise SelectionError(
                f"seed budget K={budget} exceeds the {num_roads} roads "
                "in the correlation graph; lower the budget or mine a "
                "larger correlation graph"
            )
        method = method or self._config.selection_method
        with recorder.span("seeds.select", method=method, budget=budget) as span:
            if method == "greedy":
                result = greedy_select(self._objective, budget)
            elif method == "lazy":
                result = lazy_greedy_select(self._objective, budget)
            elif method == "partition":
                result = self.district_stage().select(budget)
            elif method == "random":
                result = random_select(self._objective, budget, seed=random_seed)
            elif method == "top-degree":
                result = top_degree_select(self._objective, budget)
            elif method == "k-center":
                result = k_center_select(self._objective, budget, self._network)
            else:
                recorder.count("seeds.budget_rejected", reason="unknown_method")
                raise SelectionError(f"unknown selection method {method!r}")
            span.set(
                evaluations=result.evaluations,
                objective=round(result.final_value, 3),
            )
        self._selection = result
        self._seeds = list(result.seeds)
        return self.seeds

    def district_stage(self) -> DistrictStage:
        """The partition seed-selection stage, created on first use.

        Its district tasks run on a worker pool of
        ``min(num_partition_workers, num_partitions)`` processes when
        that is more than one (a worker beyond the district count never
        receives a task), in the parent otherwise; the selection is the
        same either way.
        Call :meth:`close` (or use the system as a context manager) to
        release the workers and the shared-memory segments.
        """
        if self._districts is None:
            config = self._config
            workers = min(config.num_partition_workers, config.num_partitions)
            if workers > 1:
                self._pool = SharedWorkerPool(workers)
            self._districts = DistrictStage(
                self._objective, self._pool, num_partitions=config.num_partitions
            )
        return self._districts

    def reselect_seeds(self, budget: int) -> list[int]:
        """Re-select seeds with the warm-started incremental CELF.

        The first call pays a full empty-set scan (identical cost to
        ``select_seeds(method="lazy")``). A later call with the same
        budget and no candidate whose fidelity row was invalidated since
        reuses the previous picks without a gain query
        (``selection.evaluations == 0``, counted by
        ``seeds.reselect.reused``); otherwise it runs a full CELF pass
        that re-evaluates only the invalidated candidates. The returned
        sequence is always identical to a cold lazy selection, so
        switching a system to incremental re-selection never changes
        its seeds.
        """
        if self._reselector is None:
            from repro.seeds.reselect import IncrementalCelfSelector

            self._reselector = IncrementalCelfSelector(self._objective)
        result = self._reselector.select(budget)
        self._selection = result
        self._seeds = list(result.seeds)
        return self.seeds

    def apply_graph_delta(self, delta) -> tuple[int, ...]:
        """Refresh caches selectively after an in-place graph change.

        Call right after a :class:`~repro.history.incremental.GraphDelta`
        was applied to this system's correlation graph (the streaming
        path — :meth:`bind_rolling` wires it automatically). The
        fidelity service drops only provably affected influence rows
        (see :meth:`~repro.history.fidelity.FidelityCacheService.
        apply_graph_delta`), which cascades through the service's
        subscribers: compiled plan structures over dropped seeds, CELF
        gains and objective memos. Everything else keeps
        serving warm; the district stage republishes its context on the
        same workers once it sees the rebuilt CSR. Returns the dropped
        source roads.
        """
        if delta.is_empty:
            return ()
        return self._fidelity.apply_graph_delta(self._graph, delta)

    def bind_rolling(self, rolling) -> "SpeedEstimationSystem":
        """Wire a :class:`~repro.history.online.RollingHistory` to this
        system: every incremental re-mine flows its delta into
        :meth:`apply_graph_delta`.

        The rolling history must serve the **same graph object** this
        system was built from (build via ``from_parts(network,
        rolling.store, rolling.graph)``); deltas for other graphs are
        ignored.
        """
        def _on_delta(graph, delta):
            if graph is self._graph:
                self.apply_graph_delta(delta)

        rolling.add_delta_listener(_on_delta)
        return self

    def close(self) -> None:
        """Stop the worker pool and unlink its shared-memory segments."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "SpeedEstimationSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def estimate(
        self, interval: int, seed_speeds: dict[int, float]
    ) -> EstimateColumns:
        """One estimation round from crowdsourced seed speeds."""
        return self._estimator.estimate_interval(interval, seed_speeds)

    def estimate_round(
        self, interval: int, observed: dict[int, float]
    ) -> tuple[EstimateColumns, dict[int, float], dict[int, str]]:
        """Estimate from a possibly partial round of seed observations.

        Seeds the crowd left unanswered are substituted by the
        degradation policy, the filled observations go through
        :meth:`estimate`, and the substituted seeds' estimates come back
        flagged ``degraded``. Returns (estimates, filled observations,
        substituted seeds -> reason). Counts nothing: the caller records
        the round once with :meth:`record_substitutions`.
        """
        filled, substituted = self._degradation.fill_missing(
            interval, observed, self._seeds
        )
        estimates = self.estimate(interval, filled).with_degraded(substituted)
        return estimates, filled, substituted

    @staticmethod
    def record_substitutions(substituted: dict[int, str]) -> None:
        """Count one round's substituted seeds and degraded estimates."""
        recorder = get_recorder()
        for reason in substituted.values():
            recorder.count("pipeline.substitutions", reason=reason)
        if substituted:
            recorder.count("speed.degraded_estimates", len(substituted))

    @property
    def degradation(self) -> DegradationPolicy:
        """The seed-substitution policy state shared across rounds."""
        return self._degradation

    def run_round(
        self,
        interval: int,
        truth: SpeedField,
        platform: CrowdsourcingPlatform,
        crowd_seed: int = 0,
    ) -> RoundOutcome:
        """Full round: crowdsource the selected seeds, then estimate.

        Requires :meth:`select_seeds` to have been called. The platform
        perturbs the truth with worker noise before estimation, so this
        is the realistic end-to-end path. The round degrades gracefully:
        tasks the crowd failed to answer are substituted with decayed
        last-known observations or historical-prior pseudo-observations,
        estimation always completes, and the substituted seeds' estimates
        come back flagged ``degraded``.
        """
        if not self._seeds:
            raise SelectionError("call select_seeds before run_round")
        recorder = get_recorder()
        recorder.round_begin(interval)
        tasks = [
            SpeedQueryTask(road, interval, truth.speed(road, interval))
            for road in self._seeds
        ]
        crowd_round = platform.collect(tasks, seed=crowd_seed)
        observed = crowd_round.speeds()
        estimates, _, substituted = self.estimate_round(interval, observed)
        self.record_substitutions(substituted)
        self._degradation.observe(interval, observed)
        outcome = RoundOutcome(
            estimates=estimates,
            report=crowd_round.report,
            observed=observed,
            substituted=substituted,
        )
        recorder.round_end(
            interval,
            seeds=len(self._seeds),
            answered=len(observed),
            failed=len(crowd_round.report.failed_roads),
            substituted=len(substituted),
            degraded=outcome.degraded,
            cost=crowd_round.report.total_cost,
        )
        return outcome

