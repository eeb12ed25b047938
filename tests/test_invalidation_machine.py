"""Stateful differential for the fidelity service's one subscription.

Every cache derived from fidelity rows — the objective's row memos,
the warm CELF gains, the estimator's influence indexes, the planner's
shard sets and the plan cache — learns about graph changes from one
weak ``(graph, roads | None)`` subscription on the system's
:class:`~repro.history.fidelity.FidelityCacheService`. A
:class:`~hypothesis.stateful.RuleBasedStateMachine` interleaves graph
deltas (reweight, add or remove an edge, or cut a road off — announced
as a delta or by a wholesale invalidation of the graph), wholesale
invalidations,
re-selections, estimates and plan-backed prediction bands on one warm
system, and after every step compares it with a cold recompute on the
mutated graph: equal seeds and gains, and bitwise-equal speeds and
bands. A subscriber that missed an invalidation (or dropped too
little) shows as a mismatch on the next read. The machine runs once
with the default propagation inference and once with loopy belief
propagation, which reads the trend model's baked edge potentials.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import PipelineConfig
from repro.core.pipeline import SpeedEstimationSystem
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
from repro.history.incremental import GraphDelta
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.speed.estimator import TwoStepEstimator
from repro.speed.uncertainty import UncertaintyModel
from repro.trend.bp import LoopyBeliefPropagation

_BUDGET = 4
_AGREEMENTS = (0.62, 0.75, 0.88, 0.97)


def _bitwise(a, b, columns) -> None:
    assert a.road_ids == b.road_ids
    for name in columns:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class InvalidationMachine(RuleBasedStateMachine):
    """One warm system against a cold recompute after every step."""

    dataset = None  # set by the test below
    inference_method = "propagation"

    @initialize()
    def build(self):
        ds = self.dataset
        # A private, mutable copy that deltas mutate in place. Only the
        # strongest edges are kept: on the near-complete mined graph one
        # edge change rarely moves a best path, so little would change.
        self.graph = CorrelationGraph(
            ds.graph.road_ids,
            [edge for edge in ds.graph.edges() if edge.agreement >= 0.9],
        )
        self.system = SpeedEstimationSystem.from_parts(
            ds.network,
            ds.store,
            self.graph,
            PipelineConfig(inference_method=self.inference_method),
        )
        self.roads = list(self.graph.road_ids)
        self.intervals = list(ds.test_day_intervals())
        self.interval = self.intervals[0]
        self.seeds: list[int] = []
        self.reselect()

    # -- the cold recompute (test side only) ----------------------------
    def _cold_estimator(self) -> TwoStepEstimator:
        ds, config = self.dataset, self.system.config
        # The HLM fit reads only the history store, so sharing it keeps
        # the comparison about the graph-derived caches.
        return TwoStepEstimator(
            ds.network,
            ds.store,
            self.graph,
            hlm=self.system.estimator.hlm,
            trend_inference=(
                LoopyBeliefPropagation() if self.inference_method == "bp" else None
            ),
            hlm_params=config.hlm,
            fidelity_service=FidelityCacheService(),
        )

    def _speeds(self, interval: int) -> dict[int, float]:
        return {road: self.dataset.test.speed(road, interval) for road in self.seeds}

    def _check_round(self, interval: int) -> None:
        speeds = self._speeds(interval)
        warm = self.system.estimate(interval, speeds)
        cold_est = self._cold_estimator()
        cold = cold_est.estimate_interval(interval, speeds)
        _bitwise(warm, cold, ("speed", "trend", "p_rise", "is_seed"))
        warm_plan = self.system.estimator.plan_for(interval, self.seeds)
        cold_plan = cold_est.plan_for(interval, self.seeds)
        _bitwise(warm_plan, cold_plan, ("has_reg", "residual_std", "historical"))
        store = self.dataset.store
        _bitwise(
            UncertaintyModel(self.system.estimator, store).bands_for(warm, speeds),
            UncertaintyModel(cold_est, store).bands_for(cold, speeds),
            ("speed", "lower", "upper", "std"),
        )

    # -- graph deltas ---------------------------------------------------
    def _apply(self, delta: GraphDelta, wholesale: bool) -> None:
        self.graph.apply_delta(delta)
        if wholesale:
            self.system.fidelity_service.invalidate(self.graph)
        else:
            self.system.apply_graph_delta(delta)

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(
        data=st.data(),
        agreement=st.sampled_from(_AGREEMENTS),
        wholesale=st.booleans(),
    )
    def reweight_edge(self, data, agreement, wholesale):
        edge = data.draw(st.sampled_from(list(self.graph.edges())))
        self._apply(
            GraphDelta(
                added=(),
                removed=(),
                reweighted=(CorrelationEdge(edge.road_u, edge.road_v, agreement),),
            ),
            wholesale,
        )

    @rule(
        data=st.data(),
        agreement=st.sampled_from(_AGREEMENTS),
        wholesale=st.booleans(),
    )
    def add_edge(self, data, agreement, wholesale):
        present = {(e.road_u, e.road_v) for e in self.graph.edges()}
        absent = [
            (u, v)
            for i, u in enumerate(self.roads)
            for v in self.roads[i + 1:]
            if (u, v) not in present
        ]
        if not absent:
            return
        road_u, road_v = data.draw(st.sampled_from(absent))
        self._apply(
            GraphDelta(
                added=(CorrelationEdge(road_u, road_v, agreement),),
                removed=(),
                reweighted=(),
            ),
            wholesale,
        )

    @precondition(lambda self: self.graph.num_edges > 0)
    @rule(data=st.data(), wholesale=st.booleans())
    def remove_edge(self, data, wholesale):
        edge = data.draw(st.sampled_from(list(self.graph.edges())))
        self._apply(
            GraphDelta(added=(), removed=((edge.road_u, edge.road_v),), reweighted=()),
            wholesale,
        )

    @rule(road_index=st.integers(min_value=0), wholesale=st.booleans())
    def cut_road(self, road_index, wholesale):
        road = self.roads[road_index % len(self.roads)]
        removed = tuple((e.road_u, e.road_v) for e in self.graph.neighbours(road))
        if removed:
            self._apply(GraphDelta(added=(), removed=removed, reweighted=()), wholesale)

    @rule()
    def invalidate_everything(self):
        self.system.fidelity_service.invalidate()

    # -- reads ----------------------------------------------------------
    @rule()
    def reselect(self):
        self.seeds = self.system.reselect_seeds(_BUDGET)
        cold = lazy_greedy_select(
            SeedSelectionObjective(
                self.graph,
                min_fidelity=self.system.config.hlm.min_fidelity,
                fidelity_service=FidelityCacheService(),
            ),
            _BUDGET,
        )
        assert self.system.selection.seeds == cold.seeds
        assert self.system.selection.gains == cold.gains

    @precondition(lambda self: bool(self.seeds))
    @rule(index=st.integers(min_value=0))
    def estimate(self, index):
        self.interval = self.intervals[index % len(self.intervals)]
        speeds = self._speeds(self.interval)
        warm = self.system.estimate(self.interval, speeds)
        cold = self._cold_estimator().estimate_interval(self.interval, speeds)
        _bitwise(warm, cold, ("speed", "trend", "p_rise", "is_seed"))

    @precondition(lambda self: bool(self.seeds))
    @rule(index=st.integers(min_value=0))
    def plan_for_with_bands(self, index):
        self.interval = self.intervals[index % len(self.intervals)]
        self._check_round(self.interval)

    @invariant()
    def matches_cold_recompute(self):
        if self.seeds:
            self._check_round(self.interval)


@pytest.mark.parametrize("inference", ["propagation", "bp"])
def test_invalidation_machine(tiny_dataset, inference):
    class Machine(InvalidationMachine):
        dataset = tiny_dataset
        inference_method = inference

    run_state_machine_as_test(
        Machine,
        settings=settings(
            max_examples=100,
            stateful_step_count=15,
            deadline=None,
            suppress_health_check=list(HealthCheck),
            derandomize=True,
        ),
    )
