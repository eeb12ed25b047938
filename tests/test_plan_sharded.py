"""One Step-2 plan structure per seed set: bitwise differentials and row-scoped refresh.

The Step-2 planner (``repro.speed.plan.IntervalPlanner``) compiles one
structure over the whole road order as a refresh from the prior, and
must be **bitwise identical** to the whole-city oracle plan
(``tests/oracles/plan.py``), which fits every road in one batch — not
merely close: every per-road quantity is row-independent. A refresh
after a graph delta refits exactly the rows whose ranked seeds changed,
patches the structure in place, and must equal a cold compile of the
new rows bit for bit. Every compile runs in the parent: a system opens
no worker pool for Step 2.
"""

from __future__ import annotations

from multiprocessing.connection import wait

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
from repro.obs import FlightRecorder, set_recorder
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from tests.oracles import oracle_estimator
from tests.oracles.delta import EdgeTuples


def _counter(rec, name, **labels):
    return rec.registry.counter(name, **labels).value


def _compile_spans(rec):
    return [s for s in rec.tracer.drain() if s.name == "speed.plan.compile"]


@pytest.fixture(scope="module")
def fitted(small_dataset):
    """One fitted HLM shared by every estimator in this module."""
    params = HlmParams()
    hlm = HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph, params
    )
    return small_dataset, hlm, params


def _estimator(dataset, hlm, params, graph=None, fidelity=None):
    """A fresh production estimator."""
    return TwoStepEstimator(
        dataset.network,
        dataset.store,
        graph if graph is not None else dataset.graph,
        hlm=hlm,
        hlm_params=params,
        fidelity_service=fidelity or FidelityCacheService(),
    )


def _oracle(dataset, hlm, params, graph=None):
    """A fresh estimator serving through the whole-city oracle plan."""
    return oracle_estimator(
        dataset.network,
        dataset.store,
        graph if graph is not None else dataset.graph,
        hlm=hlm,
        hlm_params=params,
        fidelity_service=FidelityCacheService(),
    )


def _speeds(dataset, seeds, interval, factor=1.0):
    return {r: dataset.test.speed(r, interval) * factor for r in seeds}


def _assert_bitwise(a, b):
    assert set(a) == set(b)
    for road in a:
        assert a[road] == b[road], (
            f"road {road}: planner {b[road]} != whole-city oracle {a[road]}"
        )


def _copy(graph):
    return CorrelationGraph(graph.road_ids, list(graph.edges()))


class TestShardedBitwise:
    """The one-structure plan against the whole-city oracle plan."""

    @pytest.mark.parametrize("num_seeds", [1, 2, 4, 7, 10_000])
    def test_matches_monolithic(self, fitted, num_seeds):
        """One seed (width 1) up to every road a seed (nothing fitted)."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        mono = _oracle(dataset, hlm, params)
        est = _estimator(dataset, hlm, params)
        seeds = roads[:: max(1, len(roads) // num_seeds)][:num_seeds]
        intervals = dataset.test_day_intervals()[:3]
        for factor in (1.0, 0.82):
            for interval in intervals:
                speeds = _speeds(dataset, seeds, interval, factor)
                _assert_bitwise(
                    mono.estimate_interval(interval, speeds),
                    est.estimate_interval(interval, speeds),
                )

    def test_default_planner_is_one_district(self, fitted):
        """The planner compiles one structure over the whole road order."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        est = _estimator(dataset, hlm, params)
        seeds = roads[::17][:7]
        interval = dataset.test_day_intervals()[0]
        speeds = _speeds(dataset, seeds, interval)
        _assert_bitwise(
            _oracle(dataset, hlm, params).estimate_interval(interval, speeds),
            est.estimate_interval(interval, speeds),
        )
        plan = est.plan_for(interval, speeds)
        assert plan._structure.num_roads == len(roads)
        assert plan.road_ids == tuple(roads)

    def test_seeds_concentrated_in_one_district(self, fitted):
        """Every seed in the first quarter of the road order."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        seeds = roads[: len(roads) // 4][:6]
        interval = dataset.test_day_intervals()[0]
        speeds = _speeds(dataset, seeds, interval)
        _assert_bitwise(
            _oracle(dataset, hlm, params).estimate_interval(interval, speeds),
            _estimator(dataset, hlm, params).estimate_interval(interval, speeds),
        )


def _split_graph(road_ids):
    """Two disconnected chain components over one road set.

    Influence cannot cross components, so a delta in one half must
    leave the other half's rows untouched.
    """
    roads = sorted(road_ids)
    half = len(roads) // 2
    first, second = roads[:half], roads[half:]
    edges = [
        CorrelationEdge(a, b, 0.8)
        for chunk in (first, second)
        for a, b in zip(chunk, chunk[1:])
    ]
    return CorrelationGraph(roads, edges), tuple(first), tuple(second)


class TestRowScopedRefresh:
    def _build(self, dataset):
        graph, first, second = _split_graph(dataset.graph.road_ids)
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(
            dataset.store, dataset.network, graph, params
        )
        fidelity = FidelityCacheService()
        est = _estimator(dataset, hlm, params, graph=graph, fidelity=fidelity)
        cache = est.plan_cache
        return graph, hlm, params, fidelity, cache, est, first, second

    def test_delta_refits_only_changed_rows(self, small_dataset):
        rec = FlightRecorder()
        previous = set_recorder(rec)
        try:
            graph, hlm, params, fidelity, cache, est, first, second = (
                self._build(small_dataset)
            )
            seeds = [first[5], first[20], second[5], second[20]]
            interval = small_dataset.test_day_intervals()[0]
            speeds = _speeds(small_dataset, seeds, interval)
            before = est.estimate_interval(interval, speeds)
            assert cache.stats().size == 1
            (cold,) = _compile_spans(rec)

            plan = est.plan_for(interval, seeds)
            structure = plan._structure
            ranked_before = structure.seed_idx.copy()

            # Cut the *second* chain next to seed second[5]: roads past
            # the cut lose that seed, so their ranked seeds change.
            delta = EdgeTuples(removed=((second[6], second[7]),)).delta()
            graph.apply_delta(delta)
            dropped = fidelity.apply_graph_delta(graph, delta)
            assert dropped, "delta must invalidate fidelity rows"
            assert set(dropped) <= set(second), (
                "disconnected components: drops stay in the touched half"
            )

            # The plan stayed cached; its structure was marked, not evicted.
            assert cache.stats().size == 1
            assert cache.stats().shard_evictions == 1
            assert est.plan_for(interval, seeds) is plan
            assert _counter(rec, "plan.shards_evicted") == 1

            after = est.estimate_interval(interval, speeds)
            (refresh,) = _compile_spans(rec)
            assert plan._structure is structure, "refreshed in place"
            changed = np.flatnonzero(
                (structure.seed_idx != ranked_before).any(axis=1)
            )
            assert 0 < refresh.attrs["rows_fitted"] < cold.attrs["rows_fitted"]
            assert refresh.attrs["rows_fitted"] == changed.size
            touched = {plan.road_ids[i] for i in changed}
            assert touched <= set(second)

            # The refreshed result matches a cold whole-city oracle
            # estimator over the mutated graph, bit for bit.
            mono = _oracle(small_dataset, hlm, params, graph=graph)
            _assert_bitwise(mono.estimate_interval(interval, speeds), after)
            # The delta moved the touched half's numbers only.
            assert any(before[r] != after[r] for r in second)
            assert all(before[r] == after[r] for r in first)
        finally:
            set_recorder(previous)

    def test_mark_stale_without_seed_overlap_is_noop(self, small_dataset):
        graph, hlm, params, fidelity, cache, est, first, second = self._build(
            small_dataset
        )
        seeds = [first[5], second[5]]
        interval = small_dataset.test_day_intervals()[0]
        est.estimate_interval(interval, _speeds(small_dataset, seeds, interval))
        plan = est.plan_for(interval, seeds)
        coef = plan._structure.coef.copy()
        fidelity.invalidate_rows(graph, {first[40], second[40]})
        assert cache.stats().shard_evictions == 0
        assert not plan._structure.stale
        rec = FlightRecorder()
        previous = set_recorder(rec)
        try:
            est.estimate_interval(interval, _speeds(small_dataset, seeds, interval))
        finally:
            set_recorder(previous)
        assert not _compile_spans(rec)
        assert plan._structure.coef.tobytes() == coef.tobytes()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_refresh_equals_cold_compile_property(self, fitted, data):
        """Any seed subset, any one-edge delta: refresh equals cold, bitwise."""
        dataset, hlm, params = fitted
        graph = _copy(dataset.graph)
        roads = list(graph.road_ids)
        n = len(roads)
        seed_idx = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=2,
                max_size=8,
                unique=True,
            ),
            label="seeds",
        )
        seeds = [roads[i] for i in seed_idx]
        fidelity = FidelityCacheService()
        est = _estimator(dataset, hlm, params, graph=graph, fidelity=fidelity)
        interval = dataset.test_day_intervals()[1]
        speeds = _speeds(dataset, seeds, interval)
        est.estimate_interval(interval, speeds)

        anchor = seeds[data.draw(st.integers(0, len(seeds) - 1), label="anchor")]
        near = graph.neighbours(anchor) or list(graph.edges())
        edge = near[data.draw(st.integers(0, len(near) - 1), label="edge")]
        if data.draw(st.booleans(), label="remove"):
            delta = EdgeTuples(removed=((edge.road_u, edge.road_v),)).delta()
        else:
            weight = data.draw(st.sampled_from([0.55, 0.7, 0.93]), label="w")
            delta = EdgeTuples(
                reweighted=(CorrelationEdge(edge.road_u, edge.road_v, weight),),
            ).delta()
        graph.apply_delta(delta)
        fidelity.apply_graph_delta(graph, delta)
        refreshed = est.estimate_interval(interval, speeds)

        cold = _estimator(dataset, hlm, params, graph=graph)
        _assert_bitwise(cold.estimate_interval(interval, speeds), refreshed)
        warm = est.plan_for(interval, speeds)._structure
        fresh = cold.plan_for(interval, speeds)._structure
        for column in ("coef", "seed_idx", "reg_weight", "has_reg", "residual_std"):
            assert getattr(warm, column).tobytes() == getattr(fresh, column).tobytes()
        _assert_bitwise(
            _oracle(dataset, hlm, params, graph=graph).estimate_interval(
                interval, speeds
            ),
            refreshed,
        )


class TestPipelineShardedPlan:
    def test_opens_no_pool(self, small_dataset):
        """Step 2 never uses a worker pool, whatever the worker count.

        ``use_sharded_plan`` is accepted and ignored.
        """
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import SpeedEstimationSystem

        config = PipelineConfig(use_sharded_plan=True, num_partition_workers=8)
        interval = small_dataset.test_day_intervals()[0]
        before = _shm_segments()
        with SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph, config
        ) as system:
            seeds = system.select_seeds(8)
            assert system.config.selection_method == "lazy"
            speeds = _speeds(small_dataset, seeds, interval)
            got = system.estimate(interval, speeds)
            assert system._pool is None
            oracle = _oracle(small_dataset, system.estimator.hlm, config.hlm)
            _assert_bitwise(oracle.estimate_interval(interval, speeds), got)
        assert not (_shm_segments() - before), "a shared-memory segment appeared"


def _shm_segments():
    import os

    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - platform without /dev/shm
        return set()


def _worker_processes(pool):
    """The live worker processes of a pool that has run a batch."""
    return list(pool._resources.executor._processes.values())


def _exited(process, timeout=30.0):
    """Whether ``process`` exits within ``timeout`` seconds.

    Waits on the process sentinel, not ``join``/``is_alive``: the
    executor's manager thread reaps a dead worker through the same
    ``Process`` object, and a ``waitpid`` that loses that race leaves
    ``is_alive()`` reporting a killed worker as alive.
    """
    return bool(wait([process.sentinel], timeout))


class TestDefaultConfigDelta:
    def test_delta_refreshes_the_one_district(self, small_dataset, monkeypatch):
        """Default config: one structure, no partition, exact after a delta."""
        import repro.seeds.partition as partition
        from repro.core.pipeline import SpeedEstimationSystem
        from repro.obs import recording

        def no_partition(*args, **kwargs):
            raise AssertionError("the default config must not partition")

        monkeypatch.setattr(partition, "partition_graph", no_partition)
        graph = _copy(small_dataset.graph)
        interval = small_dataset.test_day_intervals()[0]
        with recording() as rec, SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, graph
        ) as system:
            seeds = system.select_seeds(6)
            rec.tracer.drain()
            speeds = _speeds(small_dataset, seeds, interval)
            before = system.estimate(interval, speeds)
            assert len(_compile_spans(rec)) == 1

            edge = graph.neighbours(seeds[0])[0]
            weight = 0.93 if abs(edge.agreement - 0.93) > 1e-9 else 0.88
            delta = EdgeTuples(
                reweighted=(CorrelationEdge(edge.road_u, edge.road_v, weight),),
            ).delta()
            graph.apply_delta(delta)
            assert seeds[0] in system.apply_graph_delta(delta)
            after = system.estimate(interval, speeds)
            (refresh,) = _compile_spans(rec)
            assert refresh.attrs["rows_fitted"] > 0
            assert system.plan_cache.stats().size == 1
            assert any(before[r] != after[r] for r in after)

        with SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, graph
        ) as cold:
            _assert_bitwise(cold.estimate(interval, speeds), after)
