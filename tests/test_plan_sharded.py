"""District-partitioned interval plans: bitwise differentials and scoped eviction.

The Step-2 planner (``repro.speed.plan.IntervalPlanner``) must be
**bitwise identical** to the whole-city oracle plan
(``tests/oracles/plan.py``) — not merely close: every per-road quantity
in the evaluation is row-independent, so compiling district slices and
stitching them back must reproduce the whole-city arrays bit for bit,
across any partition shape (the default one district included), with or
without the worker pool, and after a pool worker dies. Delta
eviction must be district-scoped: a row invalidation recompiles only the
districts a dropped seed's influence touches, and untouched districts'
structures survive by object identity.
"""

from __future__ import annotations

from multiprocessing.connection import wait

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InferenceError, ReproError
from repro.core.pool import SharedWorkerPool
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
from repro.history.incremental import GraphDelta
from repro.obs import FlightRecorder, set_recorder
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.speed.plan import IntervalPlanCache, IntervalPlanner
from tests.oracles import MonolithicPlanner


def _counter(rec, name, **labels):
    return rec.registry.counter(name, **labels).value


@pytest.fixture(scope="module")
def fitted(small_dataset):
    """One fitted HLM shared by every estimator in this module."""
    params = HlmParams()
    hlm = HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph, params
    )
    return small_dataset, hlm, params


def _estimator(dataset, hlm, params, partitions=None, pool=None, graph=None):
    """A fresh production estimator over ``partitions`` (None: one district)."""
    def factory(store, network, hlm_, road_ids):
        return IntervalPlanner(
            store, network, hlm_, road_ids, partitions, pool=pool
        )
    return _build(dataset, hlm, params, factory, graph)


def _oracle(dataset, hlm, params, graph=None):
    """A fresh estimator serving through the whole-city oracle plan."""
    return _build(dataset, hlm, params, MonolithicPlanner, graph)


def _build(dataset, hlm, params, factory, graph):
    return TwoStepEstimator(
        dataset.network,
        dataset.store,
        graph if graph is not None else dataset.graph,
        hlm=hlm,
        hlm_params=params,
        fidelity_service=FidelityCacheService(),
        planner_factory=factory,
    )


def _chunks(road_ids, num_districts):
    """Contiguous near-even partition of the road order."""
    roads = list(road_ids)
    num_districts = min(num_districts, len(roads))
    bounds = np.linspace(0, len(roads), num_districts + 1).astype(int)
    return [
        tuple(roads[bounds[i]: bounds[i + 1]])
        for i in range(num_districts)
        if bounds[i] < bounds[i + 1]
    ]


def _speeds(dataset, seeds, interval, factor=1.0):
    return {r: dataset.test.speed(r, interval) * factor for r in seeds}


def _assert_bitwise(a, b):
    assert set(a) == set(b)
    for road in a:
        assert a[road] == b[road], (
            f"road {road}: planner {b[road]} != whole-city oracle {a[road]}"
        )


class TestShardedBitwise:
    @pytest.mark.parametrize("num_districts", [1, 2, 7, 10_000])
    def test_matches_monolithic(self, fitted, num_districts):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        mono = _oracle(dataset, hlm, params)
        shard = _estimator(
            dataset, hlm, params, partitions=_chunks(roads, num_districts)
        )
        seeds = roads[::17][:7]
        intervals = dataset.test_day_intervals()[:3]
        for factor in (1.0, 0.82):
            for interval in intervals:
                speeds = _speeds(dataset, seeds, interval, factor)
                _assert_bitwise(
                    mono.estimate_interval(interval, speeds),
                    shard.estimate_interval(interval, speeds),
                )

    def test_default_planner_is_one_district(self, fitted):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        default = _build(dataset, hlm, params, None, None)  # no planner factory
        seeds = roads[::17][:7]
        interval = dataset.test_day_intervals()[0]
        speeds = _speeds(dataset, seeds, interval)
        _assert_bitwise(
            _oracle(dataset, hlm, params).estimate_interval(interval, speeds),
            default.estimate_interval(interval, speeds),
        )
        plan = default.plan_for(interval, speeds)
        assert len(plan.shards) == 1
        assert plan.shards[0].members == tuple(roads)

    def test_seeds_concentrated_in_one_district(self, fitted):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        partitions = _chunks(roads, 4)
        mono = _oracle(dataset, hlm, params)
        shard = _estimator(dataset, hlm, params, partitions=partitions)
        seeds = list(partitions[0])[:6]  # every seed in district 0
        interval = dataset.test_day_intervals()[0]
        speeds = _speeds(dataset, seeds, interval)
        _assert_bitwise(
            mono.estimate_interval(interval, speeds),
            shard.estimate_interval(interval, speeds),
        )

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_ragged_partitions_property(self, fitted, data):
        """Any disjoint contiguous cover, any seed subset: bitwise equal."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        n = len(roads)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n - 1),
                min_size=0,
                max_size=6,
                unique=True,
            ),
            label="cuts",
        )
        bounds = [0, *sorted(cuts), n]
        partitions = [
            tuple(roads[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if lo < hi
        ]
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
        mono = _oracle(dataset, hlm, params)
        shard = _estimator(dataset, hlm, params, partitions=partitions)
        interval = dataset.test_day_intervals()[1]
        speeds = _speeds(dataset, seeds, interval)
        _assert_bitwise(
            mono.estimate_interval(interval, speeds),
            shard.estimate_interval(interval, speeds),
        )

    def test_rejects_bad_partitions(self, fitted):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        with pytest.raises(InferenceError):
            IntervalPlanner(
                dataset.store, dataset.network, hlm, roads, []
            )
        with pytest.raises(InferenceError, match="more than one district"):
            IntervalPlanner(
                dataset.store, dataset.network, hlm, roads,
                [tuple(roads), (roads[0],)],
            )
        with pytest.raises(InferenceError, match="cover"):
            IntervalPlanner(
                dataset.store, dataset.network, hlm, roads, [tuple(roads[:10])]
            )


class TestPoolDifferential:
    def test_two_workers_four_districts_bitwise(self, fitted):
        """The CI differential: worker-compiled shards == whole-city oracle."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        mono = _oracle(dataset, hlm, params)
        with SharedWorkerPool(2) as pool:
            shard = _estimator(
                dataset, hlm, params,
                partitions=_chunks(roads, 4), pool=pool,
            )
            seeds = roads[::13][:8]
            for interval in dataset.test_day_intervals()[:2]:
                speeds = _speeds(dataset, seeds, interval)
                _assert_bitwise(
                    mono.estimate_interval(interval, speeds),
                    shard.estimate_interval(interval, speeds),
                )

    def test_closed_pool_raises(self, fitted):
        dataset, hlm, params = fitted
        pool = SharedWorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            IntervalPlanner(
                dataset.store, dataset.network, hlm,
                list(dataset.graph.road_ids), pool=pool,
            )


def _split_graph(road_ids):
    """Two disconnected chain components over one road set.

    Influence cannot cross components, so a delta in one half must
    leave the other half's shard untouched — the isolation the
    district-scoped eviction assertions need.
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


class TestDistrictScopedEviction:
    def _build(self, dataset):
        graph, first, second = _split_graph(dataset.graph.road_ids)
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(
            dataset.store, dataset.network, graph, params
        )
        fidelity = FidelityCacheService()
        cache = IntervalPlanCache(maxsize=8)

        def factory(store, network, hlm_, road_ids):
            return IntervalPlanner(
                store, network, hlm_, road_ids, [first, second]
            )

        est = TwoStepEstimator(
            dataset.network,
            dataset.store,
            graph,
            hlm=hlm,
            hlm_params=params,
            fidelity_service=fidelity,
            plan_cache=cache,
            planner_factory=factory,
        )
        return graph, hlm, params, fidelity, cache, est, first, second

    def test_delta_recompiles_only_touched_district(self, small_dataset):
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
            assert _counter(rec, "plan.shard_compiles", district="0") == 1
            assert _counter(rec, "plan.shard_compiles", district="1") == 1

            plan = next(iter(cache._plans.values()))
            structures = {s.district: s.structure for s in plan.shards}

            # Reweight one edge deep inside the *second* component.
            edge = graph.neighbours(second[5])[0]
            delta = GraphDelta(
                added=(),
                removed=(),
                reweighted=(
                    CorrelationEdge(edge.road_u, edge.road_v, 0.93),
                ),
            )
            graph.apply_delta(delta)
            dropped = fidelity.apply_graph_delta(graph, delta)
            assert dropped, "delta must invalidate fidelity rows"
            assert set(dropped) <= set(second), (
                "disconnected components: drops stay in the touched half"
            )

            # The plan stayed cached; its shards were marked, not evicted.
            assert cache.stats().size == 1
            assert cache.stats().shard_evictions == 1
            assert next(iter(cache._plans.values())) is plan
            assert _counter(rec, "plan.shards_evicted") == 1

            after = est.estimate_interval(interval, speeds)
            refreshed = {s.district: s.structure for s in plan.shards}
            assert refreshed[0] is structures[0], (
                "untouched district's structure must survive by identity"
            )
            assert refreshed[1] is not structures[1]
            assert _counter(rec, "plan.shard_compiles", district="0") == 1
            assert _counter(rec, "plan.shard_compiles", district="1") == 2

            # And the recompiled result matches a cold whole-city oracle
            # estimator over the mutated graph, bit for bit.
            mono = _oracle(small_dataset, hlm, params, graph=graph)
            _assert_bitwise(mono.estimate_interval(interval, speeds), after)
            # The delta moved the touched half's numbers.
            assert any(before[r] != after[r] for r in second)
        finally:
            set_recorder(previous)

    def test_mark_stale_without_seed_overlap_is_noop(self, small_dataset):
        graph, hlm, params, fidelity, cache, est, first, second = self._build(
            small_dataset
        )
        seeds = [first[5], second[5]]
        interval = small_dataset.test_day_intervals()[0]
        est.estimate_interval(interval, _speeds(small_dataset, seeds, interval))
        plan = next(iter(cache._plans.values()))
        structures = {s.district: s.structure for s in plan.shards}
        fidelity.invalidate_rows(graph, {first[40], second[40]})
        assert cache.stats().shard_evictions == 0
        est.estimate_interval(interval, _speeds(small_dataset, seeds, interval))
        assert all(
            s.structure is structures[s.district] for s in plan.shards
        )


class TestPipelinePlanPool:
    def test_workers_capped_at_district_count(self, small_dataset):
        """A worker beyond the district count would never get a task."""
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import SpeedEstimationSystem
        from repro.obs import recording

        config = PipelineConfig(
            use_sharded_plan=True, plan_shards=2, num_partition_workers=8
        )
        with recording() as rec, SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph, config
        ) as system:
            seeds = system.select_seeds(4)
            interval = small_dataset.test_day_intervals()[0]
            system.estimate(interval, _speeds(small_dataset, seeds, interval))
            assert system._pool.num_workers == 2
            assert rec.registry.gauge("pool.workers").value == 2
            # The parent gathers every task's Gram matrices and moments,
            # so the plan context exports no arrays.
            assert rec.registry.gauge("pool.shared_bytes", pool="plan").value == 0


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


class TestPoolFallback:
    def test_killed_worker_falls_back_in_process(self, small_dataset):
        """A SIGKILLed compile worker costs a fallback, not a round."""
        import os
        import signal

        from repro.core.config import PipelineConfig
        from repro.core.pipeline import SpeedEstimationSystem
        from repro.obs import recording

        config = PipelineConfig(
            use_sharded_plan=True, plan_shards=4, num_partition_workers=2
        )
        roads = list(small_dataset.graph.road_ids)
        interval = small_dataset.test_day_intervals()[0]
        before = _shm_segments()
        with recording() as rec:
            system = SpeedEstimationSystem.from_parts(
                small_dataset.network, small_dataset.store,
                small_dataset.graph, config,
            )
            try:
                warm = roads[::17][:6]
                system.estimate(interval, _speeds(small_dataset, warm, interval))
                workers = _worker_processes(system._pool)
                assert workers, "the first compile must have spawned workers"
                os.kill(workers[0].pid, signal.SIGKILL)
                assert _exited(workers[0])

                # A new seed set is a cold compile through the dead pool.
                seeds = roads[::13][:8]
                speeds = _speeds(small_dataset, seeds, interval)
                got = system.estimate(interval, speeds)
                assert rec.registry.counter("pool.fallbacks", pool="plan").value == 1
                # Later compiles stay in-process: no second fallback.
                system.estimate(interval, _speeds(small_dataset, roads[:5], interval))
                assert rec.registry.counter("pool.fallbacks", pool="plan").value == 1
                oracle = _oracle(
                    small_dataset, system.estimator.hlm, config.hlm
                )
                _assert_bitwise(oracle.estimate_interval(interval, speeds), got)
            finally:
                system.close()
        assert not (_shm_segments() - before), "a shared-memory segment survived"


class TestDefaultConfigDelta:
    def test_delta_refreshes_the_one_district(self, small_dataset, monkeypatch):
        """Default config: one district, no partition, exact after a delta."""
        import repro.seeds.partition as partition
        from repro.core.pipeline import SpeedEstimationSystem
        from repro.obs import recording

        def no_partition(*args, **kwargs):
            raise AssertionError("the default config must not partition")

        monkeypatch.setattr(partition, "partition_graph", no_partition)
        graph = CorrelationGraph(
            small_dataset.graph.road_ids, list(small_dataset.graph.edges())
        )
        interval = small_dataset.test_day_intervals()[0]
        with recording() as rec, SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, graph
        ) as system:
            seeds = system.select_seeds(6)
            speeds = _speeds(small_dataset, seeds, interval)
            before = system.estimate(interval, speeds)
            assert _counter(rec, "plan.shard_compiles", district="0") == 1

            edge = graph.neighbours(seeds[0])[0]
            weight = 0.93 if abs(edge.agreement - 0.93) > 1e-9 else 0.88
            delta = GraphDelta(
                added=(),
                removed=(),
                reweighted=(CorrelationEdge(edge.road_u, edge.road_v, weight),),
            )
            graph.apply_delta(delta)
            assert seeds[0] in system.apply_graph_delta(delta)
            after = system.estimate(interval, speeds)
            assert _counter(rec, "plan.shard_compiles", district="0") == 2
            assert system.plan_cache.stats().size == 1
            assert any(before[r] != after[r] for r in after)

        with SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, graph
        ) as cold:
            _assert_bitwise(cold.estimate(interval, speeds), after)
