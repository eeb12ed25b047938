"""Differential tests for the district stage, the one partition selector.

The contract under test: a :class:`~repro.seeds.parallel.DistrictStage`
returns the **identical** seed sequence, gains, values and evaluations
as the single-process reference in ``tests/oracles/partition.py``,
wherever its tasks run: in the parent (no pool, or a one-worker pool)
on clones of the objective that fill the shared fidelity cache exactly
as the reference does, or on a :class:`~repro.core.pool.
SharedWorkerPool` over shared CSR arrays, where workers recompute
influence rows with the same kernel and transform math. Districts
stitch in district order. Step 1 runs in the parent for every config,
so a pooled system's estimate columns (Step-1 posteriors included) are
byte-identical to an unpooled system's for the same seeds. All of it
holds after a worker is killed (the pool re-runs the batch in-process)
and after a graph delta (the stage re-partitions, and republishes its
context on the same workers). The pools here are small (at most 2
workers) so the differential runs in tier-1 CI.
"""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.errors import ConfigError, ReproError
from repro.core.pipeline import SpeedEstimationSystem
from repro.core.pool import SharedWorkerPool
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.incremental import GraphDelta
from repro.obs import recording
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictStage
from repro.seeds.partition import allocate_budget, partition_graph
from repro.speed.estimator import EstimateColumns
from tests.oracles.partition import partition_greedy_select
from tests.test_seeds_algorithms import _chain_pairs_graph
from tests.test_plan_sharded import (
    _exited,
    _oracle,
    _shm_segments,
    _speeds,
    _worker_processes,
)


@pytest.fixture(scope="module")
def objective(small_dataset):
    return SeedSelectionObjective(small_dataset.graph)


@pytest.fixture(scope="module")
def pool(objective):
    with SharedWorkerPool(2) as pool:
        yield DistrictStage(objective, pool, num_partitions=4)


class TestParallelVsSerialDifferential:
    def test_identical_selection(self, objective, pool):
        serial = partition_greedy_select(objective, 9, num_partitions=4)
        parallel = pool.select(9)
        assert parallel.seeds == serial.seeds
        assert parallel.gains == serial.gains
        assert parallel.values == serial.values
        assert parallel.evaluations == serial.evaluations
        assert parallel.method == serial.method == "partition-greedy"

    def test_identical_across_budgets(self, objective, pool):
        for budget in (1, 4, 13):
            serial = partition_greedy_select(objective, budget, 4)
            assert pool.select(budget).seeds == serial.seeds


@pytest.fixture(scope="module", params=["no-pool", "one-worker", "two-workers"])
def stage_pool(request):
    """Where district tasks run: the parent, a one-worker pool, two workers."""
    if request.param == "no-pool":
        yield None
        return
    with SharedWorkerPool(1 if request.param == "one-worker" else 2) as pool:
        yield pool


class TestStageMatchesOracle:
    """Every pool, district count and budget: the oracle's exact result."""

    @pytest.mark.parametrize("num_partitions", [1, 3, 4, 8])
    def test_small_city(self, small_dataset, stage_pool, num_partitions):
        graph = small_dataset.graph
        stage = DistrictStage(
            SeedSelectionObjective(graph), stage_pool, num_partitions=num_partitions
        )
        partitions = partition_graph(SeedSelectionObjective(graph), num_partitions)
        for budget in (1, 2, 7, 13):
            if num_partitions > 1 and budget < 3:
                assert 0 in allocate_budget(partitions, budget)
            _assert_same_selection(
                stage.select(budget),
                partition_greedy_select(
                    SeedSelectionObjective(graph), budget, num_partitions
                ),
            )

    @pytest.mark.parametrize("num_partitions", [1, 3, 8])
    def test_fragmented_graph(self, stage_pool, num_partitions):
        graph = _chain_pairs_graph(12)  # many tiny districts, many zero shares
        stage = DistrictStage(
            SeedSelectionObjective(graph), stage_pool, num_partitions=num_partitions
        )
        for budget in (1, 3, 5, 24):
            _assert_same_selection(
                stage.select(budget),
                partition_greedy_select(
                    SeedSelectionObjective(graph), budget, num_partitions
                ),
            )


class TestInProcessCache:
    @pytest.mark.parametrize(
        "config",
        [
            PipelineConfig(selection_method="partition", num_partitions=4),
            PipelineConfig(
                selection_method="partition",
                num_partitions=4,
                use_parallel_partitions=True,
                num_partition_workers=1,
            ),
        ],
        ids=["no-pool", "one-worker"],
    )
    def test_rows_land_in_the_shared_cache(self, small_dataset, config):
        """In the parent, the stage leaves the oracle's cache hits and misses.

        A per-task row memo would compute the district rows outside the
        shared service: its misses would count only the rescored seeds.
        """
        parts = (small_dataset.network, small_dataset.store, small_dataset.graph)
        with SpeedEstimationSystem.from_parts(*parts, config) as system:
            system.select_seeds(9)
            got = system.fidelity_service.stats()
            assert system.selection.method == "partition-greedy"
        reference = SpeedEstimationSystem.from_parts(*parts, config)
        oracle = partition_greedy_select(reference.objective, 9, num_partitions=4)
        assert system.selection.seeds == oracle.seeds
        assert got == reference.fidelity_service.stats()
        assert got.misses > len(oracle.seeds)


class TestDistrictPoolLifecycle:
    def test_partitions_match_partition_graph(self, objective, pool):
        assert pool.partitions == partition_graph(objective, 4)

    def test_worker_count_capped_by_districts(self, small_dataset):
        config = PipelineConfig(
            selection_method="partition",
            num_partitions=2,
            use_parallel_partitions=True,
            num_partition_workers=8,
        )
        with recording() as rec, SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph, config
        ) as system:
            system.select_seeds(3)
            assert system._pool.num_workers == 2
            assert rec.registry.gauge("pool.workers").value == 2
            assert rec.registry.gauge("pool.shared_bytes", pool="district").value > 0

    def test_closed_pool_rejects_work(self, objective):
        pool = SharedWorkerPool(1)
        stage = DistrictStage(objective, pool, num_partitions=2)
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            stage.select(2)
        pool.close()  # idempotent

class TestPipelineParallelIntegration:
    def test_parallel_system_matches_serial_system(self, small_dataset):
        parts = (
            small_dataset.network,
            small_dataset.store,
            small_dataset.graph,
        )
        serial_system = SpeedEstimationSystem.from_parts(
            *parts,
            PipelineConfig(selection_method="partition", num_partitions=4),
        )
        serial_seeds = serial_system.select_seeds(8)
        with SpeedEstimationSystem.from_parts(
            *parts,
            PipelineConfig(
                selection_method="partition",
                num_partitions=4,
                use_parallel_partitions=True,
                num_partition_workers=2,
            ),
        ) as parallel_system:
            assert parallel_system.select_seeds(8) == serial_seeds
            # Step 1 runs in the parent for every config: the pooled
            # estimate is the serial one, byte for byte.
            interval = small_dataset.test_day_intervals()[32]
            truth = small_dataset.test.speeds_at(interval)
            crowd = {road: truth[road] for road in serial_seeds}
            parallel_estimates = parallel_system.estimate(interval, crowd)
        _assert_same_columns(
            parallel_estimates, serial_system.estimate(interval, crowd)
        )

    def test_district_stage_on_default_config(self, small_dataset):
        system = SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        result = system.district_stage().select(5)
        assert system._pool is None, "a default config must not build a pool"
        _assert_same_selection(
            result,
            partition_greedy_select(
                SeedSelectionObjective(small_dataset.graph), 5, num_partitions=8
            ),
        )

    def test_worker_count_must_be_explicit(self):
        with pytest.raises(ConfigError, match="num_partition_workers"):
            PipelineConfig(num_partition_workers=0)
        assert PipelineConfig().num_partition_workers == 1

    def test_close_is_idempotent_without_pool(self, small_dataset):
        system = SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        system.close()  # never created a pool; must be a no-op


def _parallel_config(workers=2, **overrides):
    return PipelineConfig(
        selection_method="partition",
        num_partitions=4,
        use_parallel_partitions=True,
        num_partition_workers=workers,
        **overrides,
    )


def _assert_same_columns(got, want):
    assert got.road_ids == want.road_ids
    for column in EstimateColumns.COLUMNS:
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), (
            f"column {column} differs"
        )


def _assert_estimates_match_unpooled(system, dataset, graph, seeds, interval):
    """The pooled system serves an unpooled system's estimates bytewise.

    The unpooled system is built on the same (possibly mutated) graph
    with its own fidelity cache and an in-process whole-city planner;
    the Step-1 posteriors (``p_rise``) and every other column must be
    byte-identical, whatever the pool did before.
    """
    speeds = _speeds(dataset, seeds, interval)
    unpooled = SpeedEstimationSystem.from_parts(
        dataset.network,
        dataset.store,
        graph,
        PipelineConfig(selection_method="partition", num_partitions=4),
    )
    _assert_same_columns(
        system.estimate(interval, speeds), unpooled.estimate(interval, speeds)
    )


def _assert_same_selection(got, serial):
    assert got.method == serial.method
    assert got.seeds == serial.seeds
    assert got.gains == serial.gains
    assert got.values == serial.values
    assert got.evaluations == serial.evaluations


def _assert_plan_matches_oracle(system, dataset, config, interval, speeds):
    """The system's compiled plan is bitwise the whole-city oracle plan.

    Compared on the plan itself, with one shared posterior, so only the
    pooled Step-2 compile is under test.
    """
    oracle = _oracle(dataset, system.estimator.hlm, config.hlm)
    plan = system.estimator.plan_for(interval, speeds)
    whole = oracle.plan_for(interval, speeds)
    for column in ("has_reg", "residual_std", "historical"):
        assert getattr(plan, column).tobytes() == getattr(whole, column).tobytes()
    deviations = np.linspace(0.7, 1.3, len(speeds))
    p_rise = np.linspace(0.05, 0.95, len(plan.road_ids))
    assert (
        plan.evaluate(deviations, p_rise).tobytes()
        == whole.evaluate(deviations, p_rise).tobytes()
    )


class TestPoolCrash:
    def test_killed_worker_falls_back_for_both_stages(self, small_dataset):
        """A SIGKILLed worker costs one district fallback, not a round.

        The select batch re-runs whole in-process (so evaluations never
        double), later votes and plan compiles stay in-process without
        a second fallback, and close() leaves no segment behind.
        """
        import os
        import signal

        graph = small_dataset.graph
        serial = partition_greedy_select(
            SeedSelectionObjective(graph), 9, num_partitions=4
        )
        config = _parallel_config(use_sharded_plan=True, plan_shards=4)
        interval = small_dataset.test_day_intervals()[0]
        before = _shm_segments()
        with recording() as rec:
            system = SpeedEstimationSystem.from_parts(
                small_dataset.network, small_dataset.store, graph, config
            )
            try:
                system.select_seeds(9)
                workers = _worker_processes(system._pool)
                assert workers, "the first selection must have spawned workers"
                os.kill(workers[0].pid, signal.SIGKILL)
                assert _exited(workers[0])

                system.select_seeds(9)
                _assert_same_selection(system.selection, serial)
                fallbacks = rec.registry.counter("pool.fallbacks", pool="district")
                assert fallbacks.value == 1
                # The fallen-back pool runs later selections in the parent.
                assert system._pool.in_process
                system.select_seeds(9)
                _assert_same_selection(system.selection, serial)

                seeds = list(serial.seeds)
                _assert_estimates_match_unpooled(
                    system, small_dataset, graph, seeds, interval
                )
                speeds = _speeds(small_dataset, seeds, interval)
                _assert_plan_matches_oracle(
                    system, small_dataset, config, interval, speeds
                )
                assert fallbacks.value == 1
                assert rec.registry.counter("pool.fallbacks", pool="plan").value == 0
            finally:
                system.close()
        assert not (_shm_segments() - before), "a shared-memory segment survived"


class TestPooledGraphDelta:
    def test_delta_republishes_on_the_same_workers(self, small_dataset):
        """A delta republishes the district context; no worker restarts."""
        graph = CorrelationGraph(
            list(small_dataset.graph.road_ids), list(small_dataset.graph.edges())
        )
        interval = small_dataset.test_day_intervals()[32]
        with SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, graph, _parallel_config()
        ) as system:
            seeds = system.select_seeds(8)
            system.estimate(interval, _speeds(small_dataset, seeds, interval))
            stage = system.district_stage()
            old_csr = stage.csr
            old_row = system.fidelity_service.row(
                graph, seeds[0], transform="logodds"
            )
            pids = {p.pid for p in _worker_processes(system._pool)}

            edge = graph.neighbours(seeds[0])[0]
            agreement = 0.93 if edge.agreement != 0.93 else 0.91
            delta = GraphDelta(
                added=(),
                removed=(),
                reweighted=(CorrelationEdge(edge.road_u, edge.road_v, agreement),),
            )
            graph.apply_delta(delta)
            assert seeds[0] in system.apply_graph_delta(delta)
            new_row = system.fidelity_service.row(graph, seeds[0], transform="logodds")
            num_roads = len(graph.road_ids)
            assert not np.array_equal(
                old_row.dense(num_roads), new_row.dense(num_roads)
            ), (
                "the delta must change a seed's row"
            )

            _assert_estimates_match_unpooled(
                system, small_dataset, graph, seeds, interval
            )

            serial = partition_greedy_select(
                SeedSelectionObjective(graph), 8, num_partitions=4
            )
            _assert_same_selection(system.district_stage().select(8), serial)
            assert stage.csr is system.fidelity_service.csr(graph)
            assert stage.csr is not old_csr
            workers = _worker_processes(system._pool)
            assert {p.pid for p in workers} == pids
            assert all(p.is_alive() for p in workers)


class TestInProcessGraphDelta:
    def test_in_process_stage_repartitions_after_a_delta(self, small_dataset):
        """Without a pool, a removed edge re-partitions from the new CSR."""
        graph = CorrelationGraph(
            list(small_dataset.graph.road_ids), list(small_dataset.graph.edges())
        )
        system = SpeedEstimationSystem.from_parts(
            small_dataset.network,
            small_dataset.store,
            graph,
            PipelineConfig(selection_method="partition", num_partitions=4),
        )
        seeds = system.select_seeds(8)
        stage = system.district_stage()
        old_csr = stage.csr
        edge = graph.neighbours(seeds[0])[0]
        delta = GraphDelta(
            added=(), removed=((edge.road_u, edge.road_v),), reweighted=()
        )
        graph.apply_delta(delta)
        assert seeds[0] in system.apply_graph_delta(delta)

        system.select_seeds(8)
        mutated = SeedSelectionObjective(graph)
        _assert_same_selection(
            system.selection, partition_greedy_select(mutated, 8, num_partitions=4)
        )
        assert stage.csr is system.fidelity_service.csr(graph)
        assert stage.csr is not old_csr
        assert stage.partitions == partition_graph(mutated, 4)
        assert system._pool is None


class TestOneWorkerInProcess:
    def test_one_worker_never_spawns_or_exports(self, small_dataset):
        graph = small_dataset.graph
        serial = partition_greedy_select(
            SeedSelectionObjective(graph), 6, num_partitions=4
        )
        before = _shm_segments()
        with SpeedEstimationSystem.from_parts(
            small_dataset.network,
            small_dataset.store,
            graph,
            _parallel_config(workers=1, use_sharded_plan=True),
        ) as system:
            system.select_seeds(6)
            _assert_same_selection(system.selection, serial)
            interval = small_dataset.test_day_intervals()[0]
            _assert_estimates_match_unpooled(
                system, small_dataset, graph, list(serial.seeds), interval
            )
            assert system._pool._resources.executor is None
            assert not (_shm_segments() - before)
