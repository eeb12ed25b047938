"""Differential tests for process-parallel district selection.

The contract under test: a :class:`~repro.seeds.parallel.DistrictStage`
on a :class:`~repro.core.pool.SharedWorkerPool` over shared CSR arrays
returns the **identical** seed sequence, gains and values as the
single-process partition path — workers recompute influence rows from
the same arrays with the same kernel and transform math, and districts
stitch in district order. That holds after a worker is killed (the pool
re-runs the batch in-process) and after a graph delta (the stage
republishes its context on the same workers). The pool here is small
(2 workers, 4 districts) so the differential runs in tier-1 CI.
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
from repro.seeds.partition import partition_greedy_select
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
        assert parallel.method == "partition-greedy-parallel"

    def test_identical_across_budgets(self, objective, pool):
        for budget in (1, 4, 13):
            serial = partition_greedy_select(objective, budget, 4)
            assert pool.select(budget).seeds == serial.seeds

    def test_vote_accumulator_matches_matmul(
        self, objective, pool, small_dataset
    ):
        seeds = objective.road_ids[::7][:12]
        signs = np.array(
            [1.0 if i % 3 else -1.0 for i in range(len(seeds))]
        )
        votes, nonzeros = pool.vote_accumulator(
            small_dataset.graph, seeds, signs
        )
        matrix = objective.fidelity_service.rows(
            small_dataset.graph, seeds, transform="logodds"
        )
        serial = signs @ matrix
        assert np.abs(votes - serial).max() <= 1e-9
        assert nonzeros == int(np.count_nonzero(matrix))


class TestDistrictPoolLifecycle:
    def test_partitions_match_partition_graph(self, objective, pool):
        from repro.seeds.partition import partition_graph

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

    def test_vote_accumulator_wrong_graph(self, pool, tiny_dataset):
        with pytest.raises(Exception, match="different correlation graph"):
            pool.vote_accumulator(tiny_dataset.graph, [0], np.array([1.0]))


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
            # Step-1 runs through the district vote accumulator and must
            # match the serial estimate to float re-association.
            interval = small_dataset.test_day_intervals()[32]
            truth = small_dataset.test.speeds_at(interval)
            crowd = {road: truth[road] for road in serial_seeds}
            parallel_estimates = parallel_system.estimate(interval, crowd)
        serial_estimates = serial_system.estimate(interval, crowd)
        for road in small_dataset.network.road_ids():
            assert parallel_estimates[road].speed_kmh == pytest.approx(
                serial_estimates[road].speed_kmh, abs=1e-6
            )

    def test_district_pool_requires_flag(self, small_dataset):
        system = SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        with pytest.raises(ConfigError, match="use_parallel_partitions"):
            system.district_stage()

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


def _signs(seeds):
    return np.array([1.0 if i % 3 else -1.0 for i in range(len(seeds))])


def _assert_votes_match_matmul(system, graph, seeds):
    signs = _signs(seeds)
    votes, _ = system.district_stage().vote_accumulator(graph, seeds, signs)
    matrix = system.fidelity_service.rows(graph, seeds, transform="logodds")
    assert np.abs(votes - signs @ matrix).max() <= 1e-9


def _assert_same_selection(got, serial):
    assert got.seeds == serial.seeds
    assert got.gains == serial.gains
    assert got.values == serial.values
    assert got.evaluations == serial.evaluations


def _assert_plan_matches_oracle(system, dataset, config, interval, speeds):
    """The system's compiled plan is bitwise the whole-city oracle plan.

    Compared on the plan itself, with one shared posterior: the system's
    Step-1 votes are district partial sums, equal to the serial matmul
    only up to float re-association.
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

                seeds = list(serial.seeds)
                _assert_votes_match_matmul(system, graph, seeds)
                speeds = _speeds(small_dataset, seeds, interval)
                system.estimate(interval, speeds)
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

            _assert_votes_match_matmul(system, graph, seeds)
            assert stage.csr is system.fidelity_service.csr(graph)
            assert stage.csr is not old_csr
            workers = _worker_processes(system._pool)
            assert {p.pid for p in workers} == pids
            assert all(p.is_alive() for p in workers)

            serial = partition_greedy_select(
                SeedSelectionObjective(graph), 8, num_partitions=4
            )
            _assert_same_selection(system.district_stage().select(8), serial)


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
            _assert_votes_match_matmul(system, graph, list(serial.seeds))
            interval = small_dataset.test_day_intervals()[0]
            system.estimate(interval, _speeds(small_dataset, serial.seeds, interval))
            assert system._pool._resources.executor is None
            assert not (_shm_segments() - before)
