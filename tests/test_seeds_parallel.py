"""Differential tests for process-parallel district selection.

The contract under test: a :class:`~repro.seeds.parallel.DistrictPool`
over shared CSR arrays returns the **identical** seed sequence, gains
and values as the single-process partition path — workers recompute
influence rows from the same arrays with the same kernel and transform
math, and districts stitch in district order. The pool here is small
(2 workers, 4 districts) so the differential runs in tier-1 CI.
"""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.errors import ConfigError, SelectionError
from repro.core.pipeline import SpeedEstimationSystem
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictPool, parallel_partition_select
from repro.seeds.partition import partition_greedy_select


@pytest.fixture(scope="module")
def objective(small_dataset):
    return SeedSelectionObjective(small_dataset.graph)


@pytest.fixture(scope="module")
def pool(objective):
    with DistrictPool(objective, num_partitions=4, num_workers=2) as pool:
        yield pool


class TestParallelVsSerialDifferential:
    def test_identical_selection(self, objective, pool):
        serial = partition_greedy_select(objective, 9, num_partitions=4)
        parallel = pool.select(9)
        assert parallel.seeds == serial.seeds
        assert parallel.gains == serial.gains
        assert parallel.values == serial.values
        assert parallel.evaluations == serial.evaluations

    def test_identical_across_budgets(self, objective, pool):
        for budget in (1, 4, 13):
            serial = partition_greedy_select(objective, budget, 4)
            assert pool.select(budget).seeds == serial.seeds

    def test_one_shot_helper(self, objective):
        serial = partition_greedy_select(objective, 6, num_partitions=4)
        parallel = parallel_partition_select(
            objective, 6, num_partitions=4, num_workers=2
        )
        assert parallel.seeds == serial.seeds
        assert parallel.method == "partition-greedy-parallel"

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

    def test_worker_count_capped_by_districts(self, objective):
        with DistrictPool(objective, num_partitions=2, num_workers=8) as p:
            assert p.num_workers == 2

    def test_closed_pool_rejects_work(self, objective):
        pool = DistrictPool(objective, num_partitions=2, num_workers=1)
        pool.close()
        with pytest.raises(SelectionError, match="closed"):
            pool.select(2)
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
            system.district_pool()

    def test_close_is_idempotent_without_pool(self, small_dataset):
        system = SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        system.close()  # never created a pool; must be a no-op
