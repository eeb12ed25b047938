"""Tests for the greedy family and selection baselines."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SelectionError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.seeds.baselines import k_center_select, random_select, top_degree_select
from repro.seeds.greedy import SelectionResult, greedy_select
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.partition import allocate_budget, partition_graph
from tests.oracles.partition import partition_greedy_select


@pytest.fixture(scope="module")
def objective(small_dataset):
    return SeedSelectionObjective(small_dataset.graph)


class TestGreedy:
    def test_budget_respected(self, objective):
        result = greedy_select(objective, 5)
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5

    def test_values_increase(self, objective):
        result = greedy_select(objective, 6)
        assert all(a < b for a, b in zip(result.values, result.values[1:]))

    def test_gains_diminish(self, objective):
        result = greedy_select(objective, 6)
        assert all(a >= b - 1e-9 for a, b in zip(result.gains, result.gains[1:]))

    def test_budget_validation(self, objective):
        with pytest.raises(SelectionError):
            greedy_select(objective, 0)
        with pytest.raises(SelectionError):
            greedy_select(objective, objective.num_roads + 1)

    def test_candidate_pool_restriction(self, objective):
        pool = objective.road_ids[:10]
        result = greedy_select(objective, 3, candidates=pool)
        assert set(result.seeds) <= set(pool)

    def test_pool_too_small(self, objective):
        with pytest.raises(SelectionError):
            greedy_select(objective, 5, candidates=objective.road_ids[:3])

    def test_approximation_vs_brute_force(self):
        """Greedy >= (1 - 1/e) * optimum on exhaustively solvable instances."""
        graph = CorrelationGraph(
            list(range(6)),
            [
                CorrelationEdge(0, 1, 0.9),
                CorrelationEdge(1, 2, 0.8),
                CorrelationEdge(2, 3, 0.85),
                CorrelationEdge(3, 4, 0.7),
                CorrelationEdge(4, 5, 0.9),
                CorrelationEdge(0, 5, 0.65),
            ],
        )
        objective = SeedSelectionObjective(graph, min_fidelity=0.01)
        for budget in (1, 2, 3):
            best = max(
                objective.value(list(combo))
                for combo in itertools.combinations(graph.road_ids, budget)
            )
            result = greedy_select(objective, budget)
            assert result.final_value >= (1 - 1 / 2.718281828) * best - 1e-9

    def test_result_validation(self):
        with pytest.raises(SelectionError):
            SelectionResult("m", (1, 2), (0.5,), (0.5,), 0)


class TestLazyGreedy:
    def test_identical_to_plain_greedy(self, objective):
        for budget in (1, 4, 10):
            plain = greedy_select(objective, budget)
            lazy = lazy_greedy_select(objective, budget)
            assert lazy.seeds == plain.seeds
            assert lazy.values == pytest.approx(plain.values)

    def test_fewer_evaluations(self, objective):
        budget = 10
        plain = greedy_select(objective, budget)
        lazy = lazy_greedy_select(objective, budget)
        assert lazy.evaluations < plain.evaluations

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equivalence_on_random_graphs(self, data):
        n = data.draw(st.integers(min_value=4, max_value=10))
        edges = []
        seen = set()
        for _ in range(data.draw(st.integers(min_value=2, max_value=16))):
            u = data.draw(st.integers(min_value=0, max_value=n - 1))
            v = data.draw(st.integers(min_value=0, max_value=n - 1))
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                continue
            seen.add(key)
            edges.append(
                CorrelationEdge(
                    u, v, data.draw(st.floats(min_value=0.55, max_value=0.95))
                )
            )
        graph = CorrelationGraph(list(range(n)), edges)
        objective = SeedSelectionObjective(graph, min_fidelity=0.01)
        budget = data.draw(st.integers(min_value=1, max_value=n))
        assert (
            lazy_greedy_select(objective, budget).seeds
            == greedy_select(objective, budget).seeds
        )


class TestPartition:
    def test_partition_covers_all_roads(self, objective):
        partitions = partition_graph(objective, 4)
        flat = [r for p in partitions for r in p]
        assert sorted(flat) == objective.road_ids

    def test_partitions_disjoint(self, objective):
        partitions = partition_graph(objective, 4)
        flat = [r for p in partitions for r in p]
        assert len(flat) == len(set(flat))

    def test_allocate_budget_sums(self, objective):
        partitions = partition_graph(objective, 4)
        for budget in (1, 5, 17):
            shares = allocate_budget(partitions, budget)
            assert sum(shares) == budget
            assert all(0 <= s <= len(p) for s, p in zip(shares, partitions))

    def test_allocate_rejects_excess(self):
        with pytest.raises(SelectionError):
            allocate_budget([[1, 2]], 3)

    def test_partition_select_budget(self, objective):
        result = partition_greedy_select(objective, 8, num_partitions=4)
        assert len(result.seeds) == 8
        assert len(set(result.seeds)) == 8

    def test_partition_quality_near_greedy(self, objective):
        budget = 10
        exact = greedy_select(objective, budget).final_value
        approx = partition_greedy_select(objective, budget, 4).final_value
        assert approx >= 0.85 * exact

    def test_partition_fewer_evaluations(self, objective):
        budget = 10
        plain = greedy_select(objective, budget)
        part = partition_greedy_select(objective, budget, 4)
        assert part.evaluations < plain.evaluations

    def test_invalid_partition_count(self, objective):
        with pytest.raises(SelectionError):
            partition_graph(objective, 0)

    def test_fragmented_graph_yields_more_chunks_than_requested(self):
        """A component smaller than a chunk closes its chunk early."""
        # Components of 5, 5 and 2 roads; 2 requested -> chunk target 6.
        components = [list(range(0, 5)), list(range(5, 10)), [10, 11]]
        edges = [
            CorrelationEdge(a, b, 0.9)
            for chunk in components
            for a, b in zip(chunk, chunk[1:])
        ]
        graph = CorrelationGraph(list(range(12)), edges)
        partitions = partition_graph(SeedSelectionObjective(graph), 2)
        flat = [r for p in partitions for r in p]
        assert sorted(flat) == list(range(12))
        assert len(flat) == len(set(flat))
        assert partitions == components
        assert len(partitions) > 2


class TestCandidateValidation:
    """Typed rejection of bad candidate pools (was a raw KeyError /
    silent double-count before the validation sweep)."""

    def test_unknown_id_rejected(self, objective):
        bogus = max(objective.road_ids) + 1000
        pool = objective.road_ids[:5] + [bogus]
        with pytest.raises(SelectionError, match="absent from"):
            lazy_greedy_select(objective, 2, candidates=pool)
        with pytest.raises(SelectionError, match="absent from"):
            greedy_select(objective, 2, candidates=pool)

    def test_duplicate_id_rejected(self, objective):
        first = objective.road_ids[0]
        pool = [first, first] + objective.road_ids[1:5]
        with pytest.raises(SelectionError, match="duplicate"):
            lazy_greedy_select(objective, 2, candidates=pool)
        with pytest.raises(SelectionError, match="duplicate"):
            greedy_select(objective, 2, candidates=pool)

    def test_empty_pool_rejected(self, objective):
        with pytest.raises(SelectionError, match="empty"):
            lazy_greedy_select(objective, 1, candidates=[])
        with pytest.raises(SelectionError, match="empty"):
            greedy_select(objective, 1, candidates=[])

    def test_error_is_value_error(self, objective):
        """SelectionError doubles as ValueError for stdlib-only callers."""
        with pytest.raises(ValueError):
            lazy_greedy_select(objective, 1, candidates=[-99])

    def test_valid_pool_unaffected(self, objective):
        pool = objective.road_ids[:10]
        result = lazy_greedy_select(objective, 3, candidates=pool)
        assert set(result.seeds) <= set(pool)


def _reference_partition_graph(objective, num_partitions):
    """The pre-deque BFS (list.pop(0)) as a byte-exact reference."""
    graph = objective.graph
    roads = graph.road_ids
    target = -(-len(roads) // num_partitions)
    unassigned = set(roads)
    partitions = []
    while unassigned:
        start = min(unassigned)
        chunk = []
        queue = [start]
        unassigned.discard(start)
        while queue and len(chunk) < target:
            road = queue.pop(0)
            chunk.append(road)
            for neighbour in graph.neighbour_ids(road):
                if neighbour in unassigned:
                    unassigned.discard(neighbour)
                    queue.append(neighbour)
        unassigned.update(queue)
        partitions.append(sorted(chunk))
    return partitions


class TestPartitionGraphDequeRegression:
    """The deque BFS must partition byte-identically to the quadratic
    list.pop(0) original on the existing fixtures."""

    def test_identical_partitions_small_dataset(self, objective):
        for num_partitions in (1, 2, 4, 7, 16):
            assert partition_graph(objective, num_partitions) == (
                _reference_partition_graph(objective, num_partitions)
            )

    def test_identical_partitions_tiny_dataset(self, tiny_dataset):
        objective = SeedSelectionObjective(tiny_dataset.graph)
        for num_partitions in (1, 2, 3, 5):
            assert partition_graph(objective, num_partitions) == (
                _reference_partition_graph(objective, num_partitions)
            )


def _objective_for(graph):
    return SeedSelectionObjective(graph, min_fidelity=0.01)


def _star_graph(n=9):
    """Hub 0 with n-1 leaves — one BFS grab takes nearly everything."""
    edges = [CorrelationEdge(0, leaf, 0.9) for leaf in range(1, n)]
    return CorrelationGraph(list(range(n)), edges)


def _disconnected_graph(n=8):
    """No edges at all: every road is its own component."""
    return CorrelationGraph(list(range(n)), [])


def _chain_pairs_graph(pairs=4):
    """Disjoint 2-road components — singleton/tiny chunk territory."""
    edges = [
        CorrelationEdge(2 * i, 2 * i + 1, 0.8) for i in range(pairs)
    ]
    return CorrelationGraph(list(range(2 * pairs)), edges)


class TestPartitionAdversarial:
    """Property coverage for allocate_budget + partition_greedy_select
    on adversarial graph shapes (satellite task)."""

    @pytest.mark.parametrize(
        "graph_factory", [_star_graph, _disconnected_graph, _chain_pairs_graph]
    )
    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 8])
    def test_partitions_disjoint_cover(self, graph_factory, num_partitions):
        objective = _objective_for(graph_factory())
        partitions = partition_graph(objective, num_partitions)
        flat = [road for chunk in partitions for road in chunk]
        assert sorted(flat) == objective.road_ids
        assert len(flat) == len(set(flat))
        assert all(chunk for chunk in partitions)

    @pytest.mark.parametrize(
        "graph_factory", [_star_graph, _disconnected_graph, _chain_pairs_graph]
    )
    @pytest.mark.parametrize("num_partitions", [1, 3, 8])
    def test_shares_sum_and_cap(self, graph_factory, num_partitions):
        objective = _objective_for(graph_factory())
        partitions = partition_graph(objective, num_partitions)
        total = sum(len(chunk) for chunk in partitions)
        for budget in range(1, total + 1):
            shares = allocate_budget(partitions, budget)
            assert sum(shares) == budget
            assert all(
                0 <= share <= len(chunk)
                for share, chunk in zip(shares, partitions)
            )

    @pytest.mark.parametrize(
        "graph_factory", [_star_graph, _disconnected_graph, _chain_pairs_graph]
    )
    def test_budget_equals_total_roads(self, graph_factory):
        objective = _objective_for(graph_factory())
        budget = objective.num_roads
        result = partition_greedy_select(objective, budget, num_partitions=3)
        # Every road selected exactly once, in some order.
        assert sorted(result.seeds) == objective.road_ids

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_allocation_properties_random(self, data):
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                     max_size=6)
        )
        partitions = []
        next_road = 0
        for size in sizes:
            partitions.append(list(range(next_road, next_road + size)))
            next_road += size
        total = sum(sizes)
        budget = data.draw(st.integers(min_value=1, max_value=total))
        shares = allocate_budget(partitions, budget)
        assert sum(shares) == budget
        assert all(
            0 <= share <= len(chunk)
            for share, chunk in zip(shares, partitions)
        )


class TestSelectionBaselines:
    def test_random_deterministic_and_valid(self, objective):
        a = random_select(objective, 6, seed=3)
        b = random_select(objective, 6, seed=3)
        assert a.seeds == b.seeds
        assert len(set(a.seeds)) == 6

    def test_random_differs_by_seed(self, objective):
        assert (
            random_select(objective, 6, seed=1).seeds
            != random_select(objective, 6, seed=2).seeds
        )

    def test_top_degree_ordering(self, objective, small_dataset):
        result = top_degree_select(objective, 5)
        degrees = [small_dataset.graph.degree(r) for r in result.seeds]
        max_degree = max(
            small_dataset.graph.degree(r) for r in objective.road_ids
        )
        assert degrees[0] == max_degree

    def test_k_center_spreads_out(self, objective, small_dataset):
        result = k_center_select(objective, 4, small_dataset.network)
        mids = [small_dataset.network.segment_midpoint(r) for r in result.seeds]
        min_pairwise = min(
            a.distance_to(b)
            for i, a in enumerate(mids)
            for b in mids[i + 1 :]
        )
        assert min_pairwise > 500  # centres are far apart on a 2km grid

    def test_greedy_beats_every_baseline(self, objective, small_dataset):
        """The objective value ordering F5 reports."""
        budget = 8
        greedy_value = greedy_select(objective, budget).final_value
        for result in (
            random_select(objective, budget, seed=0),
            top_degree_select(objective, budget),
            k_center_select(objective, budget, small_dataset.network),
        ):
            assert greedy_value >= result.final_value - 1e-9

    def test_budget_validation(self, objective):
        with pytest.raises(SelectionError):
            random_select(objective, 0)
        with pytest.raises(SelectionError):
            top_degree_select(objective, objective.num_roads + 1)
