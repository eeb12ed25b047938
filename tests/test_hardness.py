"""Machine verification of the Set Cover → seed selection reduction."""

import itertools

import numpy as np
import pytest

from repro.core.errors import SelectionError
from tests.oracles.hardness import (
    covers_all_elements,
    min_seed_budget,
    min_set_cover_size,
    set_cover_to_seed_selection,
)


class TestConstruction:
    def test_road_layout(self):
        inst = set_cover_to_seed_selection(3, [frozenset({0, 1}), frozenset({2})])
        assert inst.element_roads == (0, 1, 2)
        assert inst.set_roads == (3, 4)
        assert inst.graph.num_edges == 3

    def test_threshold_separates_path_lengths(self):
        inst = set_cover_to_seed_selection(2, [frozenset({0, 1})], agreement=0.9)
        q = 0.8
        assert q * q < inst.threshold <= q

    def test_validation(self):
        with pytest.raises(SelectionError):
            set_cover_to_seed_selection(0, [frozenset({0})])
        with pytest.raises(SelectionError):
            set_cover_to_seed_selection(2, [])
        with pytest.raises(SelectionError):
            set_cover_to_seed_selection(2, [frozenset()])
        with pytest.raises(SelectionError):
            set_cover_to_seed_selection(2, [frozenset({5})])
        with pytest.raises(SelectionError):
            set_cover_to_seed_selection(2, [frozenset({0})], agreement=0.6)


class TestCoverageSemantics:
    def test_set_road_covers_its_elements(self):
        inst = set_cover_to_seed_selection(3, [frozenset({0, 1, 2})])
        assert covers_all_elements(inst, (inst.set_roads[0],))

    def test_set_road_does_not_cover_outside(self):
        inst = set_cover_to_seed_selection(
            3, [frozenset({0, 1}), frozenset({2})]
        )
        assert not covers_all_elements(inst, (inst.set_roads[0],))

    def test_element_road_covers_only_itself(self):
        """Two-hop influence element->set->element stays below θ."""
        inst = set_cover_to_seed_selection(2, [frozenset({0, 1})])
        assert not covers_all_elements(inst, (0,))  # covers element 0 only
        assert covers_all_elements(inst, (0, 1))

    def test_min_seed_budget_on_known_instance(self):
        sets = [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})]
        inst = set_cover_to_seed_selection(4, sets)
        assert min_seed_budget(inst) == 2
        assert min_set_cover_size(4, sets) == 2


class TestBruteForceSetCover:
    def test_simple(self):
        assert min_set_cover_size(3, [frozenset({0, 1, 2})]) == 1
        assert (
            min_set_cover_size(3, [frozenset({0}), frozenset({1}), frozenset({2})])
            == 3
        )

    def test_uncoverable(self):
        assert min_set_cover_size(3, [frozenset({0, 1})]) is None


class TestReductionEquivalence:
    """The theorem, verified exhaustively on random feasible instances:
    minimum covering seed budget == minimum set cover size."""

    @pytest.mark.parametrize("trial", range(8))
    def test_random_instances(self, trial):
        rng = np.random.default_rng(trial)
        num_elements = int(rng.integers(2, 5))
        num_sets = int(rng.integers(2, 4))
        sets = []
        for _ in range(num_sets):
            size = int(rng.integers(1, num_elements + 1))
            members = rng.choice(num_elements, size=size, replace=False)
            sets.append(frozenset(int(m) for m in members))
        # Ensure feasibility: add a set covering anything missed.
        covered = set().union(*sets)
        missing = set(range(num_elements)) - covered
        if missing:
            sets.append(frozenset(missing))

        cover = min_set_cover_size(num_elements, sets)
        inst = set_cover_to_seed_selection(num_elements, sets)
        budget = min_seed_budget(inst)
        assert budget == cover, (
            f"reduction mismatch on {sets}: cover={cover}, seeds={budget}"
        )

    def test_forward_direction_explicitly(self):
        """Any set cover's set-roads form a covering seed set of equal size."""
        sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
        inst = set_cover_to_seed_selection(4, sets)
        for combo in itertools.combinations(range(len(sets)), 2):
            is_cover = set(range(4)) <= set().union(*(sets[i] for i in combo))
            seeds = tuple(inst.set_roads[i] for i in combo)
            if is_cover:
                assert covers_all_elements(inst, seeds)
            else:
                assert not covers_all_elements(inst, seeds)
