"""Tests for the Dinic max-flow and graph-cut exact MAP inference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.trend.model import TrendInstance
from tests.oracles.mapcut import (
    GraphCutMapInference,
    MaxFlowNetwork,
    exact_map_assignment,
)


class TestMaxFlow:
    def test_single_edge(self):
        net = MaxFlowNetwork(2)
        net.add_edge(0, 1, 5.0)
        assert net.max_flow(0, 1) == 5.0

    def test_series_bottleneck(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, 5.0)
        net.add_edge(1, 2, 3.0)
        assert net.max_flow(0, 2) == 3.0

    def test_parallel_paths(self):
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, 3.0)
        net.add_edge(1, 3, 3.0)
        net.add_edge(0, 2, 4.0)
        net.add_edge(2, 3, 2.0)
        assert net.max_flow(0, 3) == 5.0

    def test_classic_augmenting_case(self):
        """The textbook network where residual (reverse) edges matter."""
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, 1.0)
        net.add_edge(0, 2, 1.0)
        net.add_edge(1, 2, 1.0)
        net.add_edge(1, 3, 1.0)
        net.add_edge(2, 3, 1.0)
        assert net.max_flow(0, 3) == 2.0

    def test_disconnected_sink(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, 5.0)
        assert net.max_flow(0, 2) == 0.0

    def test_min_cut_side(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 10.0)
        net.max_flow(0, 2)
        # The 1.0 edge is the cut; only the source is on the source side.
        assert net.min_cut_source_side(0) == {0}

    def test_validation(self):
        with pytest.raises(InferenceError):
            MaxFlowNetwork(1)
        net = MaxFlowNetwork(3)
        with pytest.raises(InferenceError):
            net.add_edge(0, 0, 1.0)
        with pytest.raises(InferenceError):
            net.add_edge(0, 1, -1.0)
        with pytest.raises(InferenceError):
            net.add_edge(0, 9, 1.0)
        with pytest.raises(InferenceError):
            net.max_flow(0, 0)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_networkx(self, data):
        """Property: flow value agrees with networkx on random DAG-ish graphs."""
        import networkx as nx

        n = data.draw(st.integers(min_value=3, max_value=7))
        edges = []
        for u in range(n - 1):
            for v in range(u + 1, n):
                if data.draw(st.booleans()):
                    cap = data.draw(
                        st.floats(min_value=0.1, max_value=10.0)
                    )
                    edges.append((u, v, cap))
        net = MaxFlowNetwork(n)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for u, v, cap in edges:
            net.add_edge(u, v, cap)
            g.add_edge(u, v, capacity=cap)
        ours = net.max_flow(0, n - 1)
        theirs = nx.maximum_flow_value(g, 0, n - 1)
        assert ours == pytest.approx(theirs, abs=1e-9)


def random_attractive_instance(rng, n, extra_edges=2, with_evidence=True):
    edges = [(i, i + 1, float(rng.uniform(0.55, 0.95))) for i in range(n - 1)]
    for _ in range(extra_edges):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if all((int(i), int(j)) != (a, b) for a, b, _ in edges):
            edges.append((int(i), int(j), float(rng.uniform(0.55, 0.95))))
    evidence = {}
    if with_evidence:
        evidence[0] = Trend.RISE if rng.random() < 0.5 else Trend.FALL
    return TrendInstance(
        road_ids=tuple(range(n)),
        prior_rise=rng.uniform(0.2, 0.8, size=n),
        edges=tuple(edges),
        evidence=evidence,
    )


class TestGraphCutMap:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(5)
        solver = GraphCutMapInference()
        for trial in range(15):
            instance = random_attractive_instance(rng, n=int(rng.integers(3, 9)))
            cut_map = solver.map_assignment(instance)
            enum_map = exact_map_assignment(instance)
            # The MAP may be non-unique; compare joint weights instead of labels.
            from repro.trend.exact import ExactEnumerationInference

            def weight(assignment):
                state = np.array(
                    [int(assignment[r]) for r in instance.road_ids], dtype=np.int8
                )
                return ExactEnumerationInference._joint_weight(instance, state)

            assert weight(cut_map) == pytest.approx(weight(enum_map), rel=1e-9), (
                f"trial {trial}"
            )

    def test_evidence_respected(self):
        rng = np.random.default_rng(1)
        instance = random_attractive_instance(rng, n=6)
        cut_map = GraphCutMapInference().map_assignment(instance)
        for road, trend in instance.evidence.items():
            assert cut_map[road] is trend

    def test_strong_chain_propagates_label(self):
        instance = TrendInstance(
            road_ids=(0, 1, 2, 3),
            prior_rise=np.full(4, 0.5),
            edges=((0, 1, 0.95), (1, 2, 0.95), (2, 3, 0.95)),
            evidence={0: Trend.FALL},
        )
        cut_map = GraphCutMapInference().map_assignment(instance)
        assert all(t is Trend.FALL for t in cut_map.values())

    def test_repulsive_edge_rejected(self):
        instance = TrendInstance(
            road_ids=(0, 1),
            prior_rise=np.array([0.5, 0.5]),
            edges=((0, 1, 0.3),),
            evidence={},
        )
        with pytest.raises(InferenceError, match="submodular"):
            GraphCutMapInference().map_assignment(instance)

    def test_scales_beyond_enumeration(self, small_dataset):
        """Graph cuts handle the full city MRF, which enumeration cannot."""
        from repro.trend.model import TrendModel

        model = TrendModel(small_dataset.graph, small_dataset.store)
        interval = small_dataset.test_day_intervals()[30]
        truth = small_dataset.test.speeds_at(interval)
        seeds = small_dataset.network.road_ids()[::10][:10]
        seed_trends = {
            r: small_dataset.store.trend_of(r, interval, truth[r]) for r in seeds
        }
        instance = model.instance(interval, seed_trends)
        cut_map = GraphCutMapInference().map_assignment(instance)
        assert len(cut_map) == instance.num_roads
        for road, trend in seed_trends.items():
            assert cut_map[road] is trend
        # The hard labelling is sensible: clearly better than chance.
        non_seeds = [r for r in cut_map if r not in seed_trends]
        correct = sum(
            cut_map[r] == small_dataset.store.trend_of(r, interval, truth[r])
            for r in non_seeds
        )
        assert correct / len(non_seeds) > 0.6
