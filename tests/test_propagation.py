"""Unit tests for best-path fidelity propagation (shared by Step 1 + seeds)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
from repro.trend.model import TrendInstance
from repro.trend.propagation import TrendPropagationInference
from tests.oracles.fidelity import edge_fidelity
from tests.oracles import ScalarPropagationInference


def propagate_fidelity(graph, source, min_fidelity=0.05, max_hops=None):
    """Production best-path fidelity (road id -> q) from ``source``.

    The cached sparse row read back as a dict: every entry of a raw row
    is at or above the floor, so the support is exactly the map's keys.
    """
    service = FidelityCacheService()
    indices, values = service.row(graph, source, min_fidelity, max_hops)
    road_ids = service.csr(graph).road_ids
    return {road_ids[i]: q for i, q in zip(indices.tolist(), values.tolist())}


def line_graph(agreements):
    n = len(agreements) + 1
    return CorrelationGraph(
        list(range(n)),
        [CorrelationEdge(i, i + 1, a) for i, a in enumerate(agreements)],
    )


class TestEdgeFidelity:
    def test_values(self):
        assert edge_fidelity(1.0) == 1.0
        assert edge_fidelity(0.75) == pytest.approx(0.5)
        assert edge_fidelity(0.5) == 0.0
        assert edge_fidelity(0.3) == 0.0  # sub-coin-flip carries nothing


class TestPropagation:
    def test_source_has_fidelity_one(self):
        graph = line_graph([0.8])
        assert propagate_fidelity(graph, 0)[0] == 1.0

    def test_chain_multiplies(self):
        graph = line_graph([0.8, 0.9])
        fid = propagate_fidelity(graph, 0, min_fidelity=0.01)
        assert fid[1] == pytest.approx(0.6)
        assert fid[2] == pytest.approx(0.6 * 0.8)

    def test_best_path_chosen(self):
        """Two routes 0->2: direct weak edge vs strong two-hop path."""
        graph = CorrelationGraph(
            [0, 1, 2],
            [
                CorrelationEdge(0, 2, 0.55),  # q = 0.1 direct
                CorrelationEdge(0, 1, 0.95),  # q = 0.9
                CorrelationEdge(1, 2, 0.95),  # q = 0.9, path q = 0.81
            ],
        )
        fid = propagate_fidelity(graph, 0, min_fidelity=0.01)
        assert fid[2] == pytest.approx(0.81)

    def test_floor_prunes(self):
        graph = line_graph([0.7, 0.7, 0.7, 0.7])  # q = 0.4 per hop
        fid = propagate_fidelity(graph, 0, min_fidelity=0.1)
        # 0.4, 0.16, 0.064 < 0.1 -> pruned at hop 3.
        assert set(fid) == {0, 1, 2}

    def test_max_hops_prunes(self):
        graph = line_graph([0.9, 0.9, 0.9, 0.9])
        fid = propagate_fidelity(graph, 0, min_fidelity=0.001, max_hops=2)
        assert set(fid) == {0, 1, 2}

    def test_max_hops_counts_candidate_path_hops(self):
        """Regression: a strong long path must not shadow a weak short one.

        Roads 0-1-2 form a strong two-hop route (0.9 * 0.9 = 0.81) while
        the direct 0-2 edge carries only 0.2; road 3 hangs off road 2.
        With ``max_hops=2`` road 3 is reachable within budget as 0->2->3
        through the weak edge (0.2 * 0.8 = 0.16). The old implementation
        settled road 2 via the two-hop route first, recorded its hop
        count as 2, and then refused to extend to road 3 — dropping a
        road that a legal two-hop path reaches.
        """
        graph = CorrelationGraph(
            [0, 1, 2, 3],
            [
                CorrelationEdge(0, 1, 0.95),
                CorrelationEdge(1, 2, 0.95),
                CorrelationEdge(0, 2, 0.6),
                CorrelationEdge(2, 3, 0.9),
            ],
        )
        fid = propagate_fidelity(graph, 0, min_fidelity=0.01, max_hops=2)
        assert set(fid) == {0, 1, 2, 3}
        # Road 2 still gets the *best* fidelity over <=2-hop paths ...
        assert fid[2] == pytest.approx(0.81)
        # ... while road 3 gets the best among paths that fit the budget.
        assert fid[3] == pytest.approx(0.2 * 0.8)

    def test_unknown_source(self):
        with pytest.raises(InferenceError):
            propagate_fidelity(line_graph([0.8]), 99)

    def test_bad_floor(self):
        with pytest.raises(InferenceError):
            propagate_fidelity(line_graph([0.8]), 0, min_fidelity=0.0)

    def test_disconnected_not_reached(self):
        graph = CorrelationGraph([0, 1, 2], [CorrelationEdge(0, 1, 0.9)])
        fid = propagate_fidelity(graph, 0, min_fidelity=0.01)
        assert 2 not in fid


@settings(max_examples=30, deadline=None)
@given(
    agreements=st.lists(
        st.floats(min_value=0.55, max_value=0.99), min_size=1, max_size=8
    )
)
def test_fidelity_decreases_along_chain(agreements):
    graph = line_graph(agreements)
    fid = propagate_fidelity(graph, 0, min_fidelity=1e-6)
    reached = sorted(fid)
    values = [fid[r] for r in reached]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_symmetry_on_undirected_graphs(data):
    """fidelity(a -> b) == fidelity(b -> a) on any undirected graph."""
    n = data.draw(st.integers(min_value=3, max_value=7))
    edges = []
    seen = set()
    for _ in range(data.draw(st.integers(min_value=2, max_value=10))):
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = data.draw(st.integers(min_value=0, max_value=n - 1))
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        edges.append(
            CorrelationEdge(
                u, v, data.draw(st.floats(min_value=0.55, max_value=0.99))
            )
        )
    if not edges:
        return
    graph = CorrelationGraph(list(range(n)), edges)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    fid_a = propagate_fidelity(graph, a, min_fidelity=1e-9)
    fid_b = propagate_fidelity(graph, b, min_fidelity=1e-9)
    assert fid_a.get(b, 0.0) == pytest.approx(fid_b.get(a, 0.0), abs=1e-12)


class TestUnknownEvidenceRoads:
    """Regression: evidence on a road the instance no longer indexes.

    Streaming deployments can deliver a late observation for a road
    that was dropped from the current interval's instance. The vote
    loop always skipped such roads; the evidence-clamp loop indexed
    ``index[road]`` unconditionally and raised ``KeyError``. Both loops
    must apply the same skip policy.
    """

    def _instance(self, graph):
        return TrendInstance(
            road_ids=tuple(graph.road_ids),
            prior_rise=np.full(len(graph.road_ids), 0.5),
            edges=tuple(),
            evidence={0: Trend.RISE},
            graph=graph,
        )

    @staticmethod
    def _inference(scalar):
        if scalar:
            return ScalarPropagationInference()
        return TrendPropagationInference(fidelity_service=FidelityCacheService())

    @pytest.mark.parametrize("scalar", [False, True])
    def test_unknown_evidence_road_is_skipped(self, scalar):
        """Production and the oracle vote loop apply the same policy."""
        graph = line_graph([0.9, 0.9])
        inference = self._inference(scalar)
        baseline = inference.infer(self._instance(graph)).as_array()

        late = self._instance(graph)
        late.evidence[999] = Trend.FALL  # road unknown to index AND graph
        posterior = inference.infer(late)  # must not raise
        np.testing.assert_array_equal(posterior.as_array(), baseline)

    def test_evidence_road_missing_from_graph_still_clamps(self):
        """In the index but not in the graph: clamped, never voted."""
        graph = CorrelationGraph([0, 1], [CorrelationEdge(0, 1, 0.9)])
        instance = TrendInstance(
            road_ids=(0, 1, 2),
            prior_rise=np.full(3, 0.5),
            edges=tuple(),
            evidence={0: Trend.RISE, 2: Trend.FALL},
            graph=graph,
        )
        for scalar in (False, True):
            posterior = self._inference(scalar).infer(instance)
            assert posterior.p_rise(0) == 1.0
            assert posterior.p_rise(2) == 0.0  # clamped despite no vote
            assert posterior.p_rise(1) > 0.5  # road 0's vote arrived
