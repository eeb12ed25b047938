"""Unit tests for the trend MRF model structures."""

import numpy as np
import pytest

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.incremental import GraphDelta
from repro.trend.model import TrendInstance, TrendModel, TrendPosterior


class TestTrend:
    def test_from_speeds(self):
        assert Trend.from_speeds(31, 30) is Trend.RISE
        assert Trend.from_speeds(30, 30) is Trend.RISE
        assert Trend.from_speeds(29, 30) is Trend.FALL

    def test_values_are_signs(self):
        assert int(Trend.RISE) == 1
        assert int(Trend.FALL) == -1

    def test_opposite(self):
        assert Trend.RISE.opposite is Trend.FALL
        assert Trend.FALL.opposite is Trend.RISE


class TestTrendInstance:
    def make(self, **overrides):
        kwargs = dict(
            road_ids=(1, 2, 3),
            prior_rise=np.array([0.5, 0.6, 0.4]),
            edges=((0, 1, 0.8), (1, 2, 0.7)),
            evidence={1: Trend.RISE},
        )
        kwargs.update(overrides)
        return TrendInstance(**kwargs)

    def test_valid(self):
        inst = self.make()
        assert inst.num_roads == 3
        assert inst.index == {1: 0, 2: 1, 3: 2}
        assert inst.evidence_indices() == {0: Trend.RISE}

    def test_adjacency(self):
        adj = self.make().adjacency()
        assert adj[0] == [(1, 0.8)]
        assert sorted(adj[1]) == [(0, 0.8), (2, 0.7)]

    def test_prior_shape_checked(self):
        with pytest.raises(InferenceError):
            self.make(prior_rise=np.array([0.5, 0.5]))

    def test_prior_bounds_checked(self):
        with pytest.raises(InferenceError):
            self.make(prior_rise=np.array([0.0, 0.5, 0.5]))
        with pytest.raises(InferenceError):
            self.make(prior_rise=np.array([1.0, 0.5, 0.5]))

    def test_evidence_road_checked(self):
        with pytest.raises(InferenceError):
            self.make(evidence={99: Trend.RISE})

    def test_edge_bounds_checked(self):
        with pytest.raises(InferenceError):
            self.make(edges=((0, 5, 0.7),))
        with pytest.raises(InferenceError):
            self.make(edges=((0, 1, 1.0),))

    def test_trusted_construction_skips_validation(self):
        """validate=False is the factory fast path — checks are skipped.

        The serving loop builds one instance per interval from parts the
        model already guarantees valid, so the O(roads + edges) check
        would be pure overhead there. Hand-built instances keep the
        default and stay fully checked.
        """
        inst = self.make(edges=((0, 1, 1.0),), validate=False)
        assert inst.num_roads == 3  # out-of-range potential tolerated


class TestTrendPosterior:
    def test_queries(self):
        post = TrendPosterior((1, 2), np.array([0.8, 0.3]))
        assert post.p_rise(1) == pytest.approx(0.8)
        assert post.trend(1) is Trend.RISE
        assert post.trend(2) is Trend.FALL
        assert post.confidence(2) == pytest.approx(0.7)
        assert post.as_dict() == {1: pytest.approx(0.8), 2: pytest.approx(0.3)}

    def test_tie_breaks_to_rise(self):
        post = TrendPosterior((1,), np.array([0.5]))
        assert post.trend(1) is Trend.RISE

    def test_unknown_road(self):
        post = TrendPosterior((1,), np.array([0.5]))
        with pytest.raises(InferenceError):
            post.p_rise(9)

    def test_validation(self):
        with pytest.raises(InferenceError):
            TrendPosterior((1, 2), np.array([0.5]))
        with pytest.raises(InferenceError):
            TrendPosterior((1,), np.array([1.5]))


class TestTrendModel:
    def test_instance_from_dataset(self, small_dataset):
        model = TrendModel(small_dataset.graph, small_dataset.store)
        interval = small_dataset.test_day_intervals()[30]
        seeds = small_dataset.network.road_ids()[:3]
        trends = {r: Trend.RISE for r in seeds}
        inst = model.instance(interval, trends)
        assert inst.num_roads == small_dataset.network.num_segments
        assert inst.evidence == trends
        assert inst.graph is small_dataset.graph
        assert len(inst.edges) == small_dataset.graph.num_edges

    def test_potentials_clipped(self, small_dataset):
        model = TrendModel(small_dataset.graph, small_dataset.store)
        inst = model.instance(small_dataset.test_day_intervals()[0], {})
        for _, _, p in inst.edges:
            assert 0.02 <= p <= 0.98

    def test_edges_equal_edge_object_construction(self, small_dataset):
        """Edge triples read from the graph's arrays equal the ones built
        from sorted edge objects, before and after an in-place delta."""
        graph = CorrelationGraph(
            small_dataset.graph.road_ids, list(small_dataset.graph.edges())
        )
        model = TrendModel(graph, small_dataset.store)

        def from_edge_objects():
            index = {road: i for i, road in enumerate(graph.road_ids)}
            return tuple(
                (index[e.road_u], index[e.road_v], min(1.0 - 0.02, max(0.02, e.agreement)))
                for e in graph.edges()
            )

        def assert_same(edges):
            expected = from_edge_objects()
            assert edges == expected
            for got, want in zip(edges, expected):
                assert tuple(map(type, got)) == tuple(map(type, want))

        assert_same(model.instance(0, {}).edges)
        first, second, third = list(graph.edges())[:3]
        roads = graph.road_ids
        absent = next(
            (u, v)
            for u in roads
            for v in roads
            if u < v and graph.agreement(u, v) is None
        )
        graph.apply_delta(
            GraphDelta(
                added=(CorrelationEdge(*absent, 0.995),),
                removed=((first.road_u, first.road_v),),
                reweighted=(
                    CorrelationEdge(second.road_u, second.road_v, 0.001),
                    CorrelationEdge(third.road_u, third.road_v, 0.5),
                ),
            )
        )
        model.refresh_edges()
        assert_same(model.instance(0, {}).edges)

    def test_priors_from_bucket(self, small_dataset):
        model = TrendModel(small_dataset.graph, small_dataset.store)
        interval = small_dataset.test_day_intervals()[40]
        inst = model.instance(interval, {})
        bucket = small_dataset.grid.bucket_of(interval)
        road = inst.road_ids[7]
        expected = small_dataset.store.rise_prior(road, bucket)
        assert inst.prior_rise[7] == pytest.approx(expected)

    def test_unknown_seed_rejected(self, small_dataset):
        model = TrendModel(small_dataset.graph, small_dataset.store)
        with pytest.raises(InferenceError):
            model.instance(0, {999999: Trend.RISE})

    def test_uniform_instance_for_ablation(self, small_dataset):
        model = TrendModel(small_dataset.graph, small_dataset.store)
        inst = model.uniform_instance(0, {}, agreement=0.7)
        assert all(p == pytest.approx(0.7) for _, _, p in inst.edges)
        assert inst.graph is None  # uniform edges invalidate the mined graph
