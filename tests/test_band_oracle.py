"""Plan-column prediction bands against the per-road band oracle.

:meth:`~repro.speed.uncertainty.UncertaintyModel.bands_for` gathers
each road's residual std and historical speed from the compiled plan
that served the round; ``tests/oracles/uncertainty.py`` recomputes them
road by road through ``JointSeedRegression.for_road`` and the store.
The two must agree bit for bit on ``lower``, ``upper`` and ``std`` for
one-district and multi-district plans (including shards compiled by a
2-worker pool over 4 districts, whose columns must also equal the
whole-city oracle plan's), degraded observations, roads no seed
influences, ``estimate_roads`` subsets, every supported confidence, and
the round after a graph delta marked shards stale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pool import SharedWorkerPool
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
from repro.history.incremental import GraphDelta
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.speed.plan import IntervalPlanCache, IntervalPlanner
from repro.speed.uncertainty import UncertaintyModel
from tests.oracles import MonolithicPlanner, ScalarBands
from tests.oracles.uncertainty import normal_confidences

CONFIDENCES = normal_confidences()


@pytest.fixture(scope="module")
def fitted(small_dataset):
    params = HlmParams()
    hlm = HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph, params
    )
    return small_dataset, hlm, params


def _estimator(dataset, hlm, params, partitions=None, pool=None, graph=None,
               fidelity=None, plan_cache=None, factory=None):
    """Production over ``partitions`` (None: one district) unless ``factory``."""
    if factory is None:
        def factory(store, network, hlm_, road_ids):
            return IntervalPlanner(
                store, network, hlm_, road_ids, partitions, pool=pool
            )
    return TwoStepEstimator(
        dataset.network,
        dataset.store,
        graph if graph is not None else dataset.graph,
        hlm=hlm,
        hlm_params=params,
        fidelity_service=fidelity or FidelityCacheService(),
        plan_cache=plan_cache,
        planner_factory=factory,
    )


def _chunks(road_ids, num_districts):
    roads = list(road_ids)
    bounds = np.linspace(0, len(roads), num_districts + 1).astype(int)
    return [tuple(roads[bounds[i]:bounds[i + 1]]) for i in range(num_districts)]


def _speeds(dataset, seeds, interval, factor=1.0):
    return {r: dataset.test.speed(r, interval) * factor for r in seeds}


def _degrade(estimates, roads):
    """Mark ``roads`` degraded, as the publisher does for substitutions."""
    out = dict(estimates)
    for road in roads:
        if road in out:
            out[road] = out[road].replace(degraded=True)
    return out


def _assert_bitwise(got, want):
    assert list(got) == list(want)
    for road, band in want.items():
        mine = got[road]
        for name in ("lower_kmh", "upper_kmh", "std_kmh"):
            assert getattr(mine, name).hex() == getattr(band, name).hex(), (
                f"road {road} {name}: {getattr(mine, name)!r} != "
                f"oracle {getattr(band, name)!r}"
            )
        assert mine == band


def _check_round(estimator, dataset, estimates, speeds, confidences=CONFIDENCES):
    for confidence in confidences:
        model = UncertaintyModel(estimator, dataset.store, confidence)
        oracle = ScalarBands(estimator, dataset.store, confidence)
        _assert_bitwise(
            model.bands_for(estimates, speeds), oracle.bands_for(estimates, speeds)
        )


class TestMonolithic:
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_rounds_match_oracle(self, fitted, confidence):
        dataset, hlm, params = fitted
        est = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        seeds = roads[::13][:8]
        for factor in (1.0, 0.8):
            for interval in dataset.test_day_intervals()[:3]:
                speeds = _speeds(dataset, seeds, interval, factor)
                estimates = _degrade(
                    est.estimate_interval(interval, speeds), [seeds[0], roads[1]]
                )
                _check_round(est, dataset, estimates, speeds, [confidence])

    def test_uninfluenced_roads_use_the_prior(self, small_dataset):
        graph, first, second = _split_graph(small_dataset.graph.road_ids)
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, graph, params
        )
        est = _estimator(small_dataset, hlm, params, graph=graph)
        seeds = [first[5], first[20]]  # nothing reaches the second chain
        interval = small_dataset.test_day_intervals()[5]
        speeds = _speeds(small_dataset, seeds, interval)
        estimates = _degrade(est.estimate_interval(interval, speeds), [second[3]])
        plan = est.plan_for(interval, speeds)
        assert not plan.has_reg[[plan.index[road] for road in second]].any()
        assert plan.has_reg.any()
        _check_round(est, small_dataset, estimates, speeds)

    def test_estimate_roads_subset(self, fitted):
        dataset, hlm, params = fitted
        est = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        seeds = roads[::13][:8]
        interval = dataset.test_day_intervals()[2]
        speeds = _speeds(dataset, seeds, interval)
        subset = [seeds[1], roads[3], roads[50], roads[-1]]
        estimates = _degrade(est.estimate_roads(interval, speeds, subset), [seeds[1]])
        assert sorted(estimates) == sorted(subset)
        _check_round(est, dataset, estimates, speeds)

    def test_band_lookup_counts_no_plan_traffic(self, fitted):
        """A round is one plan lookup: bands read the plan without a hit."""
        dataset, hlm, params = fitted
        est = _estimator(dataset, hlm, params)
        roads = list(dataset.graph.road_ids)
        seeds = roads[::13][:8]
        model = UncertaintyModel(est, dataset.store)
        intervals = dataset.test_day_intervals()[:2]
        for interval in intervals + intervals:
            speeds = _speeds(dataset, seeds, interval)
            model.bands_for(est.estimate_interval(interval, speeds), speeds)
        stats = est.plan_cache.stats()
        assert (stats.hits, stats.misses) == (2, 2)


class TestSharded:
    def test_two_workers_four_districts_match_oracle(self, fitted):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        with SharedWorkerPool(2) as pool:
            est = _estimator(
                dataset, hlm, params, partitions=_chunks(roads, 4), pool=pool
            )
            oracle = _estimator(dataset, hlm, params, factory=MonolithicPlanner)
            seeds = roads[::13][:8]
            for interval in dataset.test_day_intervals()[:2]:
                speeds = _speeds(dataset, seeds, interval)
                estimates = _degrade(
                    est.estimate_interval(interval, speeds), [seeds[2], roads[7]]
                )
                _check_round(est, dataset, estimates, speeds)
                plan = est.plan_for(interval, speeds)
                whole = oracle.plan_for(interval, speeds)
                for column in ("has_reg", "residual_std", "historical"):
                    assert (
                        getattr(plan, column).tobytes()
                        == getattr(whole, column).tobytes()
                    ), column
                _assert_bitwise(
                    UncertaintyModel(est, dataset.store).bands_for(estimates, speeds),
                    UncertaintyModel(oracle, dataset.store).bands_for(
                        _degrade(
                            oracle.estimate_interval(interval, speeds),
                            [seeds[2], roads[7]],
                        ),
                        speeds,
                    ),
                )
                subset = [seeds[0], roads[4], roads[90]]
                _check_round(
                    est, dataset, est.estimate_roads(interval, speeds, subset), speeds
                )


def _split_graph(road_ids):
    """Two disconnected chains: a delta in one leaves the other's shard."""
    roads = sorted(road_ids)
    half = len(roads) // 2
    first, second = roads[:half], roads[half:]
    edges = [
        CorrelationEdge(a, b, 0.8)
        for chunk in (first, second)
        for a, b in zip(chunk, chunk[1:])
    ]
    return CorrelationGraph(roads, edges), tuple(first), tuple(second)


class TestAfterGraphDelta:
    # "monolithic" is the default one-district planner.
    @pytest.mark.parametrize("sharded", [False, True], ids=["monolithic", "sharded"])
    def test_round_after_delta_matches_oracle(self, small_dataset, sharded):
        graph, first, second = _split_graph(small_dataset.graph.road_ids)
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(
            small_dataset.store, small_dataset.network, graph, params
        )
        fidelity = FidelityCacheService()
        cache = IntervalPlanCache(maxsize=8)
        est = _estimator(
            small_dataset, hlm, params,
            partitions=[first, second] if sharded else None,
            graph=graph, fidelity=fidelity, plan_cache=cache,
        )
        seeds = [first[5], first[20], second[5], second[20]]
        interval = small_dataset.test_day_intervals()[0]
        speeds = _speeds(small_dataset, seeds, interval)
        before = est.estimate_interval(interval, speeds)
        _check_round(est, small_dataset, before, speeds)

        stale_oracle = ScalarBands(est, small_dataset.store).bands_for(before, speeds)
        # Cut the chain next to seed second[5]: roads past the cut lose
        # that seed, so their regressions (and band stds) change.
        delta = GraphDelta(added=(), removed=((second[6], second[7]),), reweighted=())
        graph.apply_delta(delta)
        assert fidelity.apply_graph_delta(graph, delta)
        fresh_oracle = ScalarBands(est, small_dataset.store).bands_for(before, speeds)
        assert any(
            stale_oracle[r].std_kmh != fresh_oracle[r].std_kmh for r in second
        ), "the delta must change some regression's residual std"
        plan = next(iter(cache._plans.values()))
        assert plan._shard_set.needs_refresh
        # Bands first: the band lookup itself must refresh stale shards.
        _check_round(est, small_dataset, before, speeds)
        after = est.estimate_interval(interval, speeds)
        assert any(before[r] != after[r] for r in second)
        _check_round(est, small_dataset, after, speeds)
