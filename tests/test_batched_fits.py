"""Batched Step-2 regression fits against the per-road oracle.

:meth:`~repro.speed.hlm.SeedMoments.gather` reads every row's Gram
matrix and moment from one product of the plan's seed columns against
the history, and :func:`~repro.speed.hlm.fit_batch` fits each seed
count's rows in one stacked solve. Pinned here, on hypothesis histories
and seed tuples (one seed per row, rows at the ``max_seeds_per_road``
cap, zero-variance seed columns that make the stacked solve singular,
roads no seed reaches and seed roads):

* each row's seeds, coefficients, weight and residual std against
  ``tests/oracles/hlm.py::ScalarSeedRegression.for_road``. The kernel
  sums Gram entries, traces and quadratic forms in another order than
  the oracle, so the comparison uses ``rtol=1e-9`` (and ``atol=1e-12``
  for values at zero), not bit equality;
* each row bitwise equal across district partitions, one gather call
  or one per district (in reverse order, on fresh moments), and the
  stacked solve split into chunks in any row order;
* the work counters: a one-edge delta in one district of a 4-district
  plan fits exactly that district's influenced non-seed rows, and a
  gather computes each column block of the product at most once.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
from repro.history.incremental import GraphDelta
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.obs import FlightRecorder, set_recorder
from repro.speed import hlm as hlm_module
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import (
    FitBatch,
    HierarchicalLinearModel,
    HlmParams,
    JointSeedRegression,
    fit_batch,
)
from repro.speed.plan import IntervalPlanCache, IntervalPlanner
from tests.oracles import ScalarSeedRegression

#: Fidelities with frequent ties, so the seed-id tie-break is exercised.
FIDELITIES = (0.25, 0.5, 0.75, 1.0)


@st.composite
def fit_cases(draw):
    """A history, plan seeds and an influence index over shuffled road ids."""
    n = draw(st.integers(min_value=3, max_value=14))
    samples = draw(st.integers(min_value=8, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    road_ids = [int(r) for r in rng.permutation(np.arange(n) * 7 + 100)]
    speeds = 20.0 + 10.0 * rng.random((samples, n))
    seeds = tuple(
        sorted(draw(st.lists(st.sampled_from(road_ids), min_size=1, max_size=n, unique=True)))
    )
    # A constant speed is its own bucket mean: a zero-variance column.
    for seed in draw(st.lists(st.sampled_from(seeds), unique=True)):
        speeds[:, road_ids.index(seed)] = 30.0
    influence = {}
    for road in road_ids:
        reaching = draw(
            st.lists(st.sampled_from(seeds), unique=True, max_size=len(seeds))
        )
        row = {
            seed: draw(st.sampled_from(FIDELITIES)) for seed in reaching if seed != road
        }
        if row:
            influence[road] = row
    store = HistoricalSpeedStore(
        TimeGrid(interval_minutes=360), road_ids, speeds, np.arange(samples)
    )
    params = HlmParams(max_seeds_per_road=draw(st.integers(min_value=1, max_value=4)))
    return store, params, seeds, influence


def _fit_rows(regression, seeds, districts, influence):
    """road -> its fitted row's bytes, gathering ``districts`` in one call."""
    batches = regression.moments(seeds).gather(districts, influence)
    rows = {}
    for members, batch in zip(districts, batches):
        fits = fit_batch(regression.params, batch)
        for i, road in enumerate(members):
            rows[road] = _row_bytes(fits, i)
    return rows


def _row_bytes(fits, i):
    return tuple(np.asarray(column[i]).tobytes() for column in fits)


def _partition(road_ids, cuts):
    bounds = [0, *sorted(set(cuts)), len(road_ids)]
    return [
        tuple(road_ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if lo < hi
    ]


class TestAgainstOracle:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=fit_cases())
    def test_rows_match_per_road_fits(self, case):
        store, params, seeds, influence = case
        roads = tuple(store.road_ids)
        regression = JointSeedRegression(store, params)
        (batch,) = regression.moments(seeds).gather([roads], influence)
        fits = fit_batch(params, batch)
        oracle = ScalarSeedRegression(store, params)
        for i, road in enumerate(roads):
            want = (
                None
                if road in seeds
                else oracle.for_road(road, influence.get(road, {}))
            )
            if want is None:
                assert not fits.has_reg[i]
                assert not fits.coef[i].any()
                assert (fits.seed_idx[i] == len(seeds)).all()
                assert fits.weight[i] == 0.0 and fits.residual_std[i] == 0.0
                continue
            m = len(want.seeds)
            assert fits.has_reg[i]
            assert tuple(seeds[k] for k in fits.seed_idx[i, :m]) == want.seeds
            assert (fits.seed_idx[i, m:] == len(seeds)).all()
            assert not fits.coef[i, m:].any()
            np.testing.assert_allclose(
                fits.coef[i, :m], want.coefficients, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(fits.weight[i], want.weight, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                fits.residual_std[i], want.residual_std, rtol=1e-9, atol=1e-12
            )

    def test_singular_rows_fall_back_to_least_squares(self):
        """A row whose seeds all have zero variance has G + λI = 0."""
        rng = np.random.default_rng(3)
        road_ids = [10, 11, 12, 13, 14]
        speeds = 20.0 + 10.0 * rng.random((16, 5))
        speeds[:, 0] = speeds[:, 1] = 30.0  # seeds 10 and 11: zero variance
        store = HistoricalSpeedStore(
            TimeGrid(interval_minutes=360), road_ids, speeds, np.arange(16)
        )
        params = HlmParams()
        seeds = (10, 11, 12)
        influence = {13: {10: 0.5, 11: 0.5}, 14: {10: 0.9, 12: 0.4}}
        regression = JointSeedRegression(store, params)
        (batch,) = regression.moments(seeds).gather([tuple(road_ids)], influence)
        fits = fit_batch(params, batch)
        oracle = ScalarSeedRegression(store, params)
        singular = oracle.for_road(13, influence[13])
        assert not singular.coefficients.any()
        assert fits.has_reg[3] and not fits.coef[3].any()
        regular = oracle.for_road(14, influence[14])
        np.testing.assert_allclose(fits.coef[4, :2], regular.coefficients, rtol=1e-9)
        # The regular row has the bits it has when fitted with no
        # singular row beside it.
        alone = _fit_rows(regression, seeds, [(14,)], influence)
        assert alone[14] == _row_bytes(fits, 4)


class TestBatchInvariance:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=fit_cases(), data=st.data())
    def test_rows_bitwise_across_batches(self, case, data):
        store, params, seeds, influence = case
        roads = list(store.road_ids)
        regression = JointSeedRegression(store, params)
        reference = _fit_rows(regression, seeds, [tuple(roads)], influence)

        # Any partition of any road order, gathered in one call.
        shuffled = data.draw(st.permutations(roads))
        cuts = data.draw(st.lists(st.integers(min_value=1, max_value=len(roads))))
        districts = _partition(shuffled, cuts)
        assert _fit_rows(regression, seeds, districts, influence) == reference

        # One gather per district, in reverse order, each on fresh moments.
        separate = {}
        for district in reversed(districts):
            separate.update(_fit_rows(regression, seeds, [district], influence))
        assert separate == reference

        # The stacked solves split into chunks of shuffled rows.
        (batch,) = regression.moments(seeds).gather([tuple(roads)], influence)
        size = data.draw(st.integers(min_value=1, max_value=5))
        for rows, idx, gram, moment, total in batch.groups:
            order = data.draw(st.permutations(range(len(rows))))
            for start in range(0, len(order), size):
                pick = np.asarray(order[start : start + size])
                chunk = FitBatch(
                    seeds=seeds,
                    num_roads=batch.num_roads,
                    width=batch.width,
                    num_samples=batch.num_samples,
                    groups=((rows[pick], idx[pick], gram[pick], moment[pick], total[pick]),),
                    blocks=batch.blocks,
                )
                fits = fit_batch(params, chunk)
                for i in rows[pick]:
                    assert _row_bytes(fits, i) == reference[roads[i]]


def _four_components(road_ids):
    """Four disconnected chains over one road set: influence stays inside."""
    roads = sorted(road_ids)
    bounds = np.linspace(0, len(roads), 5).astype(int)
    parts = [tuple(roads[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    edges = [
        CorrelationEdge(a, b, 0.8) for part in parts for a, b in zip(part, part[1:])
    ]
    return CorrelationGraph(roads, edges), parts


class TestWorkCounters:
    def test_one_edge_delta_refits_one_district(self, small_dataset, monkeypatch):
        # Narrow blocks, so the 120-road history spans eight of them.
        monkeypatch.setattr(hlm_module, "MOMENT_BLOCK_COLUMNS", 16)
        dataset = small_dataset
        store = dataset.store
        graph, parts = _four_components(dataset.graph.road_ids)
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(store, dataset.network, graph, params)
        fidelity = FidelityCacheService()
        cache = IntervalPlanCache(maxsize=4)

        def factory(store_, network, hlm_, road_ids):
            return IntervalPlanner(store_, network, hlm_, road_ids, parts)

        est = TwoStepEstimator(
            dataset.network, store, graph, hlm=hlm, hlm_params=params,
            fidelity_service=fidelity, plan_cache=cache, planner_factory=factory,
        )
        seeds = [road for part in parts for road in (part[3], part[12])]
        interval = dataset.test_day_intervals()[0]
        speeds = {r: dataset.test.speed(r, interval) for r in seeds}

        def block_of(road):
            return store.road_column(road) // 16

        def fitted_roads(part):
            index = est.influence_index(set(seeds))
            return [r for r in part if r not in speeds and index.get(r)]

        rec = FlightRecorder()
        previous = set_recorder(rec)
        try:
            est.estimate_interval(interval, speeds)
            spans = rec.tracer.drain()
            (moments,) = [s for s in spans if s.name == "speed.hlm.moments"]
            cold = [s for s in spans if "district" in s.attrs]
            every_row = [r for part in parts for r in fitted_roads(part)]
            assert moments.attrs["rows"] == len(every_row)
            # One gather for all four districts: each block once.
            assert moments.attrs["blocks"] == len({block_of(r) for r in every_row})
            assert sum(s.attrs["moment_blocks"] for s in cold) >= moments.attrs["blocks"]
            for span in cold:
                part = parts[span.attrs["district"]]
                assert span.attrs["rows_fitted"] == len(fitted_roads(part))
                assert span.attrs["moment_blocks"] == len(
                    {block_of(r) for r in fitted_roads(part)}
                )
            fits_before = rec.registry.counter("speed.hlm.regression_fits").value
            assert fits_before == len(every_row)

            # Reweight one edge inside district 2.
            edge = graph.neighbours(parts[2][5])[0]
            delta = GraphDelta(
                added=(),
                removed=(),
                reweighted=(CorrelationEdge(edge.road_u, edge.road_v, 0.93),),
            )
            graph.apply_delta(delta)
            fidelity.apply_graph_delta(graph, delta)
            after = est.estimate_interval(interval, speeds)
            spans = rec.tracer.drain()
            (moments,) = [s for s in spans if s.name == "speed.hlm.moments"]
            (refresh,) = [s for s in spans if "district" in s.attrs]
            touched = fitted_roads(parts[2])
            assert refresh.attrs["district"] == 2
            assert refresh.attrs["rows_fitted"] == len(touched)
            assert moments.attrs["rows"] == len(touched)
            blocks = len({block_of(r) for r in touched})
            assert moments.attrs["blocks"] == refresh.attrs["moment_blocks"] == blocks
            assert (
                rec.registry.counter("speed.hlm.regression_fits").value
                == fits_before + len(touched)
            )
        finally:
            set_recorder(previous)

        # The refreshed plan serves what a cold compile serves, bit for bit.
        cold_est = TwoStepEstimator(
            dataset.network, store, graph, hlm=hlm, hlm_params=params,
            fidelity_service=FidelityCacheService(), planner_factory=factory,
        )
        assert cold_est.estimate_interval(interval, speeds) == after
