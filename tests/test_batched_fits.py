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
* each row bitwise equal across batches: one gather of any row
  order, one gather per chunk of rows (in reverse order, on fresh
  moments), and the stacked solve split into chunks in any row order;
* the work counters: after a graph delta the plan's refresh fits
  exactly the rows whose ranked seed ids differ between cold compiles
  before and after the delta (rows newly reached, rows no longer
  reached, re-ranked rows), counted test-side from the scalar
  influence index; it fetches each plan seed's row once, and a gather
  computes each column block of the product at most once.

Influence is handed to the kernel as the plan seeds' sparse rows; the
tests build those rows from a road -> {seed -> fidelity} index with
``tests/oracles/fidelity.py::influence_rows``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
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
from tests.oracles import ScalarSeedRegression, ScalarTwoStep
from tests.oracles.delta import EdgeTuples
from tests.oracles.fidelity import influence_rows

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


def _gather(regression, seeds, roads, members, influence):
    """``gather`` of the road ids ``members`` over the road order ``roads``."""
    position = {road: i for i, road in enumerate(roads)}
    moments = regression.moments(seeds, roads)
    return moments.gather(
        np.array([position[road] for road in members], dtype=np.int64),
        moments.rank(influence_rows(influence, seeds, roads)),
    )


def _fit_rows(regression, seeds, roads, members, influence):
    """road -> its fitted row's bytes, gathering ``members`` in one call."""
    fits = fit_batch(
        regression.params, _gather(regression, seeds, roads, members, influence)
    )
    return {road: _row_bytes(fits, i) for i, road in enumerate(members)}


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
        fits = fit_batch(params, _gather(regression, seeds, roads, roads, influence))
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
        fits = fit_batch(params, _gather(regression, seeds, road_ids, road_ids, influence))
        oracle = ScalarSeedRegression(store, params)
        singular = oracle.for_road(13, influence[13])
        assert not singular.coefficients.any()
        assert fits.has_reg[3] and not fits.coef[3].any()
        regular = oracle.for_road(14, influence[14])
        np.testing.assert_allclose(fits.coef[4, :2], regular.coefficients, rtol=1e-9)
        # The regular row has the bits it has when fitted with no
        # singular row beside it.
        alone = _fit_rows(regression, seeds, road_ids, (14,), influence)
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
        reference = _fit_rows(regression, seeds, roads, roads, influence)

        # Any road order, gathered in one call.
        shuffled = data.draw(st.permutations(roads))
        assert _fit_rows(regression, seeds, roads, shuffled, influence) == reference

        # One gather per chunk, in reverse order, each on fresh moments.
        cuts = data.draw(st.lists(st.integers(min_value=1, max_value=len(roads))))
        separate = {}
        for chunk in reversed(_partition(shuffled, cuts)):
            separate.update(_fit_rows(regression, seeds, roads, chunk, influence))
        assert separate == reference

        # The stacked solves split into chunks of shuffled rows.
        batch = _gather(regression, seeds, roads, roads, influence)
        size = data.draw(st.integers(min_value=1, max_value=5))
        for rows, idx, gram, moment, total in batch.groups:
            order = data.draw(st.permutations(range(len(rows))))
            for start in range(0, len(order), size):
                pick = np.asarray(order[start : start + size])
                chunk = FitBatch(
                    seeds=seeds,
                    rows=batch.rows,
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


def _ranked_seeds(store, graph, hlm, seeds, width):
    """road -> its top-``width`` seed ids, from the scalar influence index."""
    index = ScalarTwoStep(store, graph, hlm).influence_index(seeds)
    return {
        road: tuple(sorted(row, key=lambda seed: (-row[seed], seed))[:width])
        for road, row in index.items()
        if road not in seeds
    }


class TestWorkCounters:
    def test_one_edge_delta_refits_changed_rows(self, small_dataset, monkeypatch):
        # Narrow blocks, so the 120-road history spans eight of them.
        monkeypatch.setattr(hlm_module, "MOMENT_BLOCK_COLUMNS", 16)
        dataset = small_dataset
        store = dataset.store
        graph, parts = _four_components(dataset.graph.road_ids)
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(store, dataset.network, graph, params)
        fidelity = FidelityCacheService()
        est = TwoStepEstimator(
            dataset.network, store, graph, hlm=hlm, hlm_params=params,
            fidelity_service=fidelity,
        )
        seeds = [road for part in parts for road in (part[3], part[12])]
        width = min(params.max_seeds_per_road, len(seeds))
        interval = dataset.test_day_intervals()[0]
        speeds = {r: dataset.test.speed(r, interval) for r in seeds}

        def block_of(road):
            return store.road_column(road) // 16

        def spans(name):
            return [s for s in rec.tracer.drain() if s.name == name]

        rec = FlightRecorder()
        previous = set_recorder(rec)
        try:
            est.estimate_interval(interval, speeds)
            drained = rec.tracer.drain()
            (moments,) = [s for s in drained if s.name == "speed.hlm.moments"]
            (cold,) = [s for s in drained if s.name == "speed.plan.compile"]
            before = _ranked_seeds(store, graph, hlm, seeds, width)
            assert cold.attrs["rows_fitted"] == moments.attrs["rows"] == len(before)
            assert moments.attrs["blocks"] == cold.attrs["moment_blocks"] == len(
                {block_of(r) for r in before}
            )
            fits_before = rec.registry.counter("speed.hlm.regression_fits").value
            assert fits_before == len(before)

            # Cut chain 2 past its second seed and bridge chain 1 to
            # chain 2's tail: rows past the cut lose that seed, and the
            # tail is newly reached from chain 1's second seed.
            delta = EdgeTuples(
                added=(CorrelationEdge(parts[1][14], parts[2][25], 0.9),),
                removed=((parts[2][15], parts[2][16]),),
            ).delta()
            graph.apply_delta(delta)
            lost = set(fidelity.apply_graph_delta(graph, delta)) & set(seeds)
            assert lost
            after = _ranked_seeds(store, graph, hlm, seeds, width)
            changed = {
                road
                for road in set(before) | set(after)
                if before.get(road) != after.get(road)
            }
            assert set(before) - set(after), "some row is no longer reached"
            assert set(after) - set(before), "some row is newly reached"
            refit = changed & set(after)

            # The refresh fetches each plan seed's row once: the rows the
            # delta dropped miss, the others hit.
            plan = est.plan_for(interval, seeds)
            rec.tracer.drain()
            hits = rec.registry.counter("fidelity.cache", hit="true").value
            misses = rec.registry.counter("fidelity.cache", hit="false").value
            plan.has_reg
            assert (
                rec.registry.counter("fidelity.cache", hit="false").value - misses
                == len(lost)
            )
            assert (
                rec.registry.counter("fidelity.cache", hit="true").value - hits
                == len(seeds) - len(lost)
            )
            drained = rec.tracer.drain()
            (moments,) = [s for s in drained if s.name == "speed.hlm.moments"]
            (refresh,) = [s for s in drained if s.name == "speed.plan.compile"]
            assert refresh.attrs["rows_fitted"] == len(changed)
            assert moments.attrs["rows"] == len(refit)
            blocks = len({block_of(r) for r in refit})
            assert moments.attrs["blocks"] == refresh.attrs["moment_blocks"] == blocks
            assert (
                rec.registry.counter("speed.hlm.regression_fits").value
                == fits_before + len(refit)
            )
            served = est.estimate_interval(interval, speeds)
            assert not spans("speed.plan.compile")
        finally:
            set_recorder(previous)

        # The refreshed plan serves what a cold compile serves, bit for bit.
        cold_est = TwoStepEstimator(
            dataset.network, store, graph, hlm=hlm, hlm_params=params,
            fidelity_service=FidelityCacheService(),
        )
        assert cold_est.estimate_interval(interval, speeds) == served
