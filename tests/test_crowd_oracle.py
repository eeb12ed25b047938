"""The one-pass round aggregation against the per-task oracle.

:func:`~repro.crowd.aggregation.mad_filter_rows` filters a whole round's
answers at once; :mod:`tests.oracles.crowd` keeps the per-task form it
replaced (``np.median`` per task, one cutoff for the mask and the
filter). Means must be bitwise the oracle's, masks equal, and a full
round — answers, outcomes, cost and worker health — identical, with
the health tracker and circuit breaker on, and under every worker-fault
scenario.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.breaker import CircuitBreaker
from repro.core.errors import CrowdsourcingError
from repro.crowd import (
    CrowdsourcingPlatform,
    SpeedQueryTask,
    WorkerHealthTracker,
    WorkerPool,
    WorkerPoolParams,
    mad_filter_rows,
    mad_filtered_mean,
)
from repro.faults import bundled_scenarios, inject_faults
from repro.obs import FlightRecorder, recording
from tests.oracles import PerTaskPlatform
from tests.oracles.crowd import mad_outlier_mask, per_task_filtered_mean

#: Filtered-mean and mask disagreed on this input when the mask scaled
#: the MAD as ``threshold * 1.4826 * mad`` and the filter as
#: ``threshold * (1.4826 * mad)``: 35.44 was dropped but never blamed.
LAST_BIT_ANSWERS = [
    15.24131377137447,
    18.94817476657259,
    22.655035761770705,
    35.43555110101478,
    11.534452776176352,
]

speeds = st.floats(min_value=0.5, max_value=120.0, allow_nan=False)


@st.composite
def answer_rows(draw, most=7):
    """One task's answers: 1 to ``most`` of them, with ties and spam."""
    count = draw(st.integers(1, most))
    kind = draw(st.sampled_from(["noisy", "tied", "spam", "rounded"]))
    base = draw(speeds)
    if kind == "tied":
        # mad == 0 whenever more than half the answers coincide.
        tied = draw(st.integers(count // 2 + 1, count))
        rest = count - tied
        row = [base] * tied + draw(st.lists(speeds, min_size=rest, max_size=rest))
    else:
        noise = draw(
            st.lists(st.floats(-0.3, 0.3), min_size=count, max_size=count)
        )
        row = [max(0.5, base * (1.0 + e)) for e in noise]
        if kind == "spam":
            spam = draw(
                st.lists(st.floats(1.0, 100.0), min_size=1, max_size=count)
            )
            row[: len(spam)] = spam
        elif kind == "rounded":
            row = [float(round(value)) for value in row]
    return draw(st.permutations(row))


def _assert_rows_match(rows, threshold):
    means, outliers = mad_filter_rows(rows, threshold)
    assert len(means) == len(rows)
    assert outliers.shape == (len(rows), max(map(len, rows)))
    for i, row in enumerate(rows):
        expected = per_task_filtered_mean(row, threshold)
        assert type(means[i]) is float
        assert means[i].hex() == expected.hex(), (row, threshold)
        assert outliers[i, : len(row)].tolist() == mad_outlier_mask(row, threshold)
        assert not outliers[i, len(row):].any()


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(answer_rows(), min_size=1, max_size=40),
    threshold=st.sampled_from([0.25, 1.0, 2.0, 3.0, 3.5]),
)
def test_one_pass_matches_per_task_oracle(rows, threshold):
    _assert_rows_match(rows, threshold)
    for row in rows[:3]:
        assert mad_filtered_mean(row, threshold).hex() == (
            per_task_filtered_mean(row, threshold).hex()
        )


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(answer_rows(most=16), min_size=1, max_size=20))
def test_wide_rows_match_per_task_oracle(rows):
    # From 8 answers on, numpy sums a padded row in a different order
    # than the kept answers alone: each kept count is summed as its own
    # contiguous block.
    _assert_rows_match(rows, 3.0)


def test_mask_blames_exactly_the_dropped_answers():
    assert mad_filtered_mean(LAST_BIT_ANSWERS, 3.0) == pytest.approx(
        17.0947442689, abs=1e-9
    )
    _, outliers = mad_filter_rows([LAST_BIT_ANSWERS], 3.0)
    assert outliers[0].tolist() == [False, False, False, True, False]
    assert mad_outlier_mask(LAST_BIT_ANSWERS, 3.0) == outliers[0].tolist()
    _assert_rows_match([LAST_BIT_ANSWERS], 3.0)


def test_all_outliers_fall_back_to_the_median():
    # A tiny threshold drops every answer: the median is served and
    # every answer is blamed.
    row = [10.0, 20.0, 31.0, 47.0]
    means, outliers = mad_filter_rows([row], 0.01)
    assert means == [float(np.median(row))]
    assert outliers[0].tolist() == [True, True, True, True]
    _assert_rows_match([row], 0.01)


def test_rejects_bad_input():
    assert mad_filter_rows([], 3.0)[0] == []
    with pytest.raises(CrowdsourcingError):
        mad_filter_rows([[1.0], []], 3.0)
    with pytest.raises(CrowdsourcingError):
        mad_filter_rows([[1.0, -2.0]], 3.0)
    with pytest.raises(CrowdsourcingError):
        mad_filter_rows([[1.0]], 0.0)


# ----------------------------------------------------------------------
# Whole rounds
# ----------------------------------------------------------------------
def _platforms(make_pool, tracked, **kwargs):
    """The production platform and the oracle on identical pools."""
    platforms = []
    for cls in (CrowdsourcingPlatform, PerTaskPlatform):
        extra = {}
        if tracked:
            extra = dict(
                health=WorkerHealthTracker(min_assignments=4),
                circuit_breaker=CircuitBreaker(failure_threshold=3),
            )
        platforms.append(cls(make_pool(), **kwargs, **extra))
    return platforms


def _assert_rounds_match(production, oracle, tasks, seed):
    got = production.collect(tasks, seed=seed)
    want = oracle.collect(tasks, seed=seed)
    assert list(got.answers.items()) == list(want.answers.items())
    assert [a.speed_kmh.hex() for a in got.answers.values()] == [
        a.speed_kmh.hex() for a in want.answers.values()
    ]
    assert got.report == want.report
    assert production.total_cost == oracle.total_cost
    assert production.total_answers == oracle.total_answers
    if production.health is not None:
        assert production.health.snapshot() == oracle.health.snapshot()
        assert production.health.quarantined() == oracle.health.quarantined()
    if production.circuit_breaker is not None:
        assert production.circuit_breaker.state is oracle.circuit_breaker.state


@settings(max_examples=60, deadline=None)
@given(
    pool_seed=st.integers(0, 10_000),
    workers_per_task=st.sampled_from([1, 2, 3, 4, 5, 7, 12]),
    spammers=st.sampled_from([0.0, 0.2, 0.45]),
    reliability=st.sampled_from([0.3, 0.7, 1.0]),
    tracked=st.booleans(),
    threshold=st.sampled_from([1.0, 3.0]),
)
def test_rounds_match_per_task_oracle(
    pool_seed, workers_per_task, spammers, reliability, tracked, threshold
):
    params = WorkerPoolParams(
        spammer_fraction=spammers, mean_reliability=reliability
    )
    production, oracle = _platforms(
        lambda: WorkerPool.sample(24, params, seed=pool_seed),
        tracked,
        workers_per_task=workers_per_task,
        outlier_threshold=threshold,
        max_postings=2,
    )
    truth = np.random.default_rng(pool_seed).uniform(5.0, 90.0, size=(5, 30))
    for index in range(5):
        tasks = [
            SpeedQueryTask(road, index, float(truth[index, road]))
            for road in range(30)
        ]
        _assert_rounds_match(production, oracle, tasks, seed=pool_seed + index)


@pytest.mark.parametrize("scenario", sorted(bundled_scenarios()))
def test_faulty_pool_rounds_match_per_task_oracle(scenario):
    """no-show, spam, stale, outage and dropout windows, all bundled."""
    production, oracle = _platforms(
        lambda: inject_faults(
            WorkerPool.sample(40, WorkerPoolParams(spammer_fraction=0.1), seed=3),
            bundled_scenarios()[scenario],
        ),
        tracked=True,
        workers_per_task=5,
        max_postings=3,
    )
    truth = np.random.default_rng(11).uniform(5.0, 90.0, size=(9, 25))
    for index in range(9):
        tasks = [
            SpeedQueryTask(road, index, float(truth[index, road]))
            for road in range(25)
        ]
        _assert_rounds_match(production, oracle, tasks, seed=index)


def test_custom_aggregator_runs_per_answered_task():
    calls = []

    def first(answers):
        calls.append(len(answers))
        return answers[0]

    production, oracle = _platforms(
        lambda: WorkerPool.sample(20, seed=5),
        tracked=True,
        workers_per_task=3,
        aggregator=first,
    )
    tasks = [SpeedQueryTask(road, 0, 30.0 + road) for road in range(12)]
    _assert_rounds_match(production, oracle, tasks, seed=9)
    # Once per answered task on each of the two platforms.
    assert len(calls) == 2 * len(production.last_report.answered_roads) > 0


def test_aggregate_span_nests_under_the_round():
    platform = CrowdsourcingPlatform(
        WorkerPool.sample(30, seed=2), workers_per_task=3
    )
    tasks = [SpeedQueryTask(road, 4, 20.0 + road) for road in range(10)]
    with recording(FlightRecorder()) as recorder:
        crowd_round = platform.collect(tasks, seed=1)
        spans = {span.name: span for span in recorder.tracer.drain()}
    aggregate, round_span = spans["crowd.aggregate"], spans["crowd.round"]
    assert aggregate.parent_id == round_span.span_id
    assert aggregate.attrs["answers"] == crowd_round.report.total_answers > 0
