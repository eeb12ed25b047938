"""Tests for incremental sliding-window correlation mining.

The load-bearing contract: the incrementally maintained graph is
**exactly** (bit-for-bit, with the default tolerance 0.0) the graph a
from-scratch :func:`~repro.history.correlation.mine_correlation_graph`
would produce on the current window, after any sequence of ingests,
evictions and re-mines. Everything else — delta plumbing, selective
cache eviction — leans on that guarantee.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.history.correlation import (
    CorrelationEdge,
    CorrelationGraph,
    mine_correlation_graph,
)
from repro.history.incremental import (
    EMPTY_DELTA,
    GraphDelta,
    IncrementalCoTrendStats,
)
from repro.history.online import RollingHistory
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.traffic.simulator import TrafficSimulator
from tests.oracles.delta import diff_edges


class _StubStore:
    """Just enough store surface for mining: ids + a crafted trend matrix."""

    def __init__(self, road_ids, trends):
        self.road_ids = list(road_ids)
        self._trends = np.asarray(trends)

    def trend_matrix(self):
        return self._trends


def _line_network(num_roads):
    from repro.roadnet.geometry import Point
    from repro.roadnet.network import RoadNetwork

    net = RoadNetwork()
    for node in range(num_roads + 1):
        net.add_intersection(node, Point(100.0 * node, 0))
    for road in range(num_roads):
        net.add_segment(road, road, road + 1)
    return net


def _graph_weights(graph):
    return {(e.road_u, e.road_v): e.agreement for e in graph.edges()}


def _mined_graph(roads, stats, **thresholds):
    road_u, road_v, agreement = stats.mine_arrays(**thresholds)
    return CorrelationGraph(
        roads,
        [
            CorrelationEdge(u, v, p)
            for u, v, p in zip(road_u.tolist(), road_v.tolist(), agreement.tolist())
        ],
    )


def _assert_graphs_equal(actual, expected):
    assert actual.road_ids == expected.road_ids
    assert _graph_weights(actual) == _graph_weights(expected)


# ----------------------------------------------------------------------
# GraphDelta + the list-form diff oracle (the array diff is pinned to it
# in tests/test_delta_oracle.py)
# ----------------------------------------------------------------------
class TestGraphDelta:
    def test_empty(self):
        assert EMPTY_DELTA.is_empty
        assert EMPTY_DELTA.num_changes == 0
        assert EMPTY_DELTA.touched_roads() == ()

    def test_touched_roads_sorted_union(self):
        delta = GraphDelta(
            added=(CorrelationEdge(5, 9, 0.8),),
            removed=((1, 2),),
            reweighted=(CorrelationEdge(2, 5, 0.7),),
        )
        assert delta.touched_roads() == (1, 2, 5, 9)
        assert delta.num_changes == 3
        assert not delta.is_empty

    def test_diff_identifies_each_change_kind(self):
        graph = CorrelationGraph(
            [1, 2, 3, 4],
            [
                CorrelationEdge(1, 2, 0.9),
                CorrelationEdge(2, 3, 0.7),
            ],
        )
        mined = [
            CorrelationEdge(1, 2, 0.9),  # unchanged
            CorrelationEdge(2, 3, 0.8),  # reweighted
            CorrelationEdge(3, 4, 0.65),  # added
            # (nothing for a removed edge — none mined)
        ]
        delta = diff_edges(graph, mined)
        assert [(e.road_u, e.road_v) for e in delta.added] == [(3, 4)]
        assert delta.removed == ()
        assert [(e.road_u, e.road_v, e.agreement) for e in delta.reweighted] == [
            (2, 3, 0.8)
        ]

    def test_diff_reports_removals(self):
        graph = CorrelationGraph(
            [1, 2, 3], [CorrelationEdge(1, 2, 0.9), CorrelationEdge(2, 3, 0.7)]
        )
        delta = diff_edges(graph, [CorrelationEdge(1, 2, 0.9)])
        assert delta.removed == ((2, 3),)
        assert delta.added == () and delta.reweighted == ()

    def test_tolerance_suppresses_small_drift(self):
        graph = CorrelationGraph([1, 2], [CorrelationEdge(1, 2, 0.80)])
        drifted = [CorrelationEdge(1, 2, 0.805)]
        assert diff_edges(graph, drifted, tolerance=0.01).is_empty
        moved = diff_edges(graph, drifted, tolerance=0.001)
        assert [e.agreement for e in moved.reweighted] == [0.805]

    def test_tolerance_never_suppresses_presence_changes(self):
        graph = CorrelationGraph([1, 2, 3], [CorrelationEdge(1, 2, 0.8)])
        delta = diff_edges(graph, [CorrelationEdge(2, 3, 0.8)], tolerance=9.0)
        assert delta.removed == ((1, 2),)
        assert [(e.road_u, e.road_v) for e in delta.added] == [(2, 3)]

    def test_negative_tolerance_rejected(self):
        graph = CorrelationGraph([1, 2], [])
        with pytest.raises(DataError, match="tolerance"):
            diff_edges(graph, [], tolerance=-0.1)


class TestApplyDelta:
    def _graph(self):
        return CorrelationGraph(
            [1, 2, 3, 4],
            [
                CorrelationEdge(1, 2, 0.9),
                CorrelationEdge(2, 3, 0.7),
                CorrelationEdge(1, 3, 0.8),
            ],
        )

    def test_apply_reaches_fresh_mining_state(self):
        graph = self._graph()
        mined = [
            CorrelationEdge(1, 2, 0.95),
            CorrelationEdge(1, 3, 0.8),
            CorrelationEdge(3, 4, 0.62),
        ]
        graph.apply_delta(diff_edges(graph, mined))
        _assert_graphs_equal(graph, CorrelationGraph([1, 2, 3, 4], mined))

    def test_apply_preserves_identity_and_adjacency_order(self):
        graph = self._graph()
        before = id(graph)
        graph.apply_delta(
            diff_edges(graph, [CorrelationEdge(1, 2, 0.6), CorrelationEdge(2, 3, 0.7)])
        )
        assert id(graph) == before
        # Adjacency stays sorted strongest-first after a reweight.
        assert [e.agreement for e in graph.neighbours(2)] == [0.7, 0.6]
        assert graph.agreement(1, 3) is None

    def test_apply_empty_delta_is_noop(self):
        graph = self._graph()
        before = _graph_weights(graph)
        graph.apply_delta(EMPTY_DELTA)
        assert _graph_weights(graph) == before

    def test_remove_absent_edge_rejected(self):
        with pytest.raises(DataError, match="remove absent"):
            self._graph().apply_delta(
                GraphDelta(added=(), removed=((1, 4),), reweighted=())
            )

    def test_add_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            self._graph().apply_delta(
                GraphDelta(
                    added=(CorrelationEdge(1, 2, 0.5),), removed=(), reweighted=()
                )
            )

    def test_add_unknown_road_rejected(self):
        with pytest.raises(DataError, match="unknown road"):
            self._graph().apply_delta(
                GraphDelta(
                    added=(CorrelationEdge(1, 9, 0.5),), removed=(), reweighted=()
                )
            )

    def test_reweight_absent_edge_rejected(self):
        with pytest.raises(DataError, match="reweight absent"):
            self._graph().apply_delta(
                GraphDelta(
                    added=(), removed=(), reweighted=(CorrelationEdge(1, 4, 0.5),)
                )
            )


    @pytest.mark.parametrize(
        "delta, message",
        [
            (
                GraphDelta(
                    added=(),
                    removed=((1, 2),),
                    reweighted=(CorrelationEdge(3, 4, 0.7),),
                ),
                "reweight absent",
            ),
            (
                GraphDelta(
                    added=(CorrelationEdge(3, 4, 0.8),),
                    removed=((1, 2),),
                    reweighted=(CorrelationEdge(2, 3, 0.6),),
                ),
                "remove absent",
            ),
            (
                GraphDelta(
                    added=(CorrelationEdge(2, 4, 0.8), CorrelationEdge(1, 9, 0.8)),
                    removed=((1, 3),),
                    reweighted=(),
                ),
                "unknown road",
            ),
            (
                GraphDelta(
                    added=(CorrelationEdge(3, 4, 0.8), CorrelationEdge(1, 2, 0.6)),
                    removed=(),
                    reweighted=(),
                ),
                "duplicate",
            ),
            (
                GraphDelta(
                    added=(CorrelationEdge(2, 1, 0.6),),
                    removed=((1, 2),),
                    reweighted=(),
                ),
                "twice",
            ),
            (
                GraphDelta(
                    added=(),
                    removed=(),
                    reweighted=(CorrelationEdge(2, 3, 0.6), CorrelationEdge(3, 2, 0.8)),
                ),
                "twice",
            ),
        ],
        ids=[
            "reweight-absent",
            "remove-absent",
            "add-unknown-road",
            "add-existing",
            "remove-and-add",
            "reweight-twice",
        ],
    )
    def test_rejected_delta_leaves_graph_untouched(self, delta, message):
        """A delta is validated whole before anything mutates."""
        graph = CorrelationGraph(
            [1, 2, 3, 4],
            [
                CorrelationEdge(1, 2, 0.9),
                CorrelationEdge(2, 3, 0.7),
                CorrelationEdge(1, 3, 0.8),
            ],
        )
        if message == "remove absent":
            graph.apply_delta(GraphDelta(added=(), removed=((1, 2),), reweighted=()))
        edges = list(graph.edges())
        adjacency = {road: graph.neighbours(road) for road in graph.road_ids}
        with pytest.raises(DataError, match=message):
            graph.apply_delta(delta)
        assert list(graph.edges()) == edges
        assert {road: graph.neighbours(road) for road in graph.road_ids} == adjacency


# ----------------------------------------------------------------------
# IncrementalCoTrendStats
# ----------------------------------------------------------------------
class TestCoTrendStats:
    def test_pair_set_matches_batch_candidates(self):
        net = _line_network(4)
        stats = IncrementalCoTrendStats(net, [0, 1, 2, 3], max_hops=2)
        # Line adjacency at 2 hops: (0,1),(0,2),(1,2),(1,3),(2,3).
        assert stats.num_pairs == 5

    def test_reset_then_mine_equals_batch(self):
        rng = np.random.default_rng(3)
        trends = rng.choice([-1, 1], size=(48, 5)).astype(np.int8)
        net = _line_network(5)
        stats = IncrementalCoTrendStats(net, [0, 1, 2, 3, 4], max_hops=2)
        stats.reset(trends)
        mined = _mined_graph([0, 1, 2, 3, 4], stats, min_agreement=0.5)
        batch = mine_correlation_graph(
            net, _StubStore([0, 1, 2, 3, 4], trends), max_hops=2, min_agreement=0.5
        )
        _assert_graphs_equal(mined, batch)

    def test_advance_equals_rebuild_with_zero_trends(self):
        # Sliding updates over matrices *with zeros* must track a fresh
        # rebuild exactly — the masked formula and support guard run on
        # identical counts.
        rng = np.random.default_rng(9)
        net = _line_network(6)
        roads = list(range(6))
        stats = IncrementalCoTrendStats(net, roads, max_hops=2)
        window = rng.choice([-1, 0, 1], size=(24, 6), p=[0.4, 0.2, 0.4]).astype(
            np.int8
        )
        stats.reset(window)
        for step in range(6):
            evict = int(rng.integers(0, 9))
            retained = window[evict:]
            fresh_rows = rng.choice(
                [-1, 0, 1], size=(8, 6), p=[0.4, 0.2, 0.4]
            ).astype(np.int8)
            window = np.vstack([retained, fresh_rows])
            # Bucket-mean drift: occasionally flip a retained entry.
            if step % 2:
                window[0, step % 6] *= -1
            stats.advance(window, evict)
            mined = _mined_graph(
                roads, stats, min_agreement=0.5, min_valid_fraction=0.1
            )
            batch = mine_correlation_graph(
                net,
                _StubStore(roads, window),
                max_hops=2,
                min_agreement=0.5,
                min_valid_fraction=0.1,
            )
            _assert_graphs_equal(mined, batch)

    def test_mine_before_reset_rejected(self):
        stats = IncrementalCoTrendStats(_line_network(2), [0, 1])
        with pytest.raises(DataError, match="no window"):
            stats.mine_arrays()

    def test_bad_shapes_rejected(self):
        stats = IncrementalCoTrendStats(_line_network(2), [0, 1])
        with pytest.raises(DataError, match="does not cover"):
            stats.reset(np.ones((4, 3), dtype=np.int8))
        stats.reset(np.ones((4, 2), dtype=np.int8))
        with pytest.raises(DataError, match="evicted_rows"):
            stats.advance(np.ones((4, 2), dtype=np.int8), evicted_rows=5)
        with pytest.raises(DataError, match="shrank"):
            stats.advance(np.ones((2, 2), dtype=np.int8), evicted_rows=0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_counts_equal_fresh_rebuild(self, data):
        """Property: any advance sequence == reset on the final window."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        num_roads = data.draw(st.integers(2, 6))
        net = _line_network(num_roads)
        roads = list(range(num_roads))
        incremental = IncrementalCoTrendStats(net, roads, max_hops=2)

        def rows(n):
            return rng.choice(
                [-1, 0, 1], size=(n, num_roads), p=[0.45, 0.1, 0.45]
            ).astype(np.int8)

        window = rows(data.draw(st.integers(1, 12)))
        incremental.reset(window)
        for _ in range(data.draw(st.integers(1, 5))):
            evict = data.draw(st.integers(0, window.shape[0]))
            grow = data.draw(st.integers(0, 8))
            retained = window[evict:].copy()
            if retained.size and data.draw(st.booleans()):
                # Simulated bucket-mean drift flips a retained entry.
                i = data.draw(st.integers(0, retained.shape[0] - 1))
                j = data.draw(st.integers(0, num_roads - 1))
                retained[i, j] = -retained[i, j] if retained[i, j] else 1
            window = np.vstack([retained, rows(grow)])
            if window.shape[0] == 0:
                window = rows(1)
            incremental.advance(window, evict)
            fresh = IncrementalCoTrendStats(net, roads, max_hops=2)
            fresh.reset(window)
            np.testing.assert_array_equal(incremental._same, fresh._same)
            np.testing.assert_array_equal(incremental._valid, fresh._valid)


# ----------------------------------------------------------------------
# RollingHistory end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sim_days(small_network):
    grid = TimeGrid(15)
    sim = TrafficSimulator(small_network, grid)
    field, _ = sim.simulate(0, 12, seed=41)
    days = [
        SpeedField(field.matrix[day * 96 : (day + 1) * 96], field.road_ids, day * 96)
        for day in range(12)
    ]
    return grid, days


class TestRollingIncremental:
    def test_every_window_state_equals_batch(self, small_network, sim_days):
        grid, days = sim_days
        rolling = RollingHistory(
            small_network, grid, window_days=4, remine_every_days=1
        )
        for day in days[:9]:
            rolling.ingest_day(day)
            rolling.verify_incremental()
            batch = mine_correlation_graph(
                small_network, rolling.store, max_hops=2, min_agreement=0.6
            )
            _assert_graphs_equal(rolling.graph, batch)

    def test_graph_object_is_stable_across_remines(self, small_network, sim_days):
        grid, days = sim_days
        rolling = RollingHistory(
            small_network, grid, window_days=3, remine_every_days=1
        )
        rolling.ingest_day(days[0])
        graph = rolling.graph
        for day in days[1:7]:
            rolling.ingest_day(day)
            assert rolling.graph is graph

    def test_delta_listener_sees_every_remine(self, small_network, sim_days):
        grid, days = sim_days
        rolling = RollingHistory(
            small_network, grid, window_days=3, remine_every_days=2
        )
        seen = []
        rolling.add_delta_listener(lambda graph, delta: seen.append(delta))
        for day in days[:7]:
            rolling.ingest_day(day)
        # 7 ingests: mine at day 1 (bootstrap, no delta), then every 2.
        assert rolling.mining_epoch == 4
        assert len(seen) == 3
        for delta in seen:
            assert isinstance(delta, GraphDelta)

    def test_last_delta_matches_batch_difference(self, small_network, sim_days):
        grid, days = sim_days
        rolling = RollingHistory(
            small_network, grid, window_days=3, remine_every_days=1
        )
        rolling.ingest_day(days[0])
        before = _graph_weights(rolling.graph)
        rolling.ingest_day(days[1])
        after = _graph_weights(rolling.graph)
        delta = rolling.last_delta
        assert delta is not None
        for edge in delta.added:
            key = (edge.road_u, edge.road_v)
            assert key not in before and after[key] == edge.agreement
        for key in delta.removed:
            assert key in before and key not in after
        for edge in delta.reweighted:
            key = (edge.road_u, edge.road_v)
            assert before[key] != after[key] == edge.agreement

    def test_delta_tolerance_keeps_old_weights(self, small_network, sim_days):
        grid, days = sim_days
        tolerant = RollingHistory(
            small_network,
            grid,
            window_days=3,
            remine_every_days=1,
            delta_tolerance=1.0,
        )
        for day in days[:5]:
            tolerant.ingest_day(day)
            # Weight drift never exceeds tolerance 1.0, so surviving
            # edges keep their first-mined weights; presence changes
            # still apply. The tolerant graph must stay within the
            # guarantee verify_incremental states.
            tolerant.verify_incremental()
            delta = tolerant.last_delta
            if delta is not None:
                assert delta.reweighted == ()

    def test_batch_and_incremental_modes_agree(self, small_network, sim_days):
        grid, days = sim_days
        inc = RollingHistory(
            small_network, grid, window_days=4, remine_every_days=2
        )
        batch = RollingHistory(
            small_network,
            grid,
            window_days=4,
            remine_every_days=2,
            incremental=False,
        )
        for day in days[:8]:
            inc.ingest_day(day)
            batch.ingest_day(day)
            _assert_graphs_equal(inc.graph, batch.graph)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_arbitrary_ingest_sequences_stay_differential(
        self, data, tiny_network
    ):
        """Property: ingest/evict/force_remine interleavings never drift.

        Covers window shrink-to-refill: windows as small as 1 day evict
        on every ingest, then refill from scratch relative to their
        bucket statistics.
        """
        grid = TimeGrid(15)
        sim = TrafficSimulator(tiny_network, grid)
        field, _ = sim.simulate(0, 8, seed=data.draw(st.integers(0, 10_000)))
        days = [
            SpeedField(
                field.matrix[day * 96 : (day + 1) * 96], field.road_ids, day * 96
            )
            for day in range(8)
        ]
        rolling = RollingHistory(
            tiny_network,
            grid,
            window_days=data.draw(st.integers(1, 4)),
            remine_every_days=data.draw(st.integers(1, 3)),
        )
        num_days = data.draw(st.integers(2, 8))
        for day in days[:num_days]:
            rolling.ingest_day(day)
            if data.draw(st.booleans()):
                rolling.force_remine()
        rolling.force_remine()
        rolling.verify_incremental()
        batch = mine_correlation_graph(
            tiny_network, rolling.store, max_hops=2, min_agreement=0.6
        )
        _assert_graphs_equal(rolling.graph, batch)
