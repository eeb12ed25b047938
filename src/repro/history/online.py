"""Rolling-window historical store for online deployments.

A deployed system does not train once: every midnight it ingests the
finished day's speeds, retires the oldest day beyond its window, and
refreshes the statistics the estimators read. :class:`RollingHistory`
manages that loop — day validation, window eviction, store rebuilds,
and (optionally rate-limited) correlation re-mining.

The columnar store itself is rebuilt per ingest (well under a second at
city scale for a ≤30-day window, see F8). Correlation mining is the
part that used to be a batch event: a fresh graph object every re-mine,
which invalidated the identity-keyed fidelity cache — and every
compiled serving plan — wholesale. Mining instead keeps the one
miner's co-trend counts
(:class:`~repro.history.correlation.IncrementalCoTrendStats`) and
slides them with the window, each re-mine produces a
:class:`~repro.history.incremental.GraphDelta`, and the **same graph
object** is patched in place. Delta listeners (wire
:meth:`~repro.core.pipeline.SpeedEstimationSystem.apply_graph_delta`
via :meth:`add_delta_listener`) then evict only the cached rows and
plans the changed edges can actually affect. The live graph is always
exactly equal to a cold
:func:`~repro.history.correlation.mine_correlation_graph` of the
current window (up to ``delta_tolerance`` on surviving edge weights);
:meth:`verify_incremental` asserts it.

A re-mine on a window whose co-trend counts did not move since the
previous re-mine (a day that replays the evicted one) scores no pair
and yields an empty delta without diffing the graph. That rests on one
precondition: the miner is the graph's only writer between re-mines.

Re-mine activity is observable: each re-mine runs in a
``history.remine`` span and reports per-kind ``mining.delta_edges``
counts (see ``docs/STREAMING.md``). The span's work counters are
``pairs`` (candidate pairs), ``scored`` (pairs scored: ``pairs``, or 0
when no count moved) and ``edges_built`` (edges written: every mined
edge at the bootstrap, the added and re-weighted ones later, so 0 for
a re-mine that changes nothing). The graph and the delta are arrays,
so no re-mine builds a
:class:`~repro.history.correlation.CorrelationEdge`;
``tests/test_delta_oracle.py::test_remine_builds_edges_only_for_changes``
and ``tests/test_graph_arrays.py`` pin both.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.history.correlation import (
    CorrelationGraph,
    IncrementalCoTrendStats,
    mine_correlation_graph,
)
from repro.history.incremental import EMPTY_DELTA, GraphDelta, diff_edges
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork


class RollingHistory:
    """A bounded window of daily speed fields with derived artefacts."""

    def __init__(
        self,
        network: RoadNetwork,
        grid: TimeGrid,
        window_days: int = 21,
        remine_every_days: int = 7,
        max_hops: int = 2,
        min_agreement: float = 0.6,
        min_valid_fraction: float = 0.1,
        delta_tolerance: float = 0.0,
    ) -> None:
        if window_days < 1:
            raise DataError("window must hold at least one day")
        if remine_every_days < 1:
            raise DataError("remine_every_days must be >= 1")
        if delta_tolerance < 0.0:
            raise DataError(
                f"delta_tolerance must be >= 0, got {delta_tolerance}"
            )
        self._network = network
        self._grid = grid
        self._window_days = window_days
        self._remine_every = remine_every_days
        self._max_hops = max_hops
        self._min_agreement = min_agreement
        self._min_valid_fraction = min_valid_fraction
        self._delta_tolerance = delta_tolerance
        self._days: deque[SpeedField] = deque()
        self._store: HistoricalSpeedStore | None = None
        self._graph: CorrelationGraph | None = None
        self._stats: IncrementalCoTrendStats | None = None
        self._days_since_mining = 0
        self._mining_epoch = 0
        self._last_delta: GraphDelta | None = None
        self._delta_listeners: list = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_day(self, field: SpeedField) -> None:
        """Add one finished day; evicts beyond the window and refreshes.

        The field must cover exactly one whole day and follow the last
        ingested day contiguously (gaps would silently skew bucket
        statistics, so they are rejected). The first day is checked
        against the network's road ids — every later day must then
        cover the same roads.
        """
        per_day = self._grid.intervals_per_day
        if len(field.intervals) != per_day:
            raise DataError(
                f"expected exactly one day ({per_day} intervals), got "
                f"{len(field.intervals)}"
            )
        if field.intervals.start % per_day != 0:
            raise DataError("day field must start at a midnight interval")
        if self._days:
            expected = self._days[-1].intervals.stop
            if field.intervals.start != expected:
                raise DataError(
                    f"non-contiguous ingest: expected day starting at "
                    f"{expected}, got {field.intervals.start}"
                )
            if field.road_ids != self._days[-1].road_ids:
                raise DataError("ingested day covers different roads")
        else:
            known = set(self._network.road_ids())
            unknown = sorted(set(field.road_ids) - known)
            if unknown:
                raise DataError(
                    f"ingested day covers {len(unknown)} roads not in the "
                    f"network (first {min(len(unknown), 5)} shown): "
                    f"{unknown[:5]}"
                )

        self._days.append(field)
        evicted_days = 0
        while len(self._days) > self._window_days:
            self._days.popleft()
            evicted_days += 1
        self._store = HistoricalSpeedStore.from_fields(
            self._grid, list(self._days)
        )
        if self._stats is None:
            self._stats = IncrementalCoTrendStats(
                self._network, self._store.road_ids, self._max_hops
            )
            self._stats.reset(self._store.trend_matrix())
        else:
            flipped = self._stats.advance(
                self._store.trend_matrix(), evicted_days * per_day
            )
            get_recorder().count(
                "mining.rows_rescored", flipped + evicted_days * per_day
            )
        self._days_since_mining += 1
        if self._graph is None or self._days_since_mining >= self._remine_every:
            self._remine()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def num_days(self) -> int:
        return len(self._days)

    @property
    def is_full(self) -> bool:
        return len(self._days) == self._window_days

    @property
    def window_days(self) -> int:
        return self._window_days

    @property
    def newest_day(self) -> int | None:
        if not self._days:
            return None
        return self._days[-1].intervals.start // self._grid.intervals_per_day

    @property
    def oldest_day(self) -> int | None:
        if not self._days:
            return None
        return self._days[0].intervals.start // self._grid.intervals_per_day

    @property
    def store(self) -> HistoricalSpeedStore:
        """The current statistics; raises before any ingest."""
        if self._store is None:
            raise DataError("no history ingested yet")
        return self._store

    @property
    def graph(self) -> CorrelationGraph:
        """The current correlation graph; raises before any ingest.

        This is **one long-lived object**, patched in place at every
        re-mine — watch :attr:`mining_epoch`
        (or register a delta listener) to observe refreshes.
        """
        if self._graph is None:
            raise DataError("no history ingested yet")
        return self._graph

    @property
    def mining_epoch(self) -> int:
        """How many re-mines have run (0 before the first ingest)."""
        return self._mining_epoch

    @property
    def last_delta(self) -> GraphDelta | None:
        """The delta of the latest incremental re-mine.

        ``None`` before the second re-mine (the bootstrap has no delta).
        """
        return self._last_delta

    def add_delta_listener(self, listener) -> None:
        """Call ``listener(graph, delta)`` after each incremental re-mine.

        Fires after the delta has been applied to the (shared) graph
        object, including when the delta is empty — listeners may rely
        on being told about every re-mine round. The initial graph build
        does not fire (there is no delta).
        """
        self._delta_listeners.append(listener)

    def force_remine(self) -> CorrelationGraph:
        """Re-mine the correlation graph immediately (e.g. after a
        network change) regardless of the rate limit."""
        self.store  # raises before any ingest
        self._remine()
        return self._graph

    def verify_incremental(self) -> None:
        """Assert the live graph equals a cold mine of the current window.

        The differential guarantee behind incremental mining: edge sets
        must match exactly, and surviving edge weights must agree
        within ``delta_tolerance`` (exactly, with the default 0.0).
        The cold mine
        (:func:`~repro.history.correlation.mine_correlation_graph`)
        counts the window afresh with the same miner, so this catches
        drift in what only the live path runs: ``advance``'s evict and
        flip re-scoring, the ``mine_if_moved`` skip, :func:`diff_edges`
        and :meth:`~repro.history.correlation.CorrelationGraph.apply_delta`.
        The pair enumeration and agreement formulas they share are
        pinned by the per-road oracle miner in the tests. Raises
        :class:`~repro.core.errors.DataError` on any mismatch — cheap
        insurance for tests, CI soaks and canary deployments.
        """
        expected = mine_correlation_graph(
            self._network,
            self.store,
            max_hops=self._max_hops,
            min_agreement=self._min_agreement,
            min_valid_fraction=self._min_valid_fraction,
        )
        actual = self.graph
        if expected.road_ids != actual.road_ids:
            raise DataError("incremental graph drifted: road sets differ")
        want, want_p = expected.edge_keys()
        have, have_p = actual.edge_keys()
        missing = np.setdiff1d(want, have)
        extra = np.setdiff1d(have, want)
        if missing.size or extra.size:
            raise DataError(
                f"incremental graph drifted: {missing.size} edges missing "
                f"(first {_pairs(expected, missing[:3])}), {extra.size} spurious "
                f"(first {_pairs(expected, extra[:3])})"
            )
        moved = want[np.abs(want_p - have_p) > self._delta_tolerance]
        if moved.size:
            raise DataError(
                f"incremental graph drifted: {moved.size} edge weights "
                f"beyond tolerance {self._delta_tolerance} "
                f"(first {_pairs(expected, moved[:3])})"
            )

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def _remine(self) -> None:
        """Re-mine the window and patch the live graph with the delta,
        which is empty without a diff when
        :meth:`~repro.history.correlation.IncrementalCoTrendStats.mine_if_moved`
        finds no count moved (sound while this is the graph's only
        writer, see the module docstring)."""
        recorder = get_recorder()
        mode = "bootstrap" if self._graph is None else "incremental"
        with recorder.span(
            "history.remine", mode=mode, days=len(self._days)
        ) as span:
            mined = self._stats.mine_if_moved(
                self._min_agreement, self._min_valid_fraction
            )
            span.set(
                pairs=self._stats.num_pairs,
                scored=0 if mined is None else self._stats.num_pairs,
            )
            if self._graph is None:
                self._graph = CorrelationGraph.from_arrays(
                    self._store.road_ids, *mined
                )
                self._last_delta = None
                span.set(edges_built=self._graph.num_edges)
            else:
                delta = EMPTY_DELTA if mined is None else diff_edges(
                    self._graph, *mined, tolerance=self._delta_tolerance
                )
                self._graph.apply_delta(delta)
                self._last_delta = delta
                recorder.count("mining.delta_edges", delta.num_added, kind="added")
                recorder.count(
                    "mining.delta_edges", delta.num_removed, kind="removed"
                )
                recorder.count(
                    "mining.delta_edges", delta.num_reweighted, kind="reweighted"
                )
                span.set(
                    delta_edges=delta.num_changes,
                    edges_built=delta.num_added + delta.num_reweighted,
                )
                for listener in list(self._delta_listeners):
                    listener(self._graph, delta)
            self._mining_epoch += 1
            self._days_since_mining = 0
            span.set(edges=self._graph.num_edges)


def _pairs(graph: CorrelationGraph, keys: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(*(ends.tolist() for ends in graph.key_ends(keys))))
