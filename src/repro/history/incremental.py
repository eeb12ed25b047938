"""Incremental sliding-window correlation mining.

:func:`~repro.history.correlation.mine_correlation_graph` is a batch
operation: every re-mine re-reads the whole trend matrix for every
candidate pair. A deployed system slides its history window one day at
a time, and almost all of that work is redundant — the counts behind a
pair's agreement change only by the day that left, the day that
arrived, and the retained intervals whose trend *flipped* because the
window's bucket means drifted. This module maintains those counts
directly:

* :class:`IncrementalCoTrendStats` — per candidate pair (the exact pair
  set batch mining enumerates), the running number of **valid**
  intervals (both trends nonzero) and **same-sign** intervals over the
  current window. :meth:`IncrementalCoTrendStats.advance` updates them
  by subtracting evicted rows, re-scoring only trend-flipped retained
  rows, and adding the new day's rows.
* :meth:`IncrementalCoTrendStats.mine_arrays` — turns the counts into
  the kept edges' ``(road_u, road_v, agreement)`` arrays using **the
  same float expressions, in the same order, on the same integer
  inputs** as batch mining, so the result is bit-for-bit the edge set
  ``mine_correlation_graph`` would produce on the current window. That
  is the differential guarantee
  :meth:`repro.history.online.RollingHistory.verify_incremental`
  asserts. :meth:`IncrementalCoTrendStats.mine_if_moved` skips the
  mine when no count moved since the previous one.
* :class:`GraphDelta` / :func:`diff_edges` — the edge-level difference
  between a live :class:`~repro.history.correlation.CorrelationGraph`
  and freshly mined edge arrays: edges added, removed, and re-weighted
  beyond a tolerance, found by sorted-key array matching and held as
  arrays, so a re-mine builds no edge object. Applying it with
  :meth:`~repro.history.correlation.CorrelationGraph.apply_delta`
  mutates the graph in place, which is what lets identity-keyed caches
  (the fidelity service and everything subscribed to it) survive a
  re-mine and evict selectively — see
  :meth:`repro.history.fidelity.FidelityCacheService.apply_graph_delta`.

Why exactness holds: batch mining's fast path computes agreements as
``(1 + (Σ t_u·t_v) / n) / 2`` where the matmul over ±1 trends is an
exactly-representable integer, and its masked path computes
``same / max(valid, 1)`` from integer counts. Both are reproduced here
from the maintained integer counts (``Σ t_u·t_v = 2·same − n`` when no
zeros are present), using identical float64 operations — so equal
counts give bitwise-equal agreements, and the threshold comparisons
keep identical edge sets.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DataError
from repro.history.correlation import CorrelationEdge, CorrelationGraph, edge_objects
from repro.roadnet.network import RoadNetwork

__all__ = ["GraphDelta", "IncrementalCoTrendStats", "diff_edges"]

#: Pair-axis chunk budget for the count updates: rows × pairs int8
#: blocks stay a few MB regardless of window or city size.
_CELL_BUDGET = 4_000_000


class GraphDelta:
    """Edge-level difference between two minings of one road set.

    Held as arrays: ``added_arrays`` and ``reweighted_arrays`` are
    ``(road_u, road_v, agreement)`` and ``removed_arrays`` is
    ``(road_u, road_v)``, all read-only. :func:`diff_edges` builds them
    in edge-key order with ``road_u < road_v`` and no edge object; the
    constructor takes edge tuples (``added`` and ``reweighted`` of
    :class:`~repro.history.correlation.CorrelationEdge`, ``removed`` of
    key pairs) and keeps their order. The ``added``, ``removed`` and
    ``reweighted`` tuples are built on first read only. Two deltas are
    ``==`` when their arrays are, order included. A delta is what flows
    from :meth:`~repro.history.online.RollingHistory.ingest_day` through
    the cache stack: only the cached fidelity rows its changed edges can
    move are dropped, and only the compiled plan rows they re-rank.
    """

    __slots__ = ("added_arrays", "removed_arrays", "reweighted_arrays", "_tuples")

    def __init__(
        self,
        added: tuple[CorrelationEdge, ...],
        removed: tuple[tuple[int, int], ...],
        reweighted: tuple[CorrelationEdge, ...],
    ) -> None:
        added, removed, reweighted = tuple(added), tuple(removed), tuple(reweighted)
        self.added_arrays = _edge_columns(added)
        self.removed_arrays = _frozen(
            np.array(removed, dtype=np.int64).reshape(-1, 2).T
        )
        self.reweighted_arrays = _edge_columns(reweighted)
        self._tuples = (added, removed, reweighted)

    @classmethod
    def from_arrays(cls, added, removed, reweighted) -> "GraphDelta":
        """A delta over ``(road_u, road_v, agreement)`` arrays for
        ``added`` and ``reweighted`` and ``(road_u, road_v)`` for
        ``removed``; no edge object is built."""
        delta = cls.__new__(cls)
        delta.added_arrays = _frozen(added)
        delta.removed_arrays = _frozen(removed)
        delta.reweighted_arrays = _frozen(reweighted)
        delta._tuples = None
        return delta

    def _edge_tuples(self) -> tuple[tuple, tuple, tuple]:
        if self._tuples is None:
            rem_u, rem_v = self.removed_arrays
            self._tuples = (
                tuple(edge_objects(*self.added_arrays)),
                tuple(zip(rem_u.tolist(), rem_v.tolist())),
                tuple(edge_objects(*self.reweighted_arrays)),
            )
        return self._tuples

    @property
    def added(self) -> tuple[CorrelationEdge, ...]:
        return self._edge_tuples()[0]

    @property
    def removed(self) -> tuple[tuple[int, int], ...]:
        return self._edge_tuples()[1]

    @property
    def reweighted(self) -> tuple[CorrelationEdge, ...]:
        return self._edge_tuples()[2]

    @property
    def num_added(self) -> int:
        return self.added_arrays[0].size

    @property
    def num_removed(self) -> int:
        return self.removed_arrays[0].size

    @property
    def num_reweighted(self) -> int:
        return self.reweighted_arrays[0].size

    @property
    def num_changes(self) -> int:
        return self.num_added + self.num_removed + self.num_reweighted

    @property
    def is_empty(self) -> bool:
        return self.num_changes == 0

    def changed_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """``(road_u, road_v)`` of every named edge: added, reweighted,
        then removed."""
        named = (self.added_arrays, self.reweighted_arrays, self.removed_arrays)
        return (
            np.concatenate([arrays[0] for arrays in named]),
            np.concatenate([arrays[1] for arrays in named]),
        )

    def touched_roads(self) -> tuple[int, ...]:
        """Sorted road ids that are an endpoint of any changed edge."""
        return tuple(np.unique(np.concatenate(self.changed_ends())).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            for kind in ("added_arrays", "removed_arrays", "reweighted_arrays")
            for mine, theirs in zip(getattr(self, kind), getattr(other, kind))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"GraphDelta(added={self.num_added}, removed={self.num_removed}, "
            f"reweighted={self.num_reweighted})"
        )


def _frozen(arrays) -> tuple[np.ndarray, ...]:
    """Read-only copies of ``arrays``: int64 road ids, then a float64
    agreement array if there is a third; all of one length."""
    dtypes = (np.int64, np.int64, np.float64)
    out = tuple(
        np.array(array, dtype=dtype).reshape(-1) for array, dtype in zip(arrays, dtypes)
    )
    if len({array.size for array in out}) > 1:
        raise DataError("delta edge arrays differ in length")
    for array in out:
        array.setflags(write=False)
    return out


def _edge_columns(edges: tuple[CorrelationEdge, ...]) -> tuple[np.ndarray, ...]:
    return _frozen(
        (
            [e.road_u for e in edges],
            [e.road_v for e in edges],
            [e.agreement for e in edges],
        )
    )


#: The delta of a re-mine that changed nothing.
EMPTY_DELTA = GraphDelta(added=(), removed=(), reweighted=())


def diff_edges(
    graph: CorrelationGraph,
    road_u: np.ndarray,
    road_v: np.ndarray,
    agreement: np.ndarray,
    tolerance: float = 0.0,
) -> GraphDelta:
    """The :class:`GraphDelta` turning ``graph`` into the mined edges
    ``(road_u, road_v, agreement)`` (one array entry per edge).

    ``tolerance`` bounds weight churn: a surviving edge whose new
    agreement differs from the current one by at most ``tolerance``
    keeps its **current** weight (it does not appear in the delta), so
    downstream caches are not evicted for sub-tolerance drift. The
    default 0.0 reports every weight change, which is what makes the
    applied graph exactly equal to a batch re-mine.

    The mined edges are keyed like the graph's own
    (:meth:`~repro.history.correlation.CorrelationGraph.keys_of`, which
    raises on an unknown road) and matched against
    :meth:`~repro.history.correlation.CorrelationGraph.edge_keys` with
    ``searchsorted`` (:meth:`~repro.history.correlation.CorrelationGraph.
    locate`). The delta's arrays come out in key order and no
    edge object is built; ``tests/test_delta_oracle.py`` pins the delta
    (order included) to the list-form oracle in ``tests/oracles/delta.py``.
    """
    if tolerance < 0.0:
        raise DataError(f"delta tolerance must be >= 0, got {tolerance}")
    new_keys = graph.keys_of(road_u, road_v)
    order = np.argsort(new_keys, kind="stable")
    new_keys = new_keys[order]
    new_p = np.asarray(agreement, dtype=np.float64)[order]
    old_keys, old_p = graph.edge_keys()

    at, kept = graph.locate(new_keys)
    moved = np.zeros_like(kept)
    moved[kept] = np.abs(new_p[kept] - old_p[at[kept]]) > tolerance
    survives = np.zeros(old_keys.size, dtype=bool)
    survives[at[kept]] = True
    return GraphDelta.from_arrays(
        added=(*graph.key_ends(new_keys[~kept]), new_p[~kept]),
        removed=graph.key_ends(old_keys[~survives]),
        reweighted=(*graph.key_ends(new_keys[moved]), new_p[moved]),
    )


class IncrementalCoTrendStats:
    """Sliding-window per-pair agreement and valid-interval counts.

    Pairs are enumerated exactly as batch mining does — every
    ``(u, v)`` with ``v`` within ``max_hops`` of ``u`` in road
    adjacency and ``v > u`` — and the window's trend matrix is retained
    so an :meth:`advance` can subtract exactly the rows that left or
    flipped. The road set is fixed at construction (a rolling window
    never changes its roads mid-flight; build a new instance for a new
    network).
    """

    def __init__(
        self,
        network: RoadNetwork,
        road_ids: list[int],
        max_hops: int = 2,
    ) -> None:
        if max_hops < 1:
            raise DataError(f"max_hops must be >= 1, got {max_hops}")
        self._road_ids = list(road_ids)
        self._max_hops = max_hops
        column = {road: i for i, road in enumerate(self._road_ids)}
        pair_u: list[int] = []
        pair_v: list[int] = []
        for road_id in self._road_ids:
            for other, hops in network.roads_within_hops(road_id, max_hops).items():
                if other > road_id and other in column and hops >= 1:
                    pair_u.append(column[road_id])
                    pair_v.append(column[other])
        self._pair_u = np.asarray(pair_u, dtype=np.int64)
        self._pair_v = np.asarray(pair_v, dtype=np.int64)
        self._same = np.zeros(len(pair_u), dtype=np.int64)
        self._valid = np.zeros(len(pair_u), dtype=np.int64)
        self._trends: np.ndarray | None = None
        # What the last mine_if_moved call mined from: (scope, same, valid).
        self._mined: tuple | None = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        return self._pair_u.size

    @property
    def num_intervals(self) -> int:
        return 0 if self._trends is None else int(self._trends.shape[0])

    @property
    def road_ids(self) -> list[int]:
        return list(self._road_ids)

    # ------------------------------------------------------------------
    # Window updates
    # ------------------------------------------------------------------
    def reset(self, trends: np.ndarray) -> None:
        """Rebuild the counts from scratch for a full window matrix."""
        trends = self._check(trends)
        self._same[:] = 0
        self._valid[:] = 0
        self._accumulate(trends, +1)
        self._trends = trends.copy()

    def advance(self, trends: np.ndarray, evicted_rows: int) -> int:
        """Slide the window to the new full trend matrix ``trends``.

        ``evicted_rows`` is how many leading rows of the *previous*
        matrix fell out of the window; the remaining old rows align
        with the leading rows of ``trends`` (same intervals), and any
        trailing rows of ``trends`` are newly ingested. Besides the
        strict add/subtract, retained rows whose trend entries flipped
        (bucket means drift as the window slides) are re-scored — that
        is what keeps the counts equal to a from-scratch rebuild.
        Returns the number of flipped retained rows (observability).
        """
        if self._trends is None:
            self.reset(trends)
            return 0
        trends = self._check(trends)
        old = self._trends
        if not 0 <= evicted_rows <= old.shape[0]:
            raise DataError(
                f"evicted_rows {evicted_rows} outside [0, {old.shape[0]}]"
            )
        retained = old[evicted_rows:]
        if retained.shape[0] > trends.shape[0]:
            raise DataError(
                f"window shrank: {retained.shape[0]} retained rows but only "
                f"{trends.shape[0]} in the new matrix"
            )
        if evicted_rows:
            self._accumulate(old[:evicted_rows], -1)
        aligned = trends[: retained.shape[0]]
        flipped = np.flatnonzero(np.any(retained != aligned, axis=1))
        if flipped.size:
            self._accumulate(retained[flipped], -1)
            self._accumulate(aligned[flipped], +1)
        if trends.shape[0] > retained.shape[0]:
            self._accumulate(trends[retained.shape[0] :], +1)
        self._trends = trends.copy()
        return int(flipped.size)

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def mine_arrays(
        self, min_agreement: float = 0.6, min_valid_fraction: float = 0.1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept edges for the current window as ``(road_u, road_v,
        agreement)`` arrays — bitwise equal to the edges
        :func:`~repro.history.correlation.mine_correlation_graph` keeps.

        The two agreement formulas below are the batch miner's own,
        selected by the same window-global ``has_zeros`` flag and fed
        the same integers, so the float results (and therefore the
        threshold decisions) are identical. ``road_u < road_v`` on every
        entry, in pair-enumeration order; no edge object is built.
        """
        if self._trends is None:
            raise DataError("no window ingested yet")
        if not 0.5 <= min_agreement <= 1.0:
            raise DataError(
                f"min_agreement should be in [0.5, 1], got {min_agreement}"
            )
        if not 0.0 <= min_valid_fraction <= 1.0:
            raise DataError(
                f"min_valid_fraction should be in [0, 1], got {min_valid_fraction}"
            )
        num_intervals = self._trends.shape[0]
        has_zeros = bool(np.any(self._trends == 0))
        if not has_zeros:
            products = (2 * self._same - num_intervals).astype(np.float64)
            agreements = (1.0 + products / num_intervals) / 2.0
            keep = agreements >= min_agreement
        else:
            agreements = self._same / np.maximum(self._valid, 1)
            keep = (agreements >= min_agreement) & (
                self._valid >= min_valid_fraction * num_intervals
            )
        roads = np.asarray(self._road_ids, dtype=np.int64)
        return (
            roads[self._pair_u[keep]],
            roads[self._pair_v[keep]],
            agreements[keep],
        )

    def mine_if_moved(
        self, min_agreement: float = 0.6, min_valid_fraction: float = 0.1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """:meth:`mine_arrays`, or ``None`` when it would return what the
        previous call of this method mined: no pair's ``(same, valid)``
        counts moved since, nor the interval count, the window-global
        ``has_zeros`` flag or a threshold. A caller that patched a graph
        with that mine's :func:`diff_edges` (at a fixed tolerance) and
        let nobody else write it may then skip the diff: it is empty.
        The check compares the counts with a copy kept from that mine.
        """
        if self._trends is None:
            raise DataError("no window ingested yet")
        scope = (
            self._trends.shape[0],
            bool(np.any(self._trends == 0)),
            min_agreement,
            min_valid_fraction,
        )
        if (
            self._mined is not None
            and self._mined[0] == scope
            and np.array_equal(self._mined[1], self._same)
            and np.array_equal(self._mined[2], self._valid)
        ):
            return None
        mined = self.mine_arrays(min_agreement, min_valid_fraction)
        self._mined = (scope, self._same.copy(), self._valid.copy())
        return mined

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check(self, trends: np.ndarray) -> np.ndarray:
        trends = np.asarray(trends)
        if trends.ndim != 2 or trends.shape[1] != len(self._road_ids):
            raise DataError(
                f"trend matrix shape {trends.shape} does not cover the "
                f"{len(self._road_ids)} tracked roads"
            )
        return trends

    def _accumulate(self, rows: np.ndarray, sign: int) -> None:
        """Add (``sign=+1``) or subtract (``-1``) a block of trend rows.

        The block is transposed once so each pair gathers two contiguous
        per-road rows. With products ``t_u·t_v`` in ``{-1, 0, 1}``, the
        valid count is the nonzero count and ``same = (valid + Σ t_u·t_v) / 2``.
        """
        if rows.shape[0] == 0 or self._pair_u.size == 0:
            return
        by_road = np.ascontiguousarray(rows.T)
        chunk = max(1, _CELL_BUDGET // rows.shape[0])
        for start in range(0, self._pair_u.size, chunk):
            end = min(start + chunk, self._pair_u.size)
            products = (
                by_road[self._pair_u[start:end]] * by_road[self._pair_v[start:end]]
            )
            valid = np.count_nonzero(products, axis=1)
            same = (valid + products.sum(axis=1, dtype=np.int64)) // 2
            self._valid[start:end] += sign * valid
            self._same[start:end] += sign * same
