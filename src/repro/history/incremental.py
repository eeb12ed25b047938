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
  asserts.
* :class:`GraphDelta` / :func:`diff_edges` — the edge-level difference
  between a live :class:`~repro.history.correlation.CorrelationGraph`
  and freshly mined edge arrays: edges added, removed, and re-weighted
  beyond a tolerance, found by sorted-key array matching so edge
  objects are built only for the edges that changed. Applying it with
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

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import DataError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.roadnet.network import RoadNetwork

__all__ = ["GraphDelta", "IncrementalCoTrendStats", "diff_edges"]

#: Pair-axis chunk budget for the count updates: rows × pairs int8
#: blocks stay a few MB regardless of window or city size.
_CELL_BUDGET = 4_000_000


@dataclass(frozen=True)
class GraphDelta:
    """Edge-level difference between two minings of one road set.

    ``added`` and ``reweighted`` carry full
    :class:`~repro.history.correlation.CorrelationEdge` objects (with
    ``road_u < road_v``); ``removed`` carries ``(road_u, road_v)`` key
    pairs. A delta is what flows from
    :meth:`~repro.history.online.RollingHistory.ingest_day` through the
    cache stack: only the cached fidelity rows its changed edges can
    move are dropped, and only the compiled plan shards over them.
    """

    added: tuple[CorrelationEdge, ...]
    removed: tuple[tuple[int, int], ...]
    reweighted: tuple[CorrelationEdge, ...]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.reweighted)

    @property
    def num_changes(self) -> int:
        return len(self.added) + len(self.removed) + len(self.reweighted)

    def touched_roads(self) -> tuple[int, ...]:
        """Sorted road ids that are an endpoint of any changed edge."""
        roads: set[int] = set()
        for edge in self.added:
            roads.update((edge.road_u, edge.road_v))
        for key in self.removed:
            roads.update(key)
        for edge in self.reweighted:
            roads.update((edge.road_u, edge.road_v))
        return tuple(sorted(roads))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"GraphDelta(added={len(self.added)}, removed={len(self.removed)}, "
            f"reweighted={len(self.reweighted)})"
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

    Both edge sets are compared as arrays: each ``(u, v)`` pair becomes
    one integer key from the roads' positions in ``graph.road_ids``
    (sorted, so key order is ``(u, v)`` order, for any int road ids),
    and ``searchsorted`` matches the mined keys against
    ``graph.edge_arrays()``. Python objects are built only for changed
    edges, so a re-mine that changes nothing builds none; the
    ``history.remine`` span's ``edges_built`` counts them and
    ``tests/test_delta_oracle.py`` pins that count and the delta (order
    included) to the list-form oracle in ``tests/oracles/delta.py``.
    """
    if tolerance < 0.0:
        raise DataError(f"delta tolerance must be >= 0, got {tolerance}")
    road_ids = graph.road_ids
    roads = np.asarray(road_ids, dtype=np.int64)
    new_keys = _edge_keys(roads, road_u, road_v)
    order = np.argsort(new_keys, kind="stable")
    new_keys = new_keys[order]
    new_p = np.asarray(agreement, dtype=np.float64)[order]
    old_u, old_v, old_p = graph.edge_arrays()
    old_keys = _edge_keys(roads, old_u, old_v)
    order = np.argsort(old_keys, kind="stable")
    old_keys, old_p = old_keys[order], old_p[order]

    at, kept = _lookup(old_keys, new_keys)
    moved = np.zeros_like(kept)
    moved[kept] = np.abs(new_p[kept] - old_p[at[kept]]) > tolerance
    _, survives = _lookup(new_keys, old_keys)

    def edges(mask: np.ndarray) -> tuple[CorrelationEdge, ...]:
        ends = _key_ends(road_ids, new_keys[mask])
        return tuple(
            CorrelationEdge(u, v, p) for (u, v), p in zip(ends, new_p[mask].tolist())
        )

    return GraphDelta(
        added=edges(~kept),
        removed=tuple(_key_ends(road_ids, old_keys[~survives])),
        reweighted=edges(moved),
    )


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``keys`` sits in ``sorted_keys``, and whether it is there."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.size
    found[found] = sorted_keys[at[found]] == keys[found]
    return at, found


def _edge_keys(roads: np.ndarray, road_u, road_v) -> np.ndarray:
    """One int64 key per edge, ``pos(low) * n + pos(high)`` over the
    ``n`` sorted road ids ``roads``; raises on a road not among them."""
    road_u = np.asarray(road_u, dtype=np.int64)
    road_v = np.asarray(road_v, dtype=np.int64)
    ends = np.stack([np.minimum(road_u, road_v), np.maximum(road_u, road_v)])
    pos = np.searchsorted(roads, ends)
    known = pos < roads.size
    known[known] = roads[pos[known]] == ends[known]
    if not known.all():
        raise DataError(
            f"mined edge references unknown road {int(ends[~known][0])}"
        )
    return pos[0] * roads.size + pos[1]


def _key_ends(road_ids: list[int], keys: np.ndarray) -> Iterator[tuple[int, int]]:
    """The ``(road_u, road_v)`` pairs that :func:`_edge_keys` encoded,
    as the graph's own road-id objects (no fresh int per edge end)."""
    n = len(road_ids)
    for low, high in zip((keys // n).tolist(), (keys % n).tolist()):
        yield road_ids[low], road_ids[high]


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
