"""Trend-correlation mining: from history to the correlation graph.

The paper's central observation is that *correlated roads share trends*:
when one runs faster than usual, its correlated neighbours usually do
too. This module measures that from training history and materialises a
**correlation graph** — the structure over which the Step-1 graphical
model and the seed-selection objective are both defined.

Two roads are candidate-correlated when within ``max_hops`` of each
other in road adjacency (correlation in traffic is local). For each
candidate pair we compute the **trend agreement probability**::

    p(u, v) = #{intervals where trend_u == trend_v} / #intervals

over the training history, and keep edges with ``p >= min_agreement``.
Agreement below 0.5 would mean *anti*-correlation; the default threshold
0.6 keeps only usefully informative edges. When trends carry zeros
(flat/missing intervals), agreement is computed over the *valid*
intervals only, and ``min_valid_fraction`` additionally rejects pairs
whose evidence covers too little of the window — a pair sharing one
valid interval would otherwise score a perfect 1.0 from a single
coin-flip of evidence.

There is one miner. :class:`IncrementalCoTrendStats` enumerates the
candidate pairs and keeps their integer co-trend counts over a window;
its :meth:`~IncrementalCoTrendStats.mine_arrays` applies the agreement
formulas and the thresholds. :func:`mine_correlation_graph` counts a
whole history once through it, and
:class:`~repro.history.online.RollingHistory` keeps one instance and
slides it a day at a time. The per-road loop this replaced is the test
oracle ``tests/oracles/correlation.py::batch_mine_correlation_graph``.

The graph holds its edges as arrays (sorted int64 edge keys and their
agreements); :class:`CorrelationEdge` objects are built only when a
caller asks for them (:meth:`CorrelationGraph.edges`,
:meth:`CorrelationGraph.neighbours`). For deployments that re-mine
continuously, see :mod:`repro.history.incremental`:
:meth:`CorrelationGraph.apply_delta` merges an edge-level diff in
place, so long-lived caches keyed by graph identity survive a re-mine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.errors import DataError
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork


@dataclass(frozen=True, slots=True)
class CorrelationEdge:
    """An undirected correlation edge with agreement probability."""

    road_u: int
    road_v: int
    agreement: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.agreement <= 1.0:
            raise DataError(f"agreement {self.agreement} outside [0, 1]")
        if self.road_u == self.road_v:
            raise DataError(f"self-correlation on road {self.road_u}")

    def other(self, road_id: int) -> int:
        """The endpoint that is not ``road_id``."""
        if road_id == self.road_u:
            return self.road_v
        if road_id == self.road_v:
            return self.road_u
        raise DataError(f"road {road_id} is not an endpoint of this edge")


def edge_objects(road_u, road_v, agreement) -> Iterator[CorrelationEdge]:
    """:class:`CorrelationEdge` objects of aligned edge arrays, built
    one at a time as the iterator is read."""
    return map(CorrelationEdge, road_u.tolist(), road_v.tolist(), agreement.tolist())


def _check_agreements(agreement: np.ndarray) -> None:
    bad = np.flatnonzero(~((agreement >= 0.0) & (agreement <= 1.0)))
    if bad.size:
        raise DataError(f"agreement {agreement[bad[0]]} outside [0, 1]")


class CorrelationGraph:
    """Undirected weighted graph of trend-correlated roads.

    Nodes are road ids; edge weights are trend-agreement probabilities in
    ``[0.5, 1]`` (after thresholding). Edges are held as two aligned
    read-only arrays: sorted int64 **edge keys** ``pos(u) * n + pos(v)``
    (``u < v``, positions in the sorted ``road_ids``, so key order is
    ``(u, v)`` order for any int road ids) and their float64
    agreements. Per-road adjacency, strongest agreement first, is an
    index built on first use and dropped by :meth:`apply_delta`.
    """

    def __init__(self, road_ids: list[int], edges: list[CorrelationEdge]) -> None:
        edges = list(edges)
        count = len(edges)
        self._reset(
            road_ids,
            np.fromiter((e.road_u for e in edges), np.int64, count),
            np.fromiter((e.road_v for e in edges), np.int64, count),
            np.fromiter((e.agreement for e in edges), np.float64, count),
        )

    @classmethod
    def from_arrays(
        cls, road_ids, road_u, road_v, agreement
    ) -> "CorrelationGraph":
        """The graph of edges ``(road_u[k], road_v[k], agreement[k])``.

        The array form of the edge-list constructor, with the same
        checks made on whole arrays: an agreement outside ``[0, 1]``, a
        self edge, an unknown road or an edge given twice (in either
        orientation) raises :class:`~repro.core.errors.DataError`.
        Edge order and orientation are free. ``road_ids`` become
        Python ints, so every id the graph hands out is one.
        """
        graph = cls.__new__(cls)
        graph._reset(road_ids, road_u, road_v, agreement)
        return graph

    def _reset(self, road_ids, road_u, road_v, agreement) -> None:
        self._road_ids = sorted({int(road) for road in road_ids})
        self._roads = np.array(self._road_ids, dtype=np.int64)
        self._position = {road: i for i, road in enumerate(self._road_ids)}
        agreement = np.asarray(agreement, dtype=np.float64).reshape(-1)
        keys = self.keys_of(road_u, road_v, agreement)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if twice.size:
            raise DataError(
                f"duplicate correlation edge {self._pair(keys[twice[0]])}"
            )
        self._set(keys, agreement[order])

    def _set(self, keys: np.ndarray, agreement: np.ndarray) -> None:
        keys.setflags(write=False)
        agreement.setflags(write=False)
        self._keys = keys
        self._agreement = agreement
        # (indptr, edge rank, neighbour id) per road; see _adjacency.
        self._index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Edge keys
    # ------------------------------------------------------------------
    def keys_of(self, road_u, road_v, agreement=None) -> np.ndarray:
        """The int64 edge key of each ``(road_u[k], road_v[k])``, either
        orientation; raises :class:`~repro.core.errors.DataError` on a
        self edge or a road not in the graph and, with ``agreement``
        given, on an agreement outside ``[0, 1]``."""
        road_u = np.asarray(road_u, dtype=np.int64).reshape(-1)
        road_v = np.asarray(road_v, dtype=np.int64).reshape(-1)
        if agreement is not None:
            if not road_u.size == road_v.size == agreement.size:
                raise DataError("edge arrays differ in length")
            _check_agreements(agreement)
        loop = np.flatnonzero(road_u == road_v)
        if loop.size:
            raise DataError(f"self-correlation on road {road_u[loop[0]]}")
        return self._named_keys(
            road_u, road_v, "edge ({u}, {v}) references unknown road {road}"
        )

    def _named_keys(self, road_u, road_v, unknown: str) -> np.ndarray:
        """Edge keys of the pairs; raises ``unknown`` formatted with the
        first pair that names a road not in the graph."""
        ends = np.stack([np.minimum(road_u, road_v), np.maximum(road_u, road_v)])
        pos = np.searchsorted(self._roads, ends)
        known = pos < self._roads.size
        known[known] = self._roads[pos[known]] == ends[known]
        known = known.all(axis=0)
        if not known.all():
            k = int(np.argmin(known))
            u, v = int(road_u[k]), int(road_v[k])
            road = v if u in self._position else u
            raise DataError(unknown.format(u=u, v=v, road=road))
        return pos[0] * self._roads.size + pos[1]

    def key_ends(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(road_u, road_v)`` id arrays of edge ``keys``, ``u < v``."""
        low, high = np.divmod(keys, self._roads.size)
        return self._roads[low], self._roads[high]

    def edge_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted edge keys and their agreements (read-only arrays)."""
        return self._keys, self._agreement

    def edge_positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, agreement)`` per edge, in key order: the positions in
        :attr:`road_ids` of each edge's lower and higher end (``i < j``)."""
        return (*np.divmod(self._keys, len(self._road_ids)), self._agreement)

    def _pair(self, key) -> tuple[int, int]:
        low, high = divmod(int(key), len(self._road_ids))
        return self._road_ids[low], self._road_ids[high]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def road_ids(self) -> list[int]:
        return list(self._road_ids)

    @property
    def num_roads(self) -> int:
        return len(self._road_ids)

    @property
    def num_edges(self) -> int:
        return self._keys.size

    def has_road(self, road_id: int) -> bool:
        return road_id in self._position

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per road, its edges' ranks in key order and the neighbours'
        ids, sorted by ``(-agreement, road_u, road_v)``."""
        if self._index is None:
            n, count = len(self._road_ids), self._keys.size
            low, high = np.divmod(self._keys, n)
            road = np.concatenate([low, high])
            other = np.concatenate([high, low])
            rank = np.tile(np.arange(count), 2)
            # Key rank orders (road_u, road_v) ties, as the key does.
            order = np.lexsort((rank, -self._agreement[rank], road))
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(road, minlength=n), out=indptr[1:])
            self._index = (indptr, rank[order], self._roads[other[order]])
        return self._index

    def _span(self, road_id: int) -> slice:
        try:
            i = self._position[road_id]
        except KeyError:
            raise DataError(f"road {road_id} not in correlation graph") from None
        indptr = self._adjacency()[0]
        return slice(int(indptr[i]), int(indptr[i + 1]))

    def neighbours(self, road_id: int) -> list[CorrelationEdge]:
        """Edges incident to ``road_id``, strongest agreement first."""
        ranks = self._adjacency()[1][self._span(road_id)]
        return list(
            edge_objects(*self.key_ends(self._keys[ranks]), self._agreement[ranks])
        )

    def neighbour_ids(self, road_id: int) -> list[int]:
        """Neighbour ids (Python ints) in :meth:`neighbours` order."""
        return self._adjacency()[2][self._span(road_id)].tolist()

    def degree(self, road_id: int) -> int:
        span = self._span(road_id)
        return span.stop - span.start

    def agreement(self, road_u: int, road_v: int) -> float | None:
        """The agreement probability of an edge, or None if absent."""
        u, v = self._position.get(road_u), self._position.get(road_v)
        if u is None or v is None:
            return None
        key = min(u, v) * len(self._road_ids) + max(u, v)
        at = int(np.searchsorted(self._keys, key))
        if at < self._keys.size and self._keys[at] == key:
            return float(self._agreement[at])
        return None

    def edges(self) -> Iterator[CorrelationEdge]:
        """All edges, each reported once, in (u, v) key order."""
        return edge_objects(*self.edge_arrays())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(road_u, road_v, agreement)`` arrays, one entry per edge.

        ``road_u < road_v`` on every entry, in key order; the agreement
        array is the graph's own (read-only). No edge object is built.
        """
        return (*self.key_ends(self._keys), self._agreement)

    def average_degree(self) -> float:
        if not self._road_ids:
            return 0.0
        return 2.0 * self.num_edges / len(self._road_ids)

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted road-id lists, largest first."""
        indptr, _, neighbour = self._adjacency()
        seen: set[int] = set()
        components: list[list[int]] = []
        for start in self._road_ids:
            if start in seen:
                continue
            component = []
            stack = [start]
            seen.add(start)
            while stack:
                road = stack.pop()
                component.append(road)
                i = self._position[road]
                for other in neighbour[indptr[i] : indptr[i + 1]].tolist():
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            components.append(sorted(component))
        components.sort(key=len, reverse=True)
        return components

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> None:
        """Apply an edge-level diff **in place**, preserving identity.

        ``delta`` is a :class:`repro.history.incremental.GraphDelta`;
        its ``added_arrays``, ``removed_arrays`` and
        ``reweighted_arrays`` are read, never its edge objects.
        Mutating the existing object — rather than building a fresh
        graph — is what lets weakref-keyed caches (the fidelity
        service, and everything subscribed to it) keep every row that no
        changed edge touches. The road set never changes: deltas only
        add, drop or re-weight edges between known roads.

        The apply is atomic: the whole delta is validated first (absent
        removals or reweights, unknown-road, self or duplicate adds, an
        agreement outside ``[0, 1]``, a key named twice), and a
        rejected delta raises :class:`~repro.core.errors.DataError` with
        the graph untouched. The valid delta is then merged into the key
        arrays with ``searchsorted``: O(edges) array work, no per-edge
        object, and the adjacency index is rebuilt on its next read.
        """
        if delta.is_empty:
            return
        add_u, add_v, add_p = delta.added_arrays
        rew_u, rew_v, rew_p = delta.reweighted_arrays
        removed = self._named_keys(
            *delta.removed_arrays, "cannot remove absent correlation edge ({u}, {v})"
        )
        added = self.keys_of(add_u, add_v, add_p)
        reweighted = self._named_keys(
            rew_u, rew_v, "cannot reweight absent correlation edge ({u}, {v})"
        )
        _check_agreements(rew_p)
        named = np.sort(np.concatenate([removed, added, reweighted]), kind="stable")
        twice = np.flatnonzero(named[1:] == named[:-1])
        if twice.size:
            raise DataError(
                f"correlation edge {self._pair(named[twice[0]])} appears twice "
                "in one delta"
            )
        at = []
        for keys, present, problem in (
            (removed, True, "cannot remove absent"),
            (added, False, "cannot add duplicate"),
            (reweighted, True, "cannot reweight absent"),
        ):
            where, found = self.locate(keys)
            wrong = np.flatnonzero(found != present)
            if wrong.size:
                raise DataError(
                    f"{problem} correlation edge {self._pair(keys[wrong[0]])}"
                )
            at.append(where)
        at_removed, _, at_reweighted = at

        # Valid: merge. Removed keys leave, reweighted ones take their
        # new agreement, added ones go in at their sorted place.
        agreement = self._agreement.copy()
        agreement[at_reweighted] = rew_p
        keep = np.ones(self._keys.size, dtype=bool)
        keep[at_removed] = False
        keys, agreement = self._keys[keep], agreement[keep]
        order = np.argsort(added, kind="stable")
        added, add_p = added[order], np.asarray(add_p, dtype=np.float64)[order]
        at = np.searchsorted(keys, added)
        self._set(np.insert(keys, at, added), np.insert(agreement, at, add_p))

    def locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each edge key sits in :meth:`edge_keys`, and whether it
        is there."""
        at = np.searchsorted(self._keys, keys)
        found = at < self._keys.size
        found[found] = self._keys[at[found]] == keys[found]
        return at, found

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"CorrelationGraph(roads={self.num_roads}, edges={self.num_edges})"


#: Pair-axis chunk budget for the count updates: rows × pairs int8
#: blocks stay a few MB regardless of window or city size.
_CELL_BUDGET = 4_000_000


class IncrementalCoTrendStats:
    """Per candidate pair, the window's co-trend counts.

    Pairs are every ``(u, v)`` with ``v`` within ``max_hops`` of ``u``
    in road adjacency and ``v > u``. Each keeps two int64 counts over
    the window's trend matrix: ``same`` (intervals where both trends
    have one sign) and ``valid`` (intervals where both are nonzero).
    :meth:`reset` counts a whole window, :meth:`advance` slides it, and
    :meth:`mine_arrays` turns the counts into kept edges. The window's
    trend matrix is retained so an :meth:`advance` can subtract exactly
    the rows that left or flipped. The road set is fixed at
    construction (a rolling window never changes its roads mid-flight;
    build a new instance for a new network).
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
        agreement)`` arrays.

        A zero-free window scores ``(1 + (2·same − n) / n) / 2``, the
        agreement ``P(t_u == t_v)`` of ±1 trends. A window with any
        zero trend scores ``same / max(valid, 1)`` instead and rejects a
        pair whose ``valid`` count is below ``min_valid_fraction`` of
        the window (see the module docstring). ``road_u < road_v`` on
        every entry, in pair-enumeration order; no edge object is built.
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
        if not np.any(self._trends == 0):
            products = (2 * self._same - num_intervals).astype(np.float64)
            agreements = (1.0 + products / num_intervals) / 2.0
            keep = agreements >= min_agreement
        else:
            # A pair with no valid interval has no evidence: agreement 0,
            # which min_agreement >= 0.5 always rejects.
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
        with that mine's :func:`~repro.history.incremental.diff_edges`
        (at a fixed tolerance) and let nobody else write it may then skip
        the diff: it is empty. The check compares the counts with a copy
        kept from that mine.
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


def mine_correlation_graph(
    network: RoadNetwork,
    store: HistoricalSpeedStore,
    max_hops: int = 2,
    min_agreement: float = 0.6,
    min_valid_fraction: float = 0.1,
) -> CorrelationGraph:
    """Mine the correlation graph from history.

    ``max_hops`` bounds the candidate neighbourhood in road adjacency;
    ``min_agreement`` is the edge-keeping threshold on trend-agreement
    probability. When the history carries zero (flat/missing) trends,
    ``min_valid_fraction`` is the support guard: a pair whose valid
    (both-nonzero) intervals cover less than that fraction of the
    window is rejected outright — with one shared valid interval a pair
    scores agreement 0 or 1, so sparse histories would otherwise grow
    spurious perfect edges. The window's co-trend counts are built once
    (:class:`IncrementalCoTrendStats` over ``store.road_ids``) and
    thresholded by :meth:`~IncrementalCoTrendStats.mine_arrays`: the
    same counts and thresholds a rolling window keeps up to date.
    """
    road_ids = store.road_ids
    with get_recorder().span(
        "history.correlation.mine", roads=len(road_ids)
    ) as span:
        trends = store.trend_matrix()
        stats = IncrementalCoTrendStats(network, road_ids, max_hops)
        stats.reset(trends)
        mined = stats.mine_arrays(min_agreement, min_valid_fraction)
        span.set(edges=mined[0].size)
    return CorrelationGraph.from_arrays(road_ids, *mined)
