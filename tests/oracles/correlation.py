"""The per-road miner and the dict/list correlation graph.

:func:`batch_mine_correlation_graph` is the original form of
:func:`repro.history.correlation.mine_correlation_graph`: one road at
a time, its candidates' trend columns are scored against its own over
a float64 copy of the trend matrix (a matmul for ±1 trends, per-pair
masks when any trend is 0). Production counts every pair's co-trend
integers once and thresholds them in one pass; the two must keep
bitwise-equal edges (``tests/test_miner_oracle.py``), and the rolling
oracle :class:`tests.oracles.history.BatchRollingHistory` re-mines
with this loop.

:class:`ListCorrelationGraph` is the original form of
:class:`repro.history.correlation.CorrelationGraph`: a dict of
``(u, v)`` tuple keys to agreements and, per road, a list of
:class:`CorrelationEdge` objects sorted by ``(-agreement, road_u,
road_v)``. Its :meth:`ListCorrelationGraph.apply_delta` reads a
:class:`~repro.history.incremental.GraphDelta`'s edge tuples and
re-sorts each touched road's list. The production graph holds sorted
int64 edge keys and agreements instead and must read the same
(``tests/test_graph_arrays.py``).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Iterator

import numpy as np

from repro.core.errors import DataError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.roadnet.network import RoadNetwork
from tests.oracles.delta import EdgeTuples


def batch_mine_correlation_graph(
    network: RoadNetwork,
    store: HistoricalSpeedStore,
    max_hops: int = 2,
    min_agreement: float = 0.6,
    min_valid_fraction: float = 0.1,
) -> CorrelationGraph:
    """The correlation graph of ``store``'s history, mined road by road.

    Each road's candidates are the roads within ``max_hops`` of it with
    a higher id. Zero-free trends score ``(1 + E[t_u·t_v]) / 2`` by one
    matmul per road; with any zero in the matrix every pair is scored
    over its both-nonzero intervals instead, and a pair whose valid
    intervals cover less than ``min_valid_fraction`` of the window is
    rejected. Edges with agreement ``>= min_agreement`` are kept.
    """
    road_ids = store.road_ids
    trends = store.trend_matrix().astype(np.float64)
    num_intervals = trends.shape[0]
    column = {road: i for i, road in enumerate(road_ids)}
    # The matmul identity P(t_u == t_v) = (1 + E[t_u * t_v]) / 2 holds
    # only for strictly ±1 trends: a 0 (flat/missing) entry contributes
    # 0 to the product and silently counts as *half* an agreement. When
    # any zeros are present, fall back to per-pair masking: an interval
    # is valid only when both trends are nonzero, and agreement is the
    # fraction of valid intervals with the same sign.
    has_zeros = bool(np.any(trends == 0.0))
    nonzero = None if not has_zeros else (trends != 0.0)

    # Each road's kept edges, after one empty entry per array.
    kept_u = [np.zeros(0, dtype=np.int64)]
    kept_v = [np.zeros(0, dtype=np.int64)]
    kept_p = [np.zeros(0)]
    for road_id in road_ids:
        candidates = [
            other
            for other, hops in network.roads_within_hops(road_id, max_hops).items()
            if other > road_id and other in column and hops >= 1
        ]
        if not candidates:
            continue
        cols = np.array([column[c] for c in candidates])
        if not has_zeros:
            # agreement = P(t_u == t_v) = (1 + E[t_u * t_v]) / 2 for ±1 trends.
            products = trends[:, cols].T @ trends[:, column[road_id]]
            agreements = (1.0 + products / num_intervals) / 2.0
            supported = np.ones(len(candidates), dtype=bool)
        else:
            u_col = trends[:, column[road_id]]
            valid = nonzero[:, cols] & nonzero[:, column[road_id]][:, None]
            valid_counts = valid.sum(axis=0)
            same_sign = ((trends[:, cols] == u_col[:, None]) & valid).sum(axis=0)
            # A pair with no valid interval has no evidence: agreement 0,
            # which min_agreement >= 0.5 always rejects.
            agreements = same_sign / np.maximum(valid_counts, 1)
            supported = valid_counts >= min_valid_fraction * num_intervals
        keep = supported & (agreements >= min_agreement)
        kept_u.append(np.full(np.count_nonzero(keep), road_id, dtype=np.int64))
        kept_v.append(np.asarray(candidates, dtype=np.int64)[keep])
        kept_p.append(agreements[keep])
    return CorrelationGraph.from_arrays(
        road_ids, np.concatenate(kept_u), np.concatenate(kept_v), np.concatenate(kept_p)
    )


class ListCorrelationGraph:
    """The dict/list correlation graph: a weight dict keyed by
    ``(u, v)`` tuples and one :class:`CorrelationEdge` list per road,
    sorted by ``(-agreement, road_u, road_v)``."""

    def __init__(self, road_ids: list[int], edges: list[CorrelationEdge]) -> None:
        self._road_ids = sorted(set(road_ids))
        road_set = set(self._road_ids)
        self._adjacency: dict[int, list[CorrelationEdge]] = {
            road: [] for road in self._road_ids
        }
        self._weights: dict[tuple[int, int], float] = {}
        for edge in edges:
            if edge.road_u not in road_set or edge.road_v not in road_set:
                raise DataError(
                    f"edge ({edge.road_u}, {edge.road_v}) references unknown road"
                )
            key = self._key(edge.road_u, edge.road_v)
            if key in self._weights:
                raise DataError(f"duplicate correlation edge {key}")
            self._weights[key] = edge.agreement
            self._adjacency[edge.road_u].append(edge)
            self._adjacency[edge.road_v].append(edge)
        for road in self._road_ids:
            self._adjacency[road].sort(key=lambda e: (-e.agreement, e.road_u, e.road_v))

    @staticmethod
    def _key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    @property
    def road_ids(self) -> list[int]:
        return list(self._road_ids)

    @property
    def num_roads(self) -> int:
        return len(self._road_ids)

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    def has_road(self, road_id: int) -> bool:
        return road_id in self._adjacency

    def neighbours(self, road_id: int) -> list[CorrelationEdge]:
        """Edges incident to ``road_id``, strongest agreement first."""
        try:
            return list(self._adjacency[road_id])
        except KeyError:
            raise DataError(f"road {road_id} not in correlation graph") from None

    def neighbour_ids(self, road_id: int) -> list[int]:
        return [edge.other(road_id) for edge in self.neighbours(road_id)]

    def degree(self, road_id: int) -> int:
        return len(self._adjacency[road_id])

    def agreement(self, road_u: int, road_v: int) -> float | None:
        """The agreement probability of an edge, or None if absent."""
        return self._weights.get(self._key(road_u, road_v))

    def edges(self) -> Iterator[CorrelationEdge]:
        """All edges, each reported once, in (u, v) key order."""
        for (u, v), p in sorted(self._weights.items()):
            yield CorrelationEdge(u, v, p)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(road_u, road_v, agreement)`` arrays, one entry per edge.

        ``road_u < road_v`` on every entry; the edge order is unspecified.
        One pass over the weight map, without building edge objects.
        """
        count = len(self._weights)
        ends = np.fromiter(
            chain.from_iterable(self._weights), dtype=np.int64, count=2 * count
        ).reshape(count, 2)
        agreement = np.fromiter(
            self._weights.values(), dtype=np.float64, count=count
        )
        return ends[:, 0], ends[:, 1], agreement

    def average_degree(self) -> float:
        if not self._road_ids:
            return 0.0
        return 2.0 * self.num_edges / len(self._road_ids)

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted road-id lists, largest first."""
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
                for edge in self._adjacency[road]:
                    other = edge.other(road)
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            components.append(sorted(component))
        components.sort(key=len, reverse=True)
        return components

    def apply_delta(self, delta) -> None:
        """Apply an edge-level diff **in place**, preserving identity.

        ``delta`` is a :class:`repro.history.incremental.GraphDelta`,
        read back as edge tuples through
        :class:`~tests.oracles.delta.EdgeTuples`.
        Mutating the existing object — rather than building a fresh
        graph — is what lets weakref-keyed caches (the fidelity
        service, and everything subscribed to it) keep every row that no
        changed edge touches. The road set never changes: deltas only
        add, drop or re-weight edges between known roads.

        The apply is atomic: the whole delta is validated first (absent
        removals or reweights, duplicate or unknown-road adds, a key
        named twice), and a rejected delta raises
        :class:`~repro.core.errors.DataError` with the graph untouched.
        Changes are then grouped by road, so each touched road's
        adjacency is rebuilt and sorted once.
        """
        delta = EdgeTuples.of(delta)
        removed = [self._key(u, v) for u, v in delta.removed]
        added = [self._key(e.road_u, e.road_v) for e in delta.added]
        reweighted = [self._key(e.road_u, e.road_v) for e in delta.reweighted]
        named = Counter(removed + added + reweighted)
        if len(named) != len(removed) + len(added) + len(reweighted):
            twice = next(key for key, n in named.items() if n > 1)
            raise DataError(f"correlation edge {twice} appears twice in one delta")
        for key in removed:
            if key not in self._weights:
                raise DataError(f"cannot remove absent correlation edge {key}")
        for key in added:
            if key[0] not in self._adjacency or key[1] not in self._adjacency:
                raise DataError(f"edge {key} references unknown road")
            if key in self._weights:
                raise DataError(f"cannot add duplicate correlation edge {key}")
        for key in reweighted:
            if key not in self._weights:
                raise DataError(f"cannot reweight absent correlation edge {key}")

        # Valid: mutate. Old entries of removed and reweighted keys leave
        # each touched road's list; added and reweighted edges join it.
        dropped = set(removed) | set(reweighted)
        incoming: dict[int, list[CorrelationEdge]] = {}
        for key in removed:
            del self._weights[key]
            for road in key:
                incoming.setdefault(road, [])
        for edge in chain(delta.added, delta.reweighted):
            self._weights[self._key(edge.road_u, edge.road_v)] = edge.agreement
            incoming.setdefault(edge.road_u, []).append(edge)
            incoming.setdefault(edge.road_v, []).append(edge)
        for road, edges in incoming.items():
            adjacency = [
                e
                for e in self._adjacency[road]
                if self._key(e.road_u, e.road_v) not in dropped
            ]
            adjacency += edges
            adjacency.sort(key=lambda e: (-e.agreement, e.road_u, e.road_v))
            self._adjacency[road] = adjacency

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ListCorrelationGraph(roads={self.num_roads}, edges={self.num_edges})"
