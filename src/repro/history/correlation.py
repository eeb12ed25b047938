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

For deployments that re-mine continuously, see
:mod:`repro.history.incremental`: :meth:`CorrelationGraph.apply_delta`
applies an edge-level diff in place, so long-lived caches keyed by
graph identity survive a re-mine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
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


class CorrelationGraph:
    """Undirected weighted graph of trend-correlated roads.

    Nodes are road ids; edge weights are trend-agreement probabilities in
    ``[0.5, 1]`` (after thresholding). Adjacency is precomputed for the
    inference and selection hot paths.
    """

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

        ``delta`` is a :class:`repro.history.incremental.GraphDelta`
        (duck-typed: ``added`` / ``reweighted`` iterate
        :class:`CorrelationEdge`, ``removed`` iterates road-id pairs).
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
        adjacency is rebuilt and sorted once. The work is O(changed
        edges + touched roads' degrees); the re-mine's ``edges_built``
        counter and ``tests/test_delta_oracle.py`` back that claim.
        """
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
        return f"CorrelationGraph(roads={self.num_roads}, edges={self.num_edges})"


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
    spurious perfect edges. Complexity is O(roads × candidates ×
    intervals) with the inner product vectorised.
    """
    if max_hops < 1:
        raise DataError(f"max_hops must be >= 1, got {max_hops}")
    if not 0.5 <= min_agreement <= 1.0:
        raise DataError(
            f"min_agreement should be in [0.5, 1], got {min_agreement}"
        )
    if not 0.0 <= min_valid_fraction <= 1.0:
        raise DataError(
            f"min_valid_fraction should be in [0, 1], got {min_valid_fraction}"
        )
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

    edges: list[CorrelationEdge] = []
    with get_recorder().span(
        "history.correlation.mine", roads=len(road_ids)
    ) as span:
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
            for candidate, agreement, has_support in zip(
                candidates, agreements, supported
            ):
                if has_support and agreement >= min_agreement:
                    edges.append(CorrelationEdge(road_id, candidate, float(agreement)))
        span.set(edges=len(edges))
    return CorrelationGraph(road_ids, edges)
