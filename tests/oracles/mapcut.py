"""Exact MAP trend assignments: graph cuts, checked against enumeration.

The trend MRF's pairwise potentials are *attractive* (agreement
probability ≥ ½ after mining), which makes its energy **submodular**:
the exact maximum-a-posteriori assignment is computable at any scale by
one s-t minimum cut [Greig–Porteous–Seheult 1989, Kolmogorov–Zabih
2004], with no enumeration cap.

Energy decomposition: with labels RISE/FALL, the symmetric pairwise
term ``ψ = p`` (agree) / ``1−p`` (disagree) reduces to a disagreement
penalty ``w = log(p / (1−p)) ≥ 0`` per edge, and the unaries are the
prior negative log-likelihoods. The cut graph is

* source S ≙ RISE, sink T ≙ FALL,
* ``cap(S→i) = −log(1−prior_i)`` (cost of labelling ``i`` FALL),
* ``cap(i→T) = −log(prior_i)`` (cost of labelling ``i`` RISE),
* undirected ``cap(i↔j) = w_ij`` (cost of separating them),
* clamped evidence gets an effectively infinite capacity to its side.

The min cut's source side is the exact MAP RISE set. The cut is solved
by :class:`MaxFlowNetwork`, a compact Dinic max-flow (level graph plus
blocking flow, O(V²E) worst case but fast on the shallow, sparse cut
graphs MRFs produce). :func:`exact_map_assignment` enumerates every
assignment of the free variables and is the check on tiny instances.

The system serves per-road posteriors, never a global hard labelling,
so none of this is on the serving path; it is the exact MAP reference
the tests hold the MRF construction to.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.trend.exact import MAX_FREE_VARIABLES, ExactEnumerationInference
from repro.trend.model import TrendInstance


class MaxFlowNetwork:
    """A directed flow network with residual bookkeeping."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise InferenceError("flow network needs at least source and sink")
        self._num_nodes = num_nodes
        # Edge arrays: to[e], cap[e]; reverse edge of e is e ^ 1.
        self._to: list[int] = []
        self._cap: list[float] = []
        self._adjacency: list[list[int]] = [[] for _ in range(num_nodes)]

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def add_edge(self, u: int, v: int, capacity: float, reverse_capacity: float = 0.0) -> None:
        """Add edge u->v with ``capacity`` (and optional reverse capacity).

        Symmetric pairwise MRF edges pass the same value both ways.
        """
        if capacity < 0 or reverse_capacity < 0:
            raise InferenceError("capacities must be non-negative")
        if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
            raise InferenceError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise InferenceError("self-loops carry no flow")
        self._adjacency[u].append(len(self._to))
        self._to.append(v)
        self._cap.append(float(capacity))
        self._adjacency[v].append(len(self._to))
        self._to.append(u)
        self._cap.append(float(reverse_capacity))

    def max_flow(self, source: int, sink: int) -> float:
        """Compute the maximum s-t flow; mutates residual capacities."""
        if source == sink:
            raise InferenceError("source and sink must differ")
        flow = 0.0
        while True:
            level = self._bfs_levels(source, sink)
            if level[sink] < 0:
                return flow
            iterators = [0] * self._num_nodes
            while True:
                pushed = self._dfs_push(source, sink, float("inf"), level, iterators)
                if pushed <= 0:
                    break
                flow += pushed

    def min_cut_source_side(self, source: int) -> set[int]:
        """Nodes reachable from the source in the residual graph.

        Call after :meth:`max_flow`; the returned set is the source side
        of a minimum cut.
        """
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for edge in self._adjacency[u]:
                if self._cap[edge] > 1e-12:
                    v = self._to[edge]
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
        return seen

    def _bfs_levels(self, source: int, sink: int) -> list[int]:
        level = [-1] * self._num_nodes
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for edge in self._adjacency[u]:
                v = self._to[edge]
                if self._cap[edge] > 1e-12 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        del sink
        return level

    def _dfs_push(
        self,
        u: int,
        sink: int,
        limit: float,
        level: list[int],
        iterators: list[int],
    ) -> float:
        if u == sink:
            return limit
        adjacency = self._adjacency[u]
        while iterators[u] < len(adjacency):
            edge = adjacency[iterators[u]]
            v = self._to[edge]
            if self._cap[edge] > 1e-12 and level[v] == level[u] + 1:
                pushed = self._dfs_push(
                    v, sink, min(limit, self._cap[edge]), level, iterators
                )
                if pushed > 0:
                    self._cap[edge] -= pushed
                    self._cap[edge ^ 1] += pushed
                    return pushed
            iterators[u] += 1
        return 0.0


class GraphCutMapInference:
    """Exact MAP assignment for attractive (submodular) trend MRFs."""

    def map_assignment(self, instance: TrendInstance) -> dict[int, Trend]:
        """The exact MAP trend for every road.

        Raises :class:`InferenceError` if any edge potential is below
        0.5 (a repulsive edge makes the energy non-submodular and the
        cut construction invalid).
        """
        for _, _, p in instance.edges:
            if p < 0.5:
                raise InferenceError(
                    f"edge potential {p} < 0.5: energy is not submodular, "
                    "graph-cut MAP does not apply"
                )

        n = instance.num_roads
        source = n
        sink = n + 1
        network = MaxFlowNetwork(n + 2)

        # A capacity larger than any finite cut acts as infinity.
        huge = 1.0
        for prior in instance.prior_rise:
            huge += -math.log(max(prior, 1e-12)) - math.log(
                max(1.0 - prior, 1e-12)
            )
        for _, _, p in instance.edges:
            if p > 0.5:
                huge += math.log(p / (1.0 - p))

        evidence = instance.evidence_indices()
        for i in range(n):
            clamped = evidence.get(i)
            if clamped is Trend.RISE:
                network.add_edge(source, i, huge)
            elif clamped is Trend.FALL:
                network.add_edge(i, sink, huge)
            else:
                prior = float(instance.prior_rise[i])
                network.add_edge(source, i, -math.log(max(1.0 - prior, 1e-12)))
                network.add_edge(i, sink, -math.log(max(prior, 1e-12)))

        for i, j, p in instance.edges:
            if p > 0.5:
                weight = math.log(p / (1.0 - p))
                network.add_edge(i, j, weight, reverse_capacity=weight)
            # p == 0.5 carries no constraint and adds no edge.

        network.max_flow(source, sink)
        rise_side = network.min_cut_source_side(source)
        return {
            road: Trend.RISE if i in rise_side else Trend.FALL
            for i, road in enumerate(instance.road_ids)
        }


def exact_map_assignment(instance: TrendInstance) -> dict[int, Trend]:
    """The exact MAP configuration (for tests on tiny instances)."""
    n = instance.num_roads
    evidence = instance.evidence_indices()
    free = [i for i in range(n) if i not in evidence]
    if len(free) > MAX_FREE_VARIABLES:
        raise InferenceError("instance too large for exact MAP")

    assignment = np.zeros(n, dtype=np.int8)
    for i, trend in evidence.items():
        assignment[i] = int(trend)

    best_weight = -1.0
    best: np.ndarray | None = None
    for bits in itertools.product((1, -1), repeat=len(free)):
        for i, bit in zip(free, bits):
            assignment[i] = bit
        weight = ExactEnumerationInference._joint_weight(instance, assignment)
        if weight > best_weight:
            best_weight = weight
            best = assignment.copy()
    assert best is not None
    return {
        road: Trend(int(best[i])) for i, road in enumerate(instance.road_ids)
    }
