"""Map matching: snap noisy GPS fixes onto road segments.

:class:`HmmMatcher` is a compact HMM/Viterbi matcher in the style of
Newson & Krumm (2009): emission probability decays with snap distance,
transition probability penalises jumps between non-adjacent segments
and disagreement between network distance and straight-line movement.
Independent nearest-segment snapping, which flickers between parallel
roads under noise, is the baseline it is tested against
(``tests/oracles/map_matching.py``).

The matcher produces a road id per GPS point (or None when
unmatchable); the speed-extraction stage consumes these assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gps.traces import GpsTrace
from repro.roadnet.network import RoadNetwork
from repro.roadnet.spatial_index import SpatialIndex


@dataclass(frozen=True, slots=True)
class MatchedPoint:
    """A GPS point with its matched road (None = unmatched)."""

    timestamp_s: float
    road_id: int | None
    snap_distance_m: float
    position: float  # normalised position along the segment, 0 when unmatched


@dataclass(frozen=True, slots=True)
class MatchedTrace:
    trip_id: int
    points: tuple[MatchedPoint, ...]

    @property
    def match_rate(self) -> float:
        """Fraction of points that received a road id."""
        if not self.points:
            return 0.0
        matched = sum(1 for p in self.points if p.road_id is not None)
        return matched / len(self.points)


class HmmMatcher:
    """Viterbi matching over per-point candidate segments.

    States are candidate segments for each point; emission log-probability
    is Gaussian in snap distance; transitions score 0 for staying on the
    same segment, a small penalty for moving to a road-adjacent segment,
    and a large penalty for any other jump. This captures the two facts
    that matter at probe sampling rates: vehicles stay on a road for
    several fixes, and when they change roads they change to an adjacent
    one.
    """

    def __init__(
        self,
        network: RoadNetwork,
        index: SpatialIndex | None = None,
        search_radius_m: float = 80.0,
        emission_sigma_m: float = 20.0,
        candidates_per_point: int = 4,
        adjacent_penalty: float = 1.0,
        jump_penalty: float = 8.0,
    ) -> None:
        self._network = network
        self._index = index or SpatialIndex(network)
        self._radius = search_radius_m
        self._sigma = emission_sigma_m
        self._k = candidates_per_point
        self._adjacent_penalty = adjacent_penalty
        self._jump_penalty = jump_penalty
        self._adjacency_cache: dict[int, set[int]] = {}

    def _adjacent(self, road_id: int) -> set[int]:
        cached = self._adjacency_cache.get(road_id)
        if cached is None:
            seg = self._network.segment(road_id)
            cached = set(self._network.adjacent_roads(road_id))
            # The reverse-direction twin counts as "same street".
            for other in self._network.outgoing(seg.end_node):
                if other.end_node == seg.start_node:
                    cached.add(other.road_id)
            self._adjacency_cache[road_id] = cached
        return cached

    def _transition_cost(self, prev_road: int, road: int) -> float:
        if prev_road == road:
            return 0.0
        if road in self._adjacent(prev_road):
            return self._adjacent_penalty
        return self._jump_penalty

    def match(self, trace: GpsTrace) -> MatchedTrace:
        candidate_lists = [
            self._index.nearest_segments(p.location, self._radius, limit=self._k)
            for p in trace.points
        ]
        # Viterbi over the points that have candidates; unmatched gaps
        # break the chain (each maximal run is decoded independently).
        assignments: list[MatchedPoint] = [
            MatchedPoint(p.timestamp_s, None, math.inf, 0.0) for p in trace.points
        ]
        run_start = None
        for i, candidates in enumerate(candidate_lists + [[]]):
            if candidates and run_start is None:
                run_start = i
            elif not candidates and run_start is not None:
                self._decode_run(
                    trace, candidate_lists, assignments, run_start, i
                )
                run_start = None
        return MatchedTrace(trace.trip_id, tuple(assignments))

    def _decode_run(
        self,
        trace: GpsTrace,
        candidate_lists: list,
        assignments: list[MatchedPoint],
        start: int,
        stop: int,
    ) -> None:
        """Viterbi-decode points [start, stop) in place."""
        # cost[i][j]: best negative log-likelihood ending at candidate j of point i.
        costs: list[list[float]] = []
        backpointers: list[list[int]] = []
        first = candidate_lists[start]
        costs.append([self._emission_cost(c.distance_m) for c in first])
        backpointers.append([-1] * len(first))
        for i in range(start + 1, stop):
            prev_candidates = candidate_lists[i - 1]
            here = candidate_lists[i]
            row_costs: list[float] = []
            row_back: list[int] = []
            for candidate in here:
                best_cost = math.inf
                best_prev = -1
                for j, prev in enumerate(prev_candidates):
                    cost = costs[-1][j] + self._transition_cost(
                        prev.road_id, candidate.road_id
                    )
                    if cost < best_cost:
                        best_cost = cost
                        best_prev = j
                row_costs.append(best_cost + self._emission_cost(candidate.distance_m))
                row_back.append(best_prev)
            costs.append(row_costs)
            backpointers.append(row_back)

        # Backtrack.
        best_j = min(range(len(costs[-1])), key=costs[-1].__getitem__)
        for offset in range(stop - start - 1, -1, -1):
            i = start + offset
            candidate = candidate_lists[i][best_j]
            assignments[i] = MatchedPoint(
                trace.points[i].timestamp_s,
                candidate.road_id,
                candidate.distance_m,
                candidate.position,
            )
            best_j = backpointers[offset][best_j]

    def _emission_cost(self, distance_m: float) -> float:
        return 0.5 * (distance_m / self._sigma) ** 2
