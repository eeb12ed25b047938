"""Independent nearest-segment snapping: the baseline for the HMM matcher.

Each GPS point snaps to its nearest segment on its own. It is fast but
flickers between parallel roads under noise, which is what
:class:`~repro.gps.map_matching.HmmMatcher` is tested to avoid.
"""

from __future__ import annotations

import math

from repro.gps.map_matching import MatchedPoint, MatchedTrace
from repro.gps.traces import GpsTrace
from repro.roadnet.network import RoadNetwork
from repro.roadnet.spatial_index import SpatialIndex


class NearestMatcher:
    """Match each point to its nearest segment independently."""

    def __init__(
        self, network: RoadNetwork, index: SpatialIndex | None = None,
        search_radius_m: float = 80.0,
    ) -> None:
        self._network = network
        self._index = index or SpatialIndex(network)
        self._radius = search_radius_m

    def match(self, trace: GpsTrace) -> MatchedTrace:
        points: list[MatchedPoint] = []
        for gps in trace.points:
            best = self._index.nearest_segment(gps.location, self._radius)
            if best is None:
                points.append(MatchedPoint(gps.timestamp_s, None, math.inf, 0.0))
            else:
                points.append(
                    MatchedPoint(
                        gps.timestamp_s, best.road_id, best.distance_m, best.position
                    )
                )
        return MatchedTrace(trace.trip_id, tuple(points))
