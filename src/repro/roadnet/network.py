"""The directed road-segment graph.

A :class:`RoadNetwork` holds intersections (nodes) and directed road
segments (edges). Every algorithm in this package — the traffic
simulator, map matching, correlation mining, trend inference, and seed
selection — operates on this structure, so it is deliberately small and
fast: plain dicts keyed by integer ids, with adjacency kept both ways.

Road classes follow a conventional urban hierarchy and carry default
free-flow speeds used by the traffic simulator:

=============  ==================  =================
class          description         free-flow (km/h)
=============  ==================  =================
``highway``    limited access      90
``arterial``   major through road  60
``collector``  feeder street       45
``local``      residential street  30
=============  ==================  =================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.errors import NetworkError
from repro.roadnet.geometry import BoundingBox, Point

#: Default free-flow speeds by road class, km/h.
FREE_FLOW_KMH: dict[str, float] = {
    "highway": 90.0,
    "arterial": 60.0,
    "collector": 45.0,
    "local": 30.0,
}

ROAD_CLASSES: tuple[str, ...] = tuple(FREE_FLOW_KMH)


@dataclass(frozen=True, slots=True)
class Intersection:
    """A graph node: a point where road segments meet."""

    node_id: int
    location: Point


@dataclass(frozen=True, slots=True)
class RoadSegment:
    """A directed road segment between two intersections.

    ``road_id`` is the primary key used everywhere else in the package:
    historical stores, correlation graphs, and estimators all index by it.
    """

    road_id: int
    start_node: int
    end_node: int
    length_m: float
    road_class: str
    free_flow_kmh: float
    lanes: int = 2
    name: str = ""

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise NetworkError(f"road {self.road_id}: non-positive length {self.length_m}")
        if self.road_class not in FREE_FLOW_KMH:
            raise NetworkError(
                f"road {self.road_id}: unknown road class {self.road_class!r}"
            )
        if self.free_flow_kmh <= 0:
            raise NetworkError(
                f"road {self.road_id}: non-positive free-flow speed {self.free_flow_kmh}"
            )
        if self.lanes < 1:
            raise NetworkError(f"road {self.road_id}: lanes must be >= 1")

    @property
    def free_flow_travel_time_s(self) -> float:
        """Seconds to traverse at free-flow speed."""
        return self.length_m / (self.free_flow_kmh / 3.6)


@dataclass
class RoadNetwork:
    """A directed road graph with spatial node locations.

    Construction is incremental (``add_intersection`` / ``add_segment``),
    after which the network is typically treated as immutable. Mutating a
    network invalidates any spatial index built from it.
    """

    name: str = "network"
    _nodes: dict[int, Intersection] = field(default_factory=dict)
    _segments: dict[int, RoadSegment] = field(default_factory=dict)
    _out_edges: dict[int, list[int]] = field(default_factory=dict)
    _in_edges: dict[int, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_intersection(self, node_id: int, location: Point) -> Intersection:
        """Register an intersection; ids must be unique."""
        if node_id in self._nodes:
            raise NetworkError(f"duplicate intersection id {node_id}")
        node = Intersection(node_id, location)
        self._nodes[node_id] = node
        self._out_edges[node_id] = []
        self._in_edges[node_id] = []
        return node

    def add_segment(
        self,
        road_id: int,
        start_node: int,
        end_node: int,
        road_class: str = "local",
        length_m: float | None = None,
        free_flow_kmh: float | None = None,
        lanes: int = 2,
        name: str = "",
    ) -> RoadSegment:
        """Register a directed segment from ``start_node`` to ``end_node``.

        ``length_m`` defaults to the straight-line distance between the
        endpoints; ``free_flow_kmh`` defaults to the class default.
        """
        if road_id in self._segments:
            raise NetworkError(f"duplicate road id {road_id}")
        if start_node not in self._nodes:
            raise NetworkError(f"road {road_id}: unknown start node {start_node}")
        if end_node not in self._nodes:
            raise NetworkError(f"road {road_id}: unknown end node {end_node}")
        if start_node == end_node:
            raise NetworkError(f"road {road_id}: self-loop at node {start_node}")
        if length_m is None:
            length_m = self._nodes[start_node].location.distance_to(
                self._nodes[end_node].location
            )
        if free_flow_kmh is None:
            free_flow_kmh = FREE_FLOW_KMH.get(road_class, 30.0)
        segment = RoadSegment(
            road_id=road_id,
            start_node=start_node,
            end_node=end_node,
            length_m=length_m,
            road_class=road_class,
            free_flow_kmh=free_flow_kmh,
            lanes=lanes,
            name=name,
        )
        self._segments[road_id] = segment
        self._out_edges[start_node].append(road_id)
        self._in_edges[end_node].append(road_id)
        return segment

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_intersections(self) -> int:
        return len(self._nodes)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def intersection(self, node_id: int) -> Intersection:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown intersection id {node_id}") from None

    def segment(self, road_id: int) -> RoadSegment:
        try:
            return self._segments[road_id]
        except KeyError:
            raise NetworkError(f"unknown road id {road_id}") from None

    def has_segment(self, road_id: int) -> bool:
        return road_id in self._segments

    def intersections(self) -> Iterator[Intersection]:
        return iter(self._nodes.values())

    def segments(self) -> Iterator[RoadSegment]:
        return iter(self._segments.values())

    def road_ids(self) -> list[int]:
        """All road ids in ascending order (stable across runs)."""
        return sorted(self._segments)

    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def outgoing(self, node_id: int) -> list[RoadSegment]:
        """Segments leaving ``node_id``."""
        return [self._segments[r] for r in self._out_edges[node_id]]

    def incoming(self, node_id: int) -> list[RoadSegment]:
        """Segments arriving at ``node_id``."""
        return [self._segments[r] for r in self._in_edges[node_id]]

    def segment_endpoints(self, road_id: int) -> tuple[Point, Point]:
        """``(start, end)`` locations of a segment."""
        seg = self.segment(road_id)
        return (
            self._nodes[seg.start_node].location,
            self._nodes[seg.end_node].location,
        )

    def segment_midpoint(self, road_id: int) -> Point:
        start, end = self.segment_endpoints(road_id)
        return start.midpoint(end)

    def bounding_box(self, margin: float = 0.0) -> BoundingBox:
        if not self._nodes:
            raise NetworkError("network has no intersections")
        return BoundingBox.around(
            (n.location for n in self._nodes.values()), margin=margin
        )

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def adjacent_roads(self, road_id: int) -> list[int]:
        """Road ids sharing an endpoint with ``road_id`` (excluding itself
        and its own reverse-direction twin between the same node pair)."""
        seg = self.segment(road_id)
        neighbours: set[int] = set()
        for node in (seg.start_node, seg.end_node):
            for other_id in self._out_edges[node]:
                neighbours.add(other_id)
            for other_id in self._in_edges[node]:
                neighbours.add(other_id)
        neighbours.discard(road_id)
        # Drop the opposite-direction twin of the same physical street.
        neighbours = {
            n
            for n in neighbours
            if not (
                self._segments[n].start_node == seg.end_node
                and self._segments[n].end_node == seg.start_node
            )
        }
        return sorted(neighbours)

    def roads_within_hops(self, road_id: int, max_hops: int) -> dict[int, int]:
        """BFS over road adjacency: road id -> hop distance (<= max_hops).

        Hop distance 0 is the road itself; 1 its adjacent roads, etc.
        """
        distances = {road_id: 0}
        frontier = [road_id]
        for hop in range(1, max_hops + 1):
            next_frontier: list[int] = []
            for current in frontier:
                for neighbour in self.adjacent_roads(current):
                    if neighbour not in distances:
                        distances[neighbour] = hop
                        next_frontier.append(neighbour)
            frontier = next_frontier
            if not frontier:
                break
        return distances

    def shortest_path(
        self, origin_node: int, destination_node: int
    ) -> list[int] | None:
        """Dijkstra over free-flow travel time; returns road ids or None.

        The returned list is the sequence of road segments traversed from
        ``origin_node`` to ``destination_node``; an empty list when origin
        equals destination; ``None`` when no path exists.
        """
        import heapq

        if origin_node not in self._nodes:
            raise NetworkError(f"unknown origin node {origin_node}")
        if destination_node not in self._nodes:
            raise NetworkError(f"unknown destination node {destination_node}")
        if origin_node == destination_node:
            return []

        best: dict[int, float] = {origin_node: 0.0}
        via: dict[int, int] = {}  # node -> road segment used to reach it
        heap: list[tuple[float, int]] = [(0.0, origin_node)]
        while heap:
            cost, node = heapq.heappop(heap)
            if node == destination_node:
                break
            if cost > best.get(node, float("inf")):
                continue
            for road_id in self._out_edges[node]:
                seg = self._segments[road_id]
                new_cost = cost + seg.free_flow_travel_time_s
                if new_cost < best.get(seg.end_node, float("inf")):
                    best[seg.end_node] = new_cost
                    via[seg.end_node] = road_id
                    heapq.heappush(heap, (new_cost, seg.end_node))

        if destination_node not in via:
            return None
        path: list[int] = []
        node = destination_node
        while node != origin_node:
            road_id = via[node]
            path.append(road_id)
            node = self._segments[road_id].start_node
        path.reverse()
        return path

    def total_length_km(self) -> float:
        """Sum of all segment lengths, in kilometres."""
        return sum(s.length_m for s in self._segments.values()) / 1000.0

    def class_counts(self) -> dict[str, int]:
        """Number of segments per road class."""
        counts: dict[str, int] = {}
        for seg in self._segments.values():
            counts[seg.road_class] = counts.get(seg.road_class, 0) + 1
        return counts

    def validate(self) -> None:
        """Raise :class:`NetworkError` if the network is inconsistent.

        Checks referential integrity and that no intersection is fully
        isolated (generators should never produce one).
        """
        for seg in self._segments.values():
            if seg.start_node not in self._nodes or seg.end_node not in self._nodes:
                raise NetworkError(f"road {seg.road_id} references missing node")
        for node_id in self._nodes:
            if not self._out_edges[node_id] and not self._in_edges[node_id]:
                raise NetworkError(f"intersection {node_id} is isolated")

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"RoadNetwork(name={self.name!r}, intersections={self.num_intersections}, "
            f"segments={self.num_segments})"
        )
