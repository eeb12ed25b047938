"""Unit tests for the road-network graph."""

import pytest

from repro.core.errors import NetworkError
from repro.roadnet.geometry import Point
from repro.roadnet.network import (
    FREE_FLOW_KMH,
    RoadNetwork,
    RoadSegment,
)


@pytest.fixture
def two_way_street() -> RoadNetwork:
    """Two intersections joined by a two-way street plus a side road."""
    net = RoadNetwork(name="t")
    net.add_intersection(0, Point(0, 0))
    net.add_intersection(1, Point(100, 0))
    net.add_intersection(2, Point(100, 100))
    net.add_segment(10, 0, 1, road_class="arterial")
    net.add_segment(11, 1, 0, road_class="arterial")
    net.add_segment(12, 1, 2, road_class="local")
    return net


class TestConstruction:
    def test_counts(self, two_way_street):
        assert two_way_street.num_intersections == 3
        assert two_way_street.num_segments == 3

    def test_default_length_is_euclidean(self, two_way_street):
        assert two_way_street.segment(10).length_m == pytest.approx(100.0)

    def test_default_free_flow_by_class(self, two_way_street):
        assert two_way_street.segment(10).free_flow_kmh == FREE_FLOW_KMH["arterial"]
        assert two_way_street.segment(12).free_flow_kmh == FREE_FLOW_KMH["local"]

    def test_duplicate_intersection_rejected(self, two_way_street):
        with pytest.raises(NetworkError, match="duplicate intersection"):
            two_way_street.add_intersection(0, Point(1, 1))

    def test_duplicate_road_rejected(self, two_way_street):
        with pytest.raises(NetworkError, match="duplicate road"):
            two_way_street.add_segment(10, 0, 2)

    def test_unknown_endpoint_rejected(self, two_way_street):
        with pytest.raises(NetworkError, match="unknown"):
            two_way_street.add_segment(99, 0, 42)

    def test_self_loop_rejected(self, two_way_street):
        with pytest.raises(NetworkError, match="self-loop"):
            two_way_street.add_segment(99, 1, 1)

    def test_unknown_class_rejected(self, two_way_street):
        with pytest.raises(NetworkError, match="unknown road class"):
            two_way_street.add_segment(99, 0, 2, road_class="cart-track")

    def test_segment_validation(self):
        with pytest.raises(NetworkError, match="non-positive length"):
            RoadSegment(1, 0, 1, length_m=0.0, road_class="local", free_flow_kmh=30)
        with pytest.raises(NetworkError, match="lanes"):
            RoadSegment(1, 0, 1, length_m=10, road_class="local",
                        free_flow_kmh=30, lanes=0)


class TestAccessors:
    def test_unknown_lookups_raise(self, two_way_street):
        with pytest.raises(NetworkError):
            two_way_street.segment(999)
        with pytest.raises(NetworkError):
            two_way_street.intersection(999)

    def test_road_ids_sorted(self, two_way_street):
        assert two_way_street.road_ids() == [10, 11, 12]

    def test_outgoing_incoming(self, two_way_street):
        assert [s.road_id for s in two_way_street.outgoing(1)] == [11, 12]
        assert [s.road_id for s in two_way_street.incoming(1)] == [10]

    def test_segment_endpoints_and_midpoint(self, two_way_street):
        start, end = two_way_street.segment_endpoints(12)
        assert start == Point(100, 0)
        assert end == Point(100, 100)
        assert two_way_street.segment_midpoint(12) == Point(100, 50)

    def test_travel_time(self, two_way_street):
        seg = two_way_street.segment(10)
        expected = 100.0 / (seg.free_flow_kmh / 3.6)
        assert seg.free_flow_travel_time_s == pytest.approx(expected)

    def test_bounding_box(self, two_way_street):
        box = two_way_street.bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 100, 100)

    def test_total_length(self, two_way_street):
        assert two_way_street.total_length_km() == pytest.approx(0.3)

    def test_class_counts(self, two_way_street):
        assert two_way_street.class_counts() == {"arterial": 2, "local": 1}


class TestTopology:
    def test_adjacent_excludes_self_and_twin(self, two_way_street):
        # Road 10 (0->1): twin 11 excluded, side road 12 included.
        assert two_way_street.adjacent_roads(10) == [12]

    def test_roads_within_hops(self, small_network):
        distances = small_network.roads_within_hops(0, 2)
        assert distances[0] == 0
        assert all(0 <= d <= 2 for d in distances.values())
        one_hop = {r for r, d in distances.items() if d == 1}
        assert one_hop == set(small_network.adjacent_roads(0))

    def test_roads_within_zero_hops(self, small_network):
        assert small_network.roads_within_hops(0, 0) == {0: 0}

    def test_shortest_path_same_node(self, two_way_street):
        assert two_way_street.shortest_path(0, 0) == []

    def test_shortest_path_simple(self, two_way_street):
        assert two_way_street.shortest_path(0, 2) == [10, 12]

    def test_shortest_path_unreachable(self):
        net = RoadNetwork()
        net.add_intersection(0, Point(0, 0))
        net.add_intersection(1, Point(10, 0))
        net.add_intersection(2, Point(20, 0))
        net.add_segment(0, 0, 1)
        net.add_segment(1, 1, 0)
        net.add_segment(2, 2, 1)  # only INTO the pair, never out to 2
        assert net.shortest_path(0, 2) is None

    def test_shortest_path_unknown_node(self, two_way_street):
        with pytest.raises(NetworkError):
            two_way_street.shortest_path(0, 99)

    def test_shortest_path_is_connected_chain(self, small_network):
        path = small_network.shortest_path(0, 35)
        assert path
        node = 0
        for road_id in path:
            seg = small_network.segment(road_id)
            assert seg.start_node == node
            node = seg.end_node
        assert node == 35

    def test_shortest_path_prefers_fast_roads(self):
        # Two routes 0->2: direct local vs two-leg highway; the highway
        # pair is longer in distance but faster in time.
        net = RoadNetwork()
        net.add_intersection(0, Point(0, 0))
        net.add_intersection(1, Point(500, 400))
        net.add_intersection(2, Point(1000, 0))
        net.add_segment(0, 0, 2, road_class="local")  # 1000m @ 30km/h = 120s
        net.add_segment(1, 0, 1, road_class="highway")  # ~640m @ 90 = 25.6s
        net.add_segment(2, 1, 2, road_class="highway")
        assert net.shortest_path(0, 2) == [1, 2]


class TestValidation:
    def test_validate_passes_on_generated(self, small_network):
        small_network.validate()

    def test_validate_catches_isolated(self):
        net = RoadNetwork()
        net.add_intersection(0, Point(0, 0))
        net.add_intersection(1, Point(10, 0))
        net.add_intersection(2, Point(99, 99))
        net.add_segment(0, 0, 1)
        with pytest.raises(NetworkError, match="isolated"):
            net.validate()
