"""Unit tests for the uniform-grid spatial index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NetworkError
from repro.roadnet.geometry import Point, project_onto_segment
from repro.roadnet.generators import grid_city
from repro.roadnet.network import RoadNetwork
from repro.roadnet.spatial_index import SpatialIndex


@pytest.fixture(scope="module")
def indexed_grid():
    net = grid_city(6, 6, block_m=400.0)
    return net, SpatialIndex(net, cell_size_m=200.0)


class TestConstruction:
    def test_rejects_bad_cell_size(self, small_network):
        with pytest.raises(ValueError):
            SpatialIndex(small_network, cell_size_m=0)

    def test_rejects_empty_network(self):
        net = RoadNetwork()
        net.add_intersection(0, Point(0, 0))
        with pytest.raises(NetworkError):
            SpatialIndex(net)

    def test_has_cells(self, indexed_grid):
        _, index = indexed_grid
        assert index.num_cells > 0
        assert index.cell_size_m == 200.0


class TestQueries:
    def test_nearest_on_segment(self, indexed_grid):
        net, index = indexed_grid
        # A point sitting right on a known segment's midpoint.
        road = net.road_ids()[0]
        mid = net.segment_midpoint(road)
        match = index.nearest_segment(mid, radius_m=50)
        assert match is not None
        assert match.distance_m == pytest.approx(0.0, abs=1e-9)

    def test_nearest_respects_radius(self, indexed_grid):
        _, index = indexed_grid
        far_away = Point(1e5, 1e5)
        assert index.nearest_segment(far_away, radius_m=100) is None

    def test_negative_radius_rejected(self, indexed_grid):
        _, index = indexed_grid
        with pytest.raises(ValueError):
            index.candidates_near(Point(0, 0), -1)

    def test_results_sorted_by_distance(self, indexed_grid):
        _, index = indexed_grid
        matches = index.nearest_segments(Point(210, 190), radius_m=400, limit=8)
        distances = [m.distance_m for m in matches]
        assert distances == sorted(distances)

    def test_limit_respected(self, indexed_grid):
        _, index = indexed_grid
        matches = index.nearest_segments(Point(200, 200), radius_m=600, limit=3)
        assert len(matches) <= 3

    def test_candidates_superset_of_matches(self, indexed_grid):
        _, index = indexed_grid
        point = Point(350, 410)
        candidates = set(index.candidates_near(point, 300))
        matches = index.nearest_segments(point, 300, limit=100)
        assert {m.road_id for m in matches} <= candidates

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-100, max_value=2100),
        st.floats(min_value=-100, max_value=2100),
    )
    def test_matches_brute_force(self, x, y):
        """Index result equals exhaustive nearest-segment search."""
        net = grid_city(6, 6, block_m=400.0)
        index = SpatialIndex(net, cell_size_m=200.0)
        point = Point(x, y)
        match = index.nearest_segment(point, radius_m=250)
        brute = min(
            (
                point.distance_to(
                    project_onto_segment(point, *net.segment_endpoints(r))[0]
                )
                for r in net.road_ids()
            ),
        )
        if brute <= 250:
            assert match is not None
            assert match.distance_m == pytest.approx(brute, abs=1e-6)
        else:
            assert match is None
