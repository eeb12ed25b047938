"""Unit tests for synthetic city generators."""

import pytest

from repro.roadnet.generators import (
    grid_city,
    metropolitan_city,
    ring_radial_city,
    sized_grid,
    sized_metropolis,
)


class TestGridCity:
    def test_node_and_segment_counts(self):
        net = grid_city(4, 5)
        assert net.num_intersections == 20
        # Undirected streets: 4*(5-1) horizontal + 5*(4-1) vertical = 31.
        assert net.num_segments == 2 * 31

    def test_two_way_pairing(self):
        net = grid_city(3, 3)
        for seg in net.segments():
            twins = [
                other
                for other in net.outgoing(seg.end_node)
                if other.end_node == seg.start_node
            ]
            assert len(twins) == 1, f"road {seg.road_id} lacks a reverse twin"

    def test_arterial_hierarchy(self):
        net = grid_city(9, 9, arterial_every=4)
        counts = net.class_counts()
        assert counts["arterial"] > 0
        assert counts["local"] > counts["arterial"]

    def test_all_arterials_when_every_1(self):
        net = grid_city(3, 3, arterial_every=1)
        assert net.class_counts() == {"arterial": net.num_segments}

    def test_block_size_sets_lengths(self):
        net = grid_city(3, 3, block_m=250.0)
        assert all(s.length_m == pytest.approx(250.0) for s in net.segments())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            grid_city(1, 5)
        with pytest.raises(ValueError):
            grid_city(3, 3, arterial_every=0)

    def test_deterministic(self):
        a, b = grid_city(5, 5), grid_city(5, 5)
        assert a.road_ids() == b.road_ids()
        assert [s.road_class for s in a.segments()] == [
            s.road_class for s in b.segments()
        ]


class TestRingRadialCity:
    def test_counts(self):
        net = ring_radial_city(rings=3, spokes=8)
        assert net.num_intersections == 1 + 3 * 8
        # Ring streets: 3*8; radial streets: 8*3 (centre link + 2 between rings).
        assert net.num_segments == 2 * (3 * 8 + 8 * 3)

    def test_validation(self):
        ring_radial_city(rings=2, spokes=6).validate()

    def test_ring_roads_are_arterials(self):
        net = ring_radial_city(rings=2, spokes=6)
        ring_segments = [s for s in net.segments() if s.name.startswith("Ring")]
        assert ring_segments
        assert all(s.road_class == "arterial" for s in ring_segments)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ring_radial_city(rings=0)
        with pytest.raises(ValueError):
            ring_radial_city(spokes=2)

    def test_connected(self):
        net = ring_radial_city(rings=3, spokes=8)
        # Every node reachable from the centre.
        reachable = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for seg in net.outgoing(node):
                if seg.end_node not in reachable:
                    reachable.add(seg.end_node)
                    frontier.append(seg.end_node)
        assert reachable == set(net.node_ids())


class TestSizedGrid:
    @pytest.mark.parametrize("target", [50, 200, 500, 1000])
    def test_meets_target(self, target):
        net = sized_grid(target)
        assert net.num_segments >= target
        # Not wildly oversized: next grid step is bounded.
        assert net.num_segments <= target * 2 + 40

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sized_grid(4)


class TestMetropolitanCity:
    def test_small_metro_counts(self):
        # 2x2 districts of 4x4 grids: 4 * (2 * 2 * (4*3)) = 192 local
        # segments plus the stitch arterials between adjacent districts.
        net = metropolitan_city(
            districts_x=2, districts_y=2, district_rows=4, district_cols=4
        )
        assert net.num_intersections == 4 * 16
        per_district = 2 * 2 * (4 * 3)
        assert net.num_segments > 4 * per_district
        stitches = net.num_segments - 4 * per_district
        assert stitches % 2 == 0  # stitch links are two-way pairs

    def test_single_connected_component(self):
        net = metropolitan_city(
            districts_x=3, districts_y=2, district_rows=4, district_cols=4
        )
        # Undirected BFS over shared intersections must reach every road.
        roads = net.road_ids()
        seen = {roads[0]}
        frontier = [roads[0]]
        while frontier:
            road = frontier.pop()
            seg = net.segment(road)
            for node in (seg.start_node, seg.end_node):
                for nxt in net.outgoing(node) + net.incoming(node):
                    if nxt.road_id not in seen:
                        seen.add(nxt.road_id)
                        frontier.append(nxt.road_id)
        assert len(seen) == len(roads)

    def test_stitch_arterials_present_and_named(self):
        net = metropolitan_city(
            districts_x=2, districts_y=2, district_rows=4, district_cols=4
        )
        stitch_names = {
            s.name for s in net.segments() if s.name.startswith("Stitch-")
        }
        assert any(name.startswith("Stitch-E-") for name in stitch_names)
        assert any(name.startswith("Stitch-N-") for name in stitch_names)
        assert all(
            s.road_class == "arterial"
            for s in net.segments()
            if s.name.startswith("Stitch-")
        )

    def test_deterministic(self):
        kwargs = dict(districts_x=2, districts_y=3, district_rows=4, district_cols=5)
        a, b = metropolitan_city(**kwargs), metropolitan_city(**kwargs)
        assert a.road_ids() == b.road_ids()
        assert [s.name for s in a.segments()] == [s.name for s in b.segments()]

    def test_validation(self):
        with pytest.raises(ValueError):
            metropolitan_city(districts_x=0)
        with pytest.raises(ValueError):
            metropolitan_city(district_rows=1)


class TestSizedMetropolis:
    @pytest.mark.parametrize("target", [528, 2000, 5000])
    def test_meets_target(self, target):
        net = sized_metropolis(target)
        assert net.num_segments >= target

    def test_scales_past_100k_roads(self):
        """The XL cold-round benchmark's scale: 100k+ roads, validated."""
        net = sized_metropolis(110_000)
        assert net.num_segments >= 110_000
        net.validate()
        # The super-grid stays near-square so cross-district stitches
        # (and the partitioner's BFS frontiers) don't degenerate.
        assert net.num_segments < 130_000

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sized_metropolis(100)
