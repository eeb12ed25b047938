"""Unit tests for the probe-data substrate: trips, traces, matching, extraction."""

import numpy as np
import pytest

from repro.core.errors import DataError
from repro.gps.map_matching import HmmMatcher
from repro.gps.speed_extraction import (
    ProbeSample,
    ProbeSpeedTable,
    aggregate_samples,
    extract_probe_speeds,
    extract_samples,
)
from repro.gps.traces import GpsPoint, GpsTrace, TraceGenerator
from repro.gps.trips import TripPlan, generate_trips, sample_departure_hour
from repro.history.timebuckets import TimeGrid
from repro.roadnet.geometry import Point
from repro.traffic.simulator import TrafficSimulator
from tests.oracles.map_matching import NearestMatcher


@pytest.fixture(scope="module")
def probe_world(small_network):
    grid = TimeGrid(15)
    sim = TrafficSimulator(small_network, grid)
    field, _ = sim.simulate(0, 1, seed=5)
    trips = generate_trips(small_network, 30, day=0, seed=11)
    generator = TraceGenerator(small_network, field, grid, sample_interval_s=20.0)
    traces = generator.emit_all(trips, seed=13)
    return small_network, grid, field, trips, generator, traces


class TestTrips:
    def test_count_and_determinism(self, small_network):
        a = generate_trips(small_network, 10, day=0, seed=3)
        b = generate_trips(small_network, 10, day=0, seed=3)
        assert len(a) == 10
        assert [t.route for t in a] == [t.route for t in b]

    def test_routes_are_connected(self, probe_world):
        net, _, _, trips, _, _ = probe_world
        for trip in trips:
            node = trip.origin_node
            for road in trip.route:
                seg = net.segment(road)
                assert seg.start_node == node
                node = seg.end_node
            assert node == trip.destination_node

    def test_departures_on_requested_day(self, small_network):
        trips = generate_trips(small_network, 15, day=2, seed=1)
        for trip in trips:
            assert 2 * 86400 <= trip.departure_s < 3 * 86400

    def test_min_route_length(self, small_network):
        trips = generate_trips(small_network, 10, day=0, seed=1, min_route_roads=4)
        assert all(len(t.route) >= 4 for t in trips)

    def test_validation(self, small_network):
        with pytest.raises(DataError):
            generate_trips(small_network, 0, day=0, seed=1)
        with pytest.raises(DataError):
            generate_trips(small_network, 5, day=-1, seed=1)
        with pytest.raises(DataError):
            TripPlan(0, 0, 1, departure_s=0.0, route=())

    def test_departure_hour_distribution(self):
        rng = np.random.default_rng(0)
        hours = [sample_departure_hour(rng) for _ in range(3000)]
        assert all(0 <= h < 24 for h in hours)
        rush = sum(1 for h in hours if 7 <= h < 9)
        night = sum(1 for h in hours if 2 <= h < 4)
        assert rush > 3 * night


class TestTraces:
    def test_timestamps_increase(self, probe_world):
        *_, traces = probe_world
        for trace in traces:
            times = [p.timestamp_s for p in trace.points]
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_sampling_interval(self, probe_world):
        *_, traces = probe_world
        trace = max(traces, key=lambda t: len(t.points))
        gaps = [
            b.timestamp_s - a.timestamp_s
            for a, b in zip(trace.points, trace.points[1:])
        ]
        assert all(g == pytest.approx(20.0) for g in gaps)

    def test_noise_bounded(self, small_network):
        """With zero noise, every fix lies exactly on the route."""
        grid = TimeGrid(15)
        field, _ = TrafficSimulator(small_network, grid).simulate(0, 1, seed=5)
        trips = generate_trips(small_network, 5, day=0, seed=2)
        clean = TraceGenerator(
            small_network, field, grid, noise_std_m=0.0
        )
        for trip in trips:
            trace = clean.emit(trip, np.random.default_rng(1))
            for point in trace.points:
                best = min(
                    point.location.distance_to(
                        small_network.segment_midpoint(r)
                    )
                    for r in trip.route
                )
                # Fix lies on one of the route's segments (within half a block).
                assert best < 400

    def test_drive_times_respect_speeds(self, probe_world):
        net, grid, field, trips, generator, _ = probe_world
        trip = trips[0]
        visits, arrival = generator.drive(trip)
        assert arrival > trip.departure_s
        assert [v.road_id for v in visits] == list(trip.route)
        for visit in visits:
            assert visit.exit_s > visit.enter_s

    def test_monotonic_trace_validation(self):
        with pytest.raises(DataError):
            GpsTrace(0, (GpsPoint(0, 10.0, Point(0, 0)), GpsPoint(0, 10.0, Point(1, 1))))

    def test_generator_validation(self, probe_world):
        net, grid, field, *_ = probe_world
        with pytest.raises(DataError):
            TraceGenerator(net, field, grid, sample_interval_s=0)
        with pytest.raises(DataError):
            TraceGenerator(net, field, grid, noise_std_m=-1)


class TestMapMatching:
    def test_nearest_matches_most_points(self, probe_world):
        net, *_, traces = probe_world
        matcher = NearestMatcher(net)
        rates = [matcher.match(t).match_rate for t in traces]
        assert np.mean(rates) > 0.95

    def test_hmm_matches_most_points(self, probe_world):
        net, *_, traces = probe_world
        matcher = HmmMatcher(net)
        rates = [matcher.match(t).match_rate for t in traces]
        assert np.mean(rates) > 0.95

    def test_hmm_at_least_as_consistent_as_nearest(self, probe_world):
        """HMM should produce no more road switches than nearest matching."""
        net, *_, traces = probe_world

        def switches(matched):
            roads = [p.road_id for p in matched.points if p.road_id is not None]
            return sum(1 for a, b in zip(roads, roads[1:]) if a != b)

        nearest = NearestMatcher(net)
        hmm = HmmMatcher(net)
        total_nearest = sum(switches(nearest.match(t)) for t in traces)
        total_hmm = sum(switches(hmm.match(t)) for t in traces)
        assert total_hmm <= total_nearest

    def test_hmm_recovers_true_route_roads(self, small_network):
        """With zero GPS noise the HMM recovers route roads (or twins)."""
        grid = TimeGrid(15)
        field, _ = TrafficSimulator(small_network, grid).simulate(0, 1, seed=5)
        trips = generate_trips(small_network, 5, day=0, seed=8)
        generator = TraceGenerator(small_network, field, grid, noise_std_m=0.0)
        matcher = HmmMatcher(small_network)
        for trip in trips:
            trace = generator.emit(trip, np.random.default_rng(2))
            matched = matcher.match(trace)
            allowed = set()
            for road in trip.route:
                allowed.add(road)
                seg = small_network.segment(road)
                for twin in small_network.outgoing(seg.end_node):
                    if twin.end_node == seg.start_node:
                        allowed.add(twin.road_id)
            hits = [
                p.road_id in allowed
                for p in matched.points
                if p.road_id is not None
            ]
            assert np.mean(hits) > 0.85

    def test_unmatchable_points_are_none(self, probe_world):
        net, *_ = probe_world
        matcher = NearestMatcher(net, search_radius_m=50.0)
        lost = GpsTrace(
            0,
            (
                GpsPoint(0, 0.0, Point(-9999, -9999)),
                GpsPoint(0, 30.0, Point(-9999, -9950)),
            ),
        )
        matched = matcher.match(lost)
        assert matched.match_rate == 0.0


class TestSpeedExtraction:
    def test_extracted_speeds_near_truth(self, probe_world):
        net, grid, field, _, _, traces = probe_world
        matcher = HmmMatcher(net)
        matched = [matcher.match(t) for t in traces]
        table = extract_probe_speeds(net, matched, grid)
        assert table.num_entries > 0
        errors = []
        for (road, interval), speed in table.items():
            if interval in field.intervals:
                errors.append(abs(speed - field.speed(road, interval)))
        # Probe speeds track ground truth to within a few km/h on average.
        assert np.mean(errors) < 8.0

    def test_coverage_is_sparse(self, probe_world):
        net, grid, field, _, _, traces = probe_world
        matcher = NearestMatcher(net)
        table = extract_probe_speeds(net, [matcher.match(t) for t in traces], grid)
        assert 0.0 < table.coverage(net.num_segments, field.intervals) < 0.2

    def test_implausible_speeds_dropped(self, small_network, grid15):
        from repro.gps.map_matching import MatchedPoint, MatchedTrace

        # Two fixes on the same road implying 400 km/h.
        trace = MatchedTrace(
            0,
            (
                MatchedPoint(0.0, 0, 5.0, 0.0),
                MatchedPoint(10.0, 0, 5.0, 1.0),  # 400m in 10s on a 400m road
            ),
        )
        # 400m in 10s = 144 km/h -> above default 150? No: 144 < 150, kept.
        samples = extract_samples(small_network, trace, grid15)
        assert len(samples) == 1
        samples = extract_samples(
            small_network, trace, grid15, max_speed_kmh=100.0
        )
        assert samples == []

    def test_aggregation_trims_outliers(self):
        samples = [ProbeSample(1, 0, 30.0)] * 8 + [ProbeSample(1, 0, 90.0)]
        table = aggregate_samples(samples, trim_fraction=0.2)
        assert table.speed(1, 0) == pytest.approx(30.0)
        assert table.count(1, 0) == 9

    def test_aggregation_validation(self):
        with pytest.raises(DataError):
            aggregate_samples([], trim_fraction=0.6)

    def test_table_queries(self):
        table = ProbeSpeedTable({(1, 0): 30.0, (2, 0): 40.0, (1, 1): 35.0},
                                {(1, 0): 3, (2, 0): 1, (1, 1): 2})
        assert table.observed_roads(0) == [1, 2]
        assert table.speed(9, 9) is None
        assert table.count(1, 0) == 3
        with pytest.raises(DataError):
            table.coverage(0, range(0, 10))

    def test_table_key_mismatch_rejected(self):
        with pytest.raises(DataError):
            ProbeSpeedTable({(1, 0): 30.0}, {})
