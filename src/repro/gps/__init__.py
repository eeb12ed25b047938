"""Probe-vehicle substrate: trips, GPS traces, map matching, speed extraction."""

from repro.gps.map_matching import HmmMatcher, MatchedPoint, MatchedTrace
from repro.gps.speed_extraction import (
    ProbeSample,
    ProbeSpeedTable,
    aggregate_samples,
    extract_probe_speeds,
    extract_samples,
)
from repro.gps.traces import GpsPoint, GpsTrace, RoadVisit, TraceGenerator
from repro.gps.trips import TripPlan, generate_trips, sample_departure_hour

__all__ = [
    "GpsPoint",
    "GpsTrace",
    "HmmMatcher",
    "MatchedPoint",
    "MatchedTrace",
    "ProbeSample",
    "ProbeSpeedTable",
    "RoadVisit",
    "TraceGenerator",
    "TripPlan",
    "aggregate_samples",
    "extract_probe_speeds",
    "extract_samples",
    "generate_trips",
    "sample_departure_hour",
]
