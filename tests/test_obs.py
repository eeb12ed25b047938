"""Tests for repro.obs: registry, spans, recorder, exporters, report."""

import json

import pytest

from repro.core.errors import ConfigError, DataError
from repro.obs import (
    DEFAULT_BUCKETS,
    FlightRecorder,
    MetricsRegistry,
    NullRecorder,
    SpanTracer,
    aggregate_spans,
    configure_from_env,
    get_recorder,
    load_events,
    recording,
    render_report,
    set_recorder,
    to_json,
    to_prometheus_text,
    verify_recording,
)
from repro.obs.recorder import OBS_ENV_VAR
from repro.obs.report import summarize_rounds


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(2.5)
        assert reg.counter("a.b").value == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("a").inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc(0.5)
        assert gauge.value == 3.5

    def test_labeled_series_are_isolated(self):
        reg = MetricsRegistry()
        reg.counter("crowd.tasks", status="answered").inc(7)
        reg.counter("crowd.tasks", status="dropped").inc(2)
        assert reg.counter("crowd.tasks", status="answered").value == 7
        assert reg.counter("crowd.tasks", status="dropped").value == 2
        # Label order must not matter for series identity.
        reg.counter("x", a="1", b="2").inc()
        assert reg.counter("x", b="2", a="1").value == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ConfigError, match="counter"):
            reg.gauge("m")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigError, match="buckets"):
            reg.histogram("h", buckets=(1.0, 3.0))
        # Re-registering without explicit buckets reuses the family's.
        assert reg.histogram("h").bounds == (1.0, 2.0)

    def test_invalid_metric_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("9starts.with.digit")

    def test_histogram_bucket_edges(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, 2.0, 5.0))
        # An observation exactly on a bound lands in that bound's bucket
        # (Prometheus "le" semantics: bucket counts values <= bound).
        for value in (0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 5.1):
            hist.observe(value)
        assert hist.bucket_counts == [2, 2, 2, 1]
        assert hist.cumulative_counts() == [2, 4, 6, 7]
        assert hist.count == 7
        assert hist.sum == pytest.approx(20.0)
        assert hist.mean == pytest.approx(20.0 / 7)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", buckets=())
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0))

    def test_default_buckets_used_when_unspecified(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").bounds == DEFAULT_BUCKETS

    def test_scalar_totals_key_format(self):
        reg = MetricsRegistry()
        reg.counter("plain").inc(3)
        reg.counter("tagged", b="2", a="1").inc(4)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        totals = reg.scalar_totals()
        assert totals["plain"] == 3
        assert totals["tagged{a=1,b=2}"] == 4  # canonical label order
        assert totals["lat"] == 1  # histograms report their count

    def test_snapshot_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc()
        reg.gauge("g").set(2)
        reg.histogram("h", buckets=(1.0,)).observe(3.0)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["series"][0]["labels"] == {"k": "v"}
        assert snap["h"]["series"][0]["buckets"]["+Inf"] == 1


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nested_span_parentage(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            assert tracer.depth == 1
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                with tracer.span("leaf") as leaf:
                    assert leaf.parent_id == inner.span_id
        assert outer.parent_id is None
        finished = tracer.drain()
        assert [s.name for s in finished] == ["leaf", "inner", "outer"]
        assert all(s.duration_s is not None for s in finished)
        assert tracer.depth == 0

    def test_span_attrs_and_set(self):
        tracer = SpanTracer()
        with tracer.span("work", roads=10) as span:
            span.set(iterations=3)
        event = tracer.drain()[0].to_event()
        assert event["type"] == "span"
        assert event["attrs"] == {"roads": 10, "iterations": 3}
        assert event["dur_s"] >= 0

    def test_exception_unwinding_marks_error(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        span = tracer.drain()[0]
        assert span.attrs["error"] is True
        assert tracer.depth == 0

    def test_finished_buffer_is_bounded(self):
        tracer = SpanTracer(max_finished=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.drain()) == 4
        assert tracer.total_finished == 10

    def test_aggregate_spans(self):
        tracer = SpanTracer()
        for _ in range(3):
            with tracer.span("stage.a"):
                pass
        with tracer.span("stage.b"):
            pass
        stages = aggregate_spans(tracer.drain())
        assert stages["stage.a"]["count"] == 3
        assert stages["stage.b"]["count"] == 1
        assert stages["stage.a"]["max_s"] <= stages["stage.a"]["total_s"]


# ----------------------------------------------------------------------
# Recorders
# ----------------------------------------------------------------------
class TestNullRecorder:
    def test_every_hook_is_a_noop(self):
        rec = NullRecorder()
        rec.count("a", 2, label="x")
        rec.gauge("b", 1.5)
        rec.observe("c", 0.1, buckets=(1.0,), label="y")
        rec.event("anything", detail=1)
        rec.round_begin(5)
        rec.round_end(5, answered=3)
        with rec.span("s", k="v") as span:
            span.set(more="attrs")
        assert rec.enabled is False
        # The same span sentinel is reused — no per-call allocation.
        assert rec.span("a") is rec.span("b")

    def test_default_recorder_is_null(self):
        assert isinstance(get_recorder(), NullRecorder)


class TestFlightRecorder:
    def test_metric_hooks_feed_registry(self):
        rec = FlightRecorder()
        rec.count("c", 2, kind="x")
        rec.gauge("g", 7)
        rec.observe("h", 0.5)
        assert rec.registry.counter("c", kind="x").value == 2
        assert rec.registry.gauge("g").value == 7
        assert rec.registry.histogram("h").count == 1

    def test_span_records_histogram(self):
        rec = FlightRecorder()
        with rec.span("trend.infer"):
            pass
        hist = rec.registry.histogram("span.seconds", span="trend.infer")
        assert hist.count == 1

    def test_round_snapshot_drains_spans(self):
        rec = FlightRecorder()
        rec.round_begin(10)
        with rec.span("crowd.round"):
            pass
        rec.count("crowd.answers", 5)
        rec.round_end(10, answered=5, degraded=False)
        (snapshot,) = rec.rounds
        assert snapshot["round"] == 0
        assert snapshot["interval"] == 10
        assert snapshot["wall_s"] > 0
        assert snapshot["stages"]["crowd.round"]["count"] == 1
        assert snapshot["counters"]["crowd.answers"] == 5
        assert snapshot["fields"]["answered"] == 5
        # The next round's drain must not see this round's spans again.
        rec.round_end(11)
        assert rec.rounds[1]["stages"] == {}

    def test_ring_is_bounded(self):
        rec = FlightRecorder(ring_size=2)
        for i in range(5):
            rec.round_end(i)
        assert [r["round"] for r in rec.rounds] == [3, 4]

    def test_rejects_bad_ring_size(self):
        with pytest.raises(ValueError):
            FlightRecorder(ring_size=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=path) as rec:
            rec.round_begin(42)
            with rec.span("speed.solve", roads=9):
                pass
            rec.event("note", detail="hello")
            rec.round_end(42, answered=1)
        events = load_events(path)
        types = [e["type"] for e in events]
        assert types == ["meta", "span", "event", "round"]
        assert events[0]["version"] == 1
        assert events[1]["name"] == "speed.solve"
        assert events[1]["attrs"] == {"roads": 9}
        assert events[3]["interval"] == 42
        # Re-opening appends rather than truncating the black box.
        with FlightRecorder(path=path) as rec:
            rec.round_end(43)
        assert len(load_events(path)) == len(events) + 2

    def test_recording_scope_restores_previous(self):
        before = get_recorder()
        with recording() as rec:
            assert get_recorder() is rec
            assert isinstance(rec, FlightRecorder)
        assert get_recorder() is before

    def test_set_recorder_returns_previous(self):
        previous = set_recorder(NullRecorder())
        try:
            assert isinstance(previous, NullRecorder)
        finally:
            set_recorder(previous)

    def test_configure_from_env(self, tmp_path):
        path = tmp_path / "env.jsonl"
        previous = get_recorder()
        try:
            rec = configure_from_env({OBS_ENV_VAR: str(path)})
            assert isinstance(rec, FlightRecorder)
            assert get_recorder() is rec
            rec.close()
            assert load_events(path)[0]["type"] == "meta"
        finally:
            set_recorder(previous)
        assert configure_from_env({}) is None
        assert configure_from_env({OBS_ENV_VAR: "  "}) is None


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("crowd.tasks", status="answered").inc(3)
        reg.gauge("crowd.quarantined_workers").set(2)
        reg.histogram("solve.seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = to_prometheus_text(reg)
        assert "# TYPE crowd_tasks counter" in text
        assert 'crowd_tasks{status="answered"} 3' in text
        assert "crowd_quarantined_workers 2" in text
        assert 'solve_seconds_bucket{le="0.1"} 0' in text
        assert 'solve_seconds_bucket{le="1"} 1' in text
        assert 'solve_seconds_bucket{le="+Inf"} 1' in text
        assert "solve_seconds_sum 0.5" in text
        assert "solve_seconds_count 1" in text

    def test_json_export_parses(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        doc = json.loads(to_json(reg))
        assert doc["a"]["series"][0]["value"] == 1


class TestPrometheusConformance:
    """Exposition-format details real scrapers trip over."""

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("m", path='a\\b"c\nd').inc()
        text = to_prometheus_text(reg)
        assert 'path="a\\\\b\\"c\\nd"' in text
        # The escaped line is still a single line.
        (line,) = [l for l in text.splitlines() if l.startswith("m{")]
        assert line.endswith(" 1")

    def test_histogram_inf_bucket_equals_count(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat.seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        lines = to_prometheus_text(reg).splitlines()
        buckets = {}
        for line in lines:
            if line.startswith("lat_seconds_bucket"):
                le = line.split('le="')[1].split('"')[0]
                buckets[le] = float(line.rsplit(" ", 1)[1])
        count = next(
            float(l.rsplit(" ", 1)[1])
            for l in lines
            if l.startswith("lat_seconds_count")
        )
        assert buckets["+Inf"] == count == 3
        # Buckets are cumulative and non-decreasing in bound order.
        assert buckets["0.1"] <= buckets["1"] <= buckets["+Inf"]
        assert any(l.startswith("lat_seconds_sum") for l in lines)

    def test_every_family_gets_one_type_line(self):
        reg = MetricsRegistry()
        reg.counter("c", a="1").inc()
        reg.counter("c", a="2").inc()
        text = to_prometheus_text(reg)
        assert text.count("# TYPE c counter") == 1


# ----------------------------------------------------------------------
# Report / verify
# ----------------------------------------------------------------------
def _write_lines(path, lines):
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))


class TestReport:
    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            load_events(tmp_path / "nope.jsonl")

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_events(path)

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(DataError, match="bad.jsonl:2"):
            load_events(path)

    def test_load_rejects_untyped_event(self, tmp_path):
        path = tmp_path / "untyped.jsonl"
        path.write_text('{"no_type": 1}\n')
        with pytest.raises(DataError, match="'type'"):
            load_events(path)

    def test_verify_requires_spans_or_rounds(self, tmp_path):
        path = tmp_path / "meta_only.jsonl"
        _write_lines(path, [{"type": "meta", "version": 1}])
        with pytest.raises(DataError, match="no span or round"):
            verify_recording(path)

    def test_verify_summarises(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        with FlightRecorder(path=path) as rec:
            with rec.span("x"):
                pass
            rec.round_end(0)
        summary = verify_recording(path)
        assert "1 round" in summary and "1 span" in summary

    def test_summarize_rounds_computes_deltas(self):
        events = [
            {
                "type": "round",
                "round": 0,
                "interval": 10,
                "wall_s": 0.1,
                "stages": {},
                "counters": {
                    "crowd.tasks{status=answered}": 5,
                    "crowd.tasks{status=no_response}": 1,
                    "crowd.breaker.trips": 0,
                },
                "fields": {},
            },
            {
                "type": "round",
                "round": 1,
                "interval": 11,
                "wall_s": 0.1,
                "stages": {},
                "counters": {
                    "crowd.tasks{status=answered}": 8,
                    "crowd.tasks{status=no_response}": 4,
                    "crowd.breaker.trips": 1,
                    "pipeline.substitutions{reason=stale}": 2,
                },
                "fields": {"degraded": True},
            },
        ]
        rows = summarize_rounds(events)
        assert rows[0]["tasks_answered"] == 5
        assert rows[1]["tasks_answered"] == 3  # delta, not cumulative
        assert rows[1]["tasks_failed"] == 3
        assert rows[1]["breaker_trips"] == 1
        assert rows[1]["substitutions"] == 2
        assert rows[1]["degraded"] is True

    def test_summarize_rounds_resets_deltas_at_each_run(self):
        def round_event(index, answered):
            return {
                "type": "round", "round": index, "interval": index,
                "wall_s": 0.1, "stages": {}, "fields": {},
                "counters": {"crowd.tasks{status=answered}": answered},
            }

        events = [
            {"type": "meta", "version": 1},
            round_event(0, 5),
            round_event(1, 10),
            # A second run appended to the same log restarts its counters.
            {"type": "meta", "version": 1},
            round_event(0, 5),
            round_event(1, 10),
        ]
        rows = summarize_rounds(events)
        assert [row["tasks_answered"] for row in rows] == [5, 5, 5, 5]

    def test_render_report_round_table(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=path) as rec:
            for i in range(2):
                rec.round_begin(20 + i)
                with rec.span("crowd.round"):
                    pass
                with rec.span("trend.infer"):
                    pass
                rec.count("crowd.tasks", 4, status="answered")
                rec.round_end(20 + i, degraded=bool(i))
        text = render_report(load_events(path))
        assert "crowd ms" in text and "trend ms" in text
        assert "2 rounds, 1 degraded" in text
        assert "8 answered" in text

    def test_round_table_times_the_plan_solve(self, tmp_path):
        """Step 2 is timed from the compiled-plan span, the only one."""
        path = tmp_path / "run.jsonl"
        with FlightRecorder(path=path) as rec:
            rec.round_begin(7)
            with rec.span("speed.solve_vectorized"):
                pass
            rec.round_end(7)
        lines = render_report(load_events(path)).splitlines()
        header = next(i for i, line in enumerate(lines) if "solve ms" in line)
        column = lines[header].index("solve ms")
        assert lines[header + 2][column:].split()[0] != "-"

    def test_render_report_span_only_fallback(self):
        events = [
            {"type": "span", "name": "trend.bp", "dur_s": 0.01},
            {"type": "span", "name": "trend.bp", "dur_s": 0.02},
        ]
        text = render_report(events)
        assert "trend.bp" in text and "no rounds" in text

    def test_render_report_rejects_useless_recording(self):
        with pytest.raises(DataError):
            render_report([{"type": "meta"}])


class TestVerifyEventSchemas:
    """``obs verify`` enforces the structured-event contract."""

    def _valid_trace_fields(self):
        return {
            "trace_id": 1, "rung": "fresh", "statuses": {"fresh": 2},
            "roads": 2, "latency_s": 0.001, "snapshot_version": 0,
            "age_s": 0.0, "breaker_open": False, "sampled": "interval",
        }

    def test_known_kinds_with_all_fields_pass(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        with FlightRecorder(path=path) as rec:
            rec.event("read_trace", **self._valid_trace_fields())
            rec.event(
                "slo_alert", slo="read-availability", previous="ok",
                state="page", burn_fast=50.0, burn_slow=12.0, target=0.99,
            )
            rec.round_end(0)
        assert "1 round" in verify_recording(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "unknown.jsonl"
        with FlightRecorder(path=path) as rec:
            rec.event("mystery_kind", detail=1)
            rec.round_end(0)
        with pytest.raises(DataError, match="unknown kind 'mystery_kind'"):
            verify_recording(path)

    def test_missing_required_field_rejected(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        fields = self._valid_trace_fields()
        fields.pop("rung")
        with FlightRecorder(path=path) as rec:
            rec.event("read_trace", **fields)
            rec.round_end(0)
        with pytest.raises(DataError, match=r"missing required fields \['rung'\]"):
            verify_recording(path)

    def test_event_without_kind_rejected(self, tmp_path):
        path = tmp_path / "kindless.jsonl"
        _write_lines(
            path,
            [
                {"type": "event", "ts": 0.0},
                {"type": "round", "round": 0},
            ],
        )
        with pytest.raises(DataError, match="no 'kind'"):
            verify_recording(path)

    def test_every_src_emitter_is_registered(self):
        """Any event() kind the instrumentation emits must have a schema,
        or obs verify would reject its own recordings."""
        from repro.obs.report import EVENT_SCHEMAS

        for kind in (
            "read_trace", "slo_alert", "publish_rejected",
            "round_not_published", "snapshot_corrupt",
            "snapshot_corruption_injected",
        ):
            assert kind in EVENT_SCHEMAS

    def test_recorder_events_property_filters_ring(self):
        rec = FlightRecorder()
        rec.event("read_trace", **self._valid_trace_fields())
        rec.round_end(0)
        (event,) = rec.events
        assert event["kind"] == "read_trace"


# ----------------------------------------------------------------------
# Serving write-path spans
# ----------------------------------------------------------------------
WRITE_PATH_SPANS = (
    "speed.uncertainty.bands",
    "serving.snapshot.build",
    "serving.snapshot.save",
    "serving.store.verify",
)


class TestWritePathSpans:
    def _publisher(self, small_dataset, tmp_path):
        from repro.core.clock import ManualClock
        from repro.core.pipeline import SpeedEstimationSystem
        from repro.serving import EstimateStore, SnapshotPublisher, default_watchdog
        from repro.speed.uncertainty import UncertaintyModel

        system = SpeedEstimationSystem.from_parts(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        system.select_seeds(8)
        clock = ManualClock()
        store = EstimateStore(
            history=small_dataset.store, network=small_dataset.network, clock=clock
        )
        return SnapshotPublisher(
            system,
            store,
            UncertaintyModel(system.estimator, small_dataset.store),
            watchdog=default_watchdog(900.0, clock=clock),
            clock=clock,
            snapshot_dir=tmp_path,
        )

    def test_round_span_tree_accounts_for_write_path(self, small_dataset, tmp_path):
        from pathlib import Path

        from repro.crowd.platform import CrowdsourcingPlatform
        from repro.crowd.workers import WorkerPool, WorkerPoolParams

        publisher = self._publisher(small_dataset, tmp_path)
        platform = CrowdsourcingPlatform(
            WorkerPool.sample(60, WorkerPoolParams(noise_std_frac=0.1), seed=7),
            workers_per_task=3,
        )
        interval = small_dataset.test_day_intervals()[0]
        with recording(FlightRecorder()) as rec:
            report = publisher.publish_round(interval, small_dataset.test, platform)
        assert report.published
        spans = rec.tracer.drain()
        by_id = {span.span_id: span for span in spans}
        (root,) = [s for s in spans if s.name == "serving.publish_round"]
        assert root.parent_id is None
        assert root.attrs == {
            "round": 0, "interval": interval, "outcome": "published"
        }

        def under_root(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
            return span is root

        # Every span the round emitted hangs off its root span.
        assert all(under_root(span) for span in spans)
        write_path = {}
        for name in WRITE_PATH_SPANS:
            (span,) = [s for s in spans if s.name == name]
            write_path[name] = span
        assert write_path["speed.uncertainty.bands"].attrs["roads"] == (
            small_dataset.network.num_segments
        )
        build = write_path["serving.snapshot.build"].attrs
        save = write_path["serving.snapshot.save"].attrs
        assert build["roads"] == report.num_roads
        assert (build["format"], build["columns"]) == (3, 10)
        # The file is the built header and columns plus the magic and
        # checksum line and the header's line break.
        assert save["bytes"] == Path(report.persisted_path).stat().st_size
        assert save["bytes"] - build["bytes"] == len(b"REPRO-SNAPSHOT 3 \n\n") + 64
        # Snapshot build, save and verify run directly under the round;
        # its direct children never claim more time than the round took.
        for name in WRITE_PATH_SPANS[1:]:
            assert write_path[name].parent_id == root.span_id
        children = [s for s in spans if s.parent_id == root.span_id]
        assert sum(s.duration_s for s in children) <= root.duration_s


class TestMiningSpan:
    def test_batch_mining_reports_roads_and_edges(self, small_dataset):
        from repro.history.correlation import mine_correlation_graph

        with recording(FlightRecorder()) as rec:
            graph = mine_correlation_graph(small_dataset.network, small_dataset.store)
        (span,) = [s for s in rec.tracer.drain() if s.name == "history.correlation.mine"]
        assert span.attrs == {
            "roads": len(small_dataset.store.road_ids),
            "edges": graph.num_edges,
        }
        assert graph.num_edges > 0
