"""Unit tests for the streaming-telemetry modules.

Covers the JSONL event sink (rotation), the Chrome
trace-event exporter (Perfetto-loadable structure), the sampling
profiler (collapsed stacks), and the Prometheus exposition
(render + parse round trip).
"""

import json
import threading
import time

import pytest

from repro.obs import events as events_mod
from repro.obs import metrics as metrics_mod
from repro.obs.events import EventSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler, profile_for
from repro.obs.prometheus import (
    CONTENT_TYPE,
    PrometheusParseError,
    parse_prometheus,
    render_prometheus,
    render_registry,
)
from repro.obs.report import RunReport
from repro.obs.trace_export import (
    chrome_trace,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.tracing import Span


@pytest.fixture(autouse=True)
def telemetry_disabled():
    """Every test starts and ends with the global hooks uninstalled."""
    metrics_mod.disable()
    events_mod.disable_events()
    yield
    metrics_mod.disable()
    events_mod.disable_events()


def read_events(path):
    return [json.loads(line)
            for line in path.read_text().splitlines()]


class TestEventSink:
    def test_emit_writes_jsonl_with_ts_and_type(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path) as sink:
            sink.emit("request", endpoint="predict", status=200)
        assert sink.emitted == 1
        (line,) = read_events(path)
        assert line["type"] == "request"
        assert line["endpoint"] == "predict"
        assert line["status"] == 200
        assert line["ts"] > 0

    def test_rotation_caps_file_size(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path, max_bytes=1024, backups=2) as sink:
            for i in range(40):
                sink.emit("request", payload="x" * 64, i=i)
        assert sink.rotations >= 1
        assert path.stat().st_size <= 1024
        rotated = path.with_name("events.jsonl.1")
        assert rotated.exists()
        # Every generation is still valid JSONL.
        for line in rotated.read_text().splitlines():
            json.loads(line)

    def test_rotation_without_backups_discards(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path, max_bytes=1024, backups=0) as sink:
            for i in range(40):
                sink.emit("request", payload="x" * 64, i=i)
        assert sink.rotations >= 1
        assert not path.with_name("events.jsonl.1").exists()

    @pytest.mark.parametrize("kwargs", [
        {"max_bytes": 1023},
        {"max_bytes": 100},
        {"backups": -1},
    ])
    def test_rejects_bad_configuration(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            EventSink(tmp_path / "e.jsonl", **kwargs)

    def test_module_emit_is_noop_until_enabled(self, tmp_path):
        assert events_mod.emit("request", endpoint="predict") is False
        assert events_mod.active_sink() is None
        sink = events_mod.enable_events(tmp_path / "e.jsonl")
        assert events_mod.events_enabled()
        assert events_mod.active_sink() is sink
        assert events_mod.emit("request", endpoint="predict") is True
        events_mod.disable_events()
        assert not events_mod.events_enabled()
        assert events_mod.emit("request") is False

    def test_module_emit_swallows_io_errors(self, tmp_path):
        class ExplodingSink(EventSink):
            def emit(self, event_type, **fields):
                raise OSError("disk on fire")

        events_mod.enable_events(ExplodingSink(tmp_path / "e.jsonl"))
        assert events_mod.emit("request", endpoint="predict") is False

    def test_non_serializable_fields_are_stringified(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventSink(path) as sink:
            sink.emit("request", path=path)
        (line,) = read_events(path)
        assert line["path"] == str(path)


def make_span_tree():
    """A root with two children, explicit start times and durations."""
    return Span.from_dict({
        "name": "arcs.fit",
        "started_seconds": 100.0,
        "duration_seconds": 1.0,
        "children": [
            {"name": "binning", "started_seconds": 100.1,
             "duration_seconds": 0.2,
             "attributes": {"bins": 20}},
            {"name": "clustering", "started_seconds": 100.5,
             "duration_seconds": 0.4},
        ],
    })


class TestChromeTrace:
    def test_document_structure_is_perfetto_loadable(self):
        doc = chrome_trace(make_span_tree())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        meta = events[0]
        assert meta["ph"] == "M" and meta["name"] == "process_name"
        slices = events[1:]
        assert [e["ph"] for e in slices] == ["X"] * 3
        for e in slices:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["cat"] == "arcs"

    def test_timestamps_relative_to_root_start(self):
        events = chrome_trace_events(make_span_tree())
        by_name = {e["name"]: e for e in events}
        assert by_name["arcs.fit"]["ts"] == 0.0
        assert by_name["binning"]["ts"] == pytest.approx(0.1e6)
        assert by_name["clustering"]["ts"] == pytest.approx(0.5e6)
        assert by_name["binning"]["dur"] == pytest.approx(0.2e6)
        assert by_name["binning"]["args"] == {"bins": 20}

    def test_stacked_fallback_without_start_times(self):
        tree = Span.from_dict({
            "name": "root", "duration_seconds": 1.0,
            "children": [
                {"name": "a", "duration_seconds": 0.25},
                {"name": "b", "duration_seconds": 0.5},
            ],
        })
        events = chrome_trace_events(tree)
        by_name = {e["name"]: e for e in events}
        # Each child starts where its previous sibling ended.
        assert by_name["a"]["ts"] == 0.0
        assert by_name["b"]["ts"] == pytest.approx(0.25e6)

    def test_report_without_span_tree_raises(self):
        report = RunReport(name="arcs.fit", started_at=0.0,
                           duration_seconds=1.0, trace=None)
        with pytest.raises(ValueError, match="no span tree"):
            chrome_trace(report)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        out = tmp_path / "trace.json"
        report = RunReport(name="arcs.fit", started_at=0.0,
                           duration_seconds=1.0,
                           trace=make_span_tree().to_dict())
        write_chrome_trace(out, report)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"][0]["args"]["name"] == "arcs: arcs.fit"
        assert len(doc["traceEvents"]) == 4

    def test_rejects_unexportable_source(self):
        with pytest.raises(TypeError):
            chrome_trace(object())


def _spin_for(seconds):
    """Busy-loop so the profiler has something to catch."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


class TestSamplingProfiler:
    def test_samples_a_busy_main_thread(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            _spin_for(0.3)
        assert profiler.samples > 0
        collapsed = profiler.collapsed()
        assert "_spin_for" in collapsed
        for line in collapsed.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack.split(";")[0]  # thread label leads the stack

    def test_own_sampler_thread_is_excluded(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            _spin_for(0.1)
        assert "arcs-profiler" not in profiler.collapsed()

    def test_start_twice_is_an_error(self):
        profiler = SamplingProfiler(interval=0.01)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_without_start_is_harmless(self):
        SamplingProfiler().stop()

    def test_reset_clears_accumulated_samples(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            _spin_for(0.1)
        assert profiler.samples > 0
        profiler.reset()
        assert profiler.samples == 0
        assert profiler.collapsed() == ""

    def test_records_sample_count_metric(self):
        registry = MetricsRegistry()
        metrics_mod.enable(registry)
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            _spin_for(0.2)
        counters = registry.snapshot()["counters"]
        assert counters["obs.profile_samples"] == profiler.samples > 0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0)

    def test_profile_for_returns_folded_stacks(self):
        spinner = threading.Thread(
            target=_spin_for, args=(0.4,), name="busy-worker"
        )
        spinner.start()
        try:
            collapsed = profile_for(0.3, interval=0.001)
        finally:
            spinner.join()
        assert "busy-worker" in collapsed

    def test_profile_for_rejects_nonpositive_seconds(self):
        with pytest.raises(ValueError):
            profile_for(0)


class TestPrometheusExposition:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(7)
        registry.counter("serve.request_errors",
                         labels={"endpoint": "predict"}).inc(2)
        registry.gauge("serve.models_loaded").set(3)
        histogram = registry.histogram(
            "serve.request_seconds", labels={"endpoint": "predict"},
            buckets=(0.1, 1.0),
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        return registry

    def test_render_and_parse_round_trip(self):
        text = render_prometheus(self.make_registry().snapshot())
        families = parse_prometheus(text)
        counter = families["arcs_serve_requests_total"]
        assert counter["kind"] == "counter"
        assert counter["samples"] == [
            ("arcs_serve_requests_total", {}, "7"),
        ]
        errors = families["arcs_serve_request_errors_total"]
        assert errors["samples"] == [(
            "arcs_serve_request_errors_total",
            {"endpoint": "predict"}, "2",
        )]
        gauge = families["arcs_serve_models_loaded"]
        assert gauge["kind"] == "gauge"

    def test_histogram_expands_to_bucket_sum_count(self):
        text = render_prometheus(self.make_registry().snapshot())
        latency = parse_prometheus(text)["arcs_serve_request_seconds"]
        assert latency["kind"] == "histogram"
        buckets = [s for s in latency["samples"]
                   if s[0].endswith("_bucket")]
        bounds = [s[1]["le"] for s in buckets]
        assert bounds == ["0.1", "1.0", "+Inf"]
        assert [int(s[2]) for s in buckets] == [1, 2, 3]  # cumulative
        assert all(s[1]["endpoint"] == "predict" for s in buckets)
        (count,) = [s for s in latency["samples"]
                    if s[0].endswith("_count")]
        assert count[2] == "3"
        (total,) = [s for s in latency["samples"]
                    if s[0].endswith("_sum")]
        assert float(total[2]) == pytest.approx(5.55)

    def test_help_text_comes_from_the_catalogue(self):
        text = render_prometheus(self.make_registry().snapshot())
        families = parse_prometheus(text)
        assert families["arcs_serve_requests_total"]["help"]
        assert families["arcs_serve_request_seconds"]["help"]

    def test_render_registry_reports_disabled_state(self):
        assert metrics_mod.active() is None
        assert "disabled" in render_registry()

    def test_content_type_is_prometheus_text(self):
        assert CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in CONTENT_TYPE

    @pytest.mark.parametrize("payload", [
        "# TYPE arcs_x flotogram\n",
        "arcs x 1\n",
        "arcs_x not-a-number\n",
        'arcs_x{endpoint=predict} 1\n',
    ])
    def test_parser_rejects_malformed_payloads(self, payload):
        with pytest.raises(PrometheusParseError):
            parse_prometheus(payload)

    def test_drift_gauge_families_round_trip(self):
        registry = MetricsRegistry()
        for attr, value in (("age", 0.31), ("salary", 0.02),
                            ("joint", 0.12)):
            registry.gauge("serve.drift_psi",
                           labels={"attr": attr, "model": "groupA"},
                           ).set(value)
            registry.gauge("serve.drift_js",
                           labels={"attr": attr, "model": "groupA"},
                           ).set(value / 2)
        registry.gauge("serve.coverage_fraction",
                       labels={"model": "groupA"}).set(0.9)
        registry.gauge("serve.out_of_range",
                       labels={"attr": "age", "model": "groupA"},
                       ).set(0.0)
        families = parse_prometheus(
            render_prometheus(registry.snapshot())
        )
        psi = families["arcs_serve_drift_psi"]
        assert psi["kind"] == "gauge"
        by_attr = {
            labels["attr"]: float(value)
            for _, labels, value in psi["samples"]
            if labels["model"] == "groupA"
        }
        assert by_attr == {"age": pytest.approx(0.31),
                           "salary": pytest.approx(0.02),
                           "joint": pytest.approx(0.12)}
        js = families["arcs_serve_drift_js"]
        assert {labels["attr"] for _, labels, _ in js["samples"]} == \
            {"age", "salary", "joint"}
        coverage = families["arcs_serve_coverage_fraction"]
        assert coverage["samples"] == [(
            "arcs_serve_coverage_fraction", {"model": "groupA"}, "0.9",
        )]
        out_of_range = families["arcs_serve_out_of_range"]
        assert out_of_range["kind"] == "gauge"
        assert float(out_of_range["samples"][0][2]) == 0.0
        # Descriptions come straight from the catalogue.
        assert "Population Stability Index" in psi["help"]

    def test_run_report_to_prometheus(self):
        report = RunReport(
            name="arcs.fit", started_at=0.0, duration_seconds=1.0,
            metrics=self.make_registry().snapshot(),
        )
        families = parse_prometheus(render_prometheus(report.metrics))
        assert "arcs_serve_request_seconds" in families
