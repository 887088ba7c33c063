"""Unit and integration tests for the observability layer (repro.obs)."""

import json
import threading

import pytest

import repro
from repro import obs
from repro.obs import metrics as metrics_mod
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    RunCapture,
    RunReport,
    config_fingerprint,
)
from repro.obs.tracing import NOOP_SPAN, Span, trace


@pytest.fixture(autouse=True)
def obs_disabled():
    """Every test starts and ends with observability fully off."""
    obs.disable()
    yield
    obs.disable()


class TestSpan:
    def test_nesting_builds_a_tree(self):
        with Span("root") as root:
            with trace("outer") as outer:
                with trace("inner"):
                    pass
                with trace("inner"):
                    pass
        assert [c.name for c in root.children] == ["outer"]
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert root.duration is not None and root.duration >= 0.0
        for _, span in root.walk():
            assert span.duration is not None

    def test_walk_is_preorder_with_depths(self):
        with Span("a") as a:
            with trace("b"):
                with trace("c"):
                    pass
            with trace("d"):
                pass
        visited = [(depth, span.name) for depth, span in a.walk()]
        assert visited == [(0, "a"), (1, "b"), (2, "c"), (1, "d")]

    def test_find_locates_descendants(self):
        with Span("root") as root:
            with trace("stage"):
                with trace("leaf"):
                    pass
        assert root.find("leaf").name == "leaf"
        assert root.find("missing") is None

    def test_exception_recorded_and_propagated(self):
        with pytest.raises(ValueError):
            with Span("root") as root:
                with trace("failing"):
                    raise ValueError("boom")
        failing = root.find("failing")
        assert failing.attributes["error"] == "ValueError"
        assert failing.duration is not None
        # The context variable is restored: new traces are no-ops again.
        assert trace("after") is NOOP_SPAN

    def test_attributes_and_set_chaining(self):
        with Span("root") as root:
            span = trace("stage", size=3)
            with span:
                span.set("found", 7).set("kept", 5)
        stage = root.find("stage")
        assert stage.attributes == {"size": 3, "found": 7, "kept": 5}

    def test_self_seconds_excludes_children(self):
        root = Span("root")
        root.duration = 1.0
        child = Span("child")
        child.duration = 0.4
        root.children.append(child)
        assert root.self_seconds == pytest.approx(0.6)

    def test_round_trip_through_dict(self):
        with Span("root") as root:
            with trace("stage", cells=9):
                pass
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "root"
        assert rebuilt.duration == pytest.approx(root.duration)
        assert rebuilt.children[0].attributes == {"cells": 9}

    def test_threads_trace_independently(self):
        seen = {}

        def worker():
            # A fresh thread has no current span: trace() is inert.
            seen["span"] = trace("in-thread")

        with Span("root") as root:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["span"] is NOOP_SPAN
        assert root.children == []


class TestTraceDisabled:
    def test_trace_without_root_is_the_noop_singleton(self):
        assert trace("anything") is NOOP_SPAN
        assert trace("other", key=1) is NOOP_SPAN

    def test_noop_span_accepts_the_full_api(self):
        with trace("stage") as span:
            assert span.set("key", "value") is span
        assert tracing.current_span() is None


class TestMetrics:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        assert registry.counter("hits").value == 5
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("occupancy", 0.25)
        registry.set_gauge("occupancy", 0.75)
        assert registry.gauge("occupancy").value == 0.75

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (2.0, 4.0, 6.0):
            registry.observe("seconds", value)
        histogram = registry.histogram("seconds")
        assert histogram.count == 3
        assert histogram.total == pytest.approx(12.0)
        assert histogram.minimum == 2.0
        assert histogram.maximum == 6.0
        assert histogram.mean == pytest.approx(4.0)

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("count", 2)
        registry.set_gauge("level", 0.5)
        registry.observe("seconds", 1.0)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["counters"] == {"count": 2}
        assert snapshot["gauges"] == {"level": 0.5}
        assert snapshot["histograms"]["seconds"]["count"] == 1

    def test_merge_combines_instruments(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("count", 2)
        b.inc("count", 3)
        a.observe("seconds", 1.0)
        b.observe("seconds", 5.0)
        b.set_gauge("level", 0.9)
        a.merge(b)
        assert a.counter("count").value == 5
        assert a.gauge("level").value == 0.9
        histogram = a.histogram("seconds")
        assert histogram.count == 2
        assert histogram.minimum == 1.0
        assert histogram.maximum == 5.0

    def test_disabled_emitters_are_noops(self):
        assert not metrics_mod.enabled()
        metrics_mod.inc("ignored")
        metrics_mod.set_gauge("ignored", 1.0)
        metrics_mod.observe("ignored", 1.0)
        assert metrics_mod.active() is None

    def test_enable_installs_registry(self):
        registry = metrics_mod.enable()
        metrics_mod.inc("hits", 2)
        assert registry.counter("hits").value == 2
        metrics_mod.disable()
        metrics_mod.inc("hits")
        assert registry.counter("hits").value == 2


class TestLabeledAndBucketedMetrics:
    def test_series_key_round_trip(self):
        key = metrics_mod.series_key(
            "serve.request_seconds", {"endpoint": "predict", "code": "200"}
        )
        assert key == ('serve.request_seconds'
                       '{code="200",endpoint="predict"}')
        name, labels = metrics_mod.parse_series_key(key)
        assert name == "serve.request_seconds"
        assert labels == {"endpoint": "predict", "code": "200"}

    def test_unlabeled_key_is_the_bare_name(self):
        assert metrics_mod.series_key("hits", None) == "hits"
        assert metrics_mod.parse_series_key("hits") == ("hits", {})

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.inc("requests", labels={"endpoint": "a"})
        registry.inc("requests", 2, labels={"endpoint": "b"})
        registry.inc("requests")
        assert registry.counter(
            "requests", labels={"endpoint": "a"}).value == 1
        assert registry.counter(
            "requests", labels={"endpoint": "b"}).value == 2
        assert registry.counter("requests").value == 1

    def test_histogram_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        for value in (0.004, 0.02, 0.02, 0.09, 0.4, 3.0):
            registry.observe("seconds", value)
        summary = registry.histogram("seconds").summary()
        bounds = [bound for bound, _ in summary["buckets"]]
        assert bounds[-1] == "+Inf"
        cumulative = [count for _, count in summary["buckets"]]
        assert cumulative == sorted(cumulative)  # cumulative
        assert cumulative[-1] == summary["count"] == 6
        assert summary["min"] <= summary["p50"] <= summary["p95"]
        assert summary["p95"] <= summary["p99"] <= summary["max"]

    def test_quantiles_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        registry.observe("seconds", 0.3)
        summary = registry.histogram("seconds").summary()
        assert summary["p50"] == pytest.approx(0.3)
        assert summary["p99"] == pytest.approx(0.3)

    def test_merge_combines_labeled_series_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("seconds", 0.01, labels={"endpoint": "x"})
        b.observe("seconds", 0.5, labels={"endpoint": "x"})
        b.observe("seconds", 0.2, labels={"endpoint": "y"})
        b.inc("requests", 3, labels={"endpoint": "x"})
        a.merge(b)
        merged = a.histogram("seconds", labels={"endpoint": "x"})
        assert merged.count == 2
        assert merged.minimum == 0.01 and merged.maximum == 0.5
        # Bucket counts merged positionally and stay cumulative-correct.
        assert sum(merged.bucket_counts) == 2
        assert a.histogram("seconds", labels={"endpoint": "y"}).count == 1
        assert a.counter("requests", labels={"endpoint": "x"}).value == 3

    def test_merge_snapshot_round_trip(self):
        worker = MetricsRegistry()
        worker.inc("items", 4, labels={"shard": "0"})
        worker.observe("seconds", 0.25)
        parent = MetricsRegistry()
        parent.inc("items", 1, labels={"shard": "0"})
        parent.merge_snapshot(json.loads(json.dumps(worker.snapshot())))
        assert parent.counter("items", labels={"shard": "0"}).value == 5
        assert parent.histogram("seconds").count == 1

    def test_merge_rejects_mismatched_bucket_bounds(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("seconds", buckets=(0.1, 1.0)).observe(0.05)
        b.histogram("seconds", buckets=(0.2, 2.0)).observe(0.05)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_reset_clears_every_series(self):
        registry = MetricsRegistry()
        registry.inc("hits", labels={"endpoint": "a"})
        registry.set_gauge("level", 0.5)
        registry.observe("seconds", 1.0, labels={"endpoint": "a"})
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "gauges": {},
                            "histograms": {}}

    def test_snapshot_keys_are_flat_series_keys(self):
        registry = MetricsRegistry()
        registry.observe("seconds", 0.1, labels={"endpoint": "a"})
        registry.observe("seconds", 0.2)
        snapshot = registry.snapshot()
        assert set(snapshot["histograms"]) == {
            "seconds", 'seconds{endpoint="a"}'
        }
        json.dumps(snapshot)  # stays JSON-ready

    def test_module_emitters_accept_labels(self):
        registry = metrics_mod.enable()
        try:
            metrics_mod.inc("hits", labels={"endpoint": "a"})
            metrics_mod.observe("seconds", 0.1, labels={"endpoint": "a"})
            metrics_mod.set_gauge("level", 1.0, labels={"endpoint": "a"})
        finally:
            metrics_mod.disable()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {'hits{endpoint="a"}': 1}
        assert snapshot["gauges"] == {'level{endpoint="a"}': 1.0}
        assert list(snapshot["histograms"]) == ['seconds{endpoint="a"}']


class TestHistogramEdgeCases:
    def test_empty_histogram(self):
        histogram = MetricsRegistry().histogram("seconds")
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["total"] == 0.0
        assert summary["min"] is None and summary["max"] is None
        assert summary["mean"] == 0.0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0
        # Cumulative buckets exist (all zero) so exposition still works.
        assert [count for _, count in summary["buckets"]] == \
            [0] * len(summary["buckets"])

    def test_single_observation_pins_every_quantile(self):
        histogram = MetricsRegistry().histogram("seconds")
        histogram.observe(0.42)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["min"] == summary["max"] == 0.42
        for quantile in ("p50", "p95", "p99"):
            assert summary[quantile] == pytest.approx(0.42)
        assert histogram.quantile(0.0) == pytest.approx(0.42)
        assert histogram.quantile(1.0) == pytest.approx(0.42)

    def test_all_values_in_one_bucket_interpolate_within_range(self):
        histogram = MetricsRegistry().histogram(
            "seconds", buckets=(1.0, 10.0, 100.0)
        )
        for value in (4.0, 5.0, 6.0):  # all land in (1.0, 10.0]
            histogram.observe(value)
        assert histogram.bucket_counts == [0, 3, 0, 0]
        # Interpolation is clamped to the observed min/max, not the
        # bucket bounds, so estimates cannot leave [4, 6].
        for q in (0.01, 0.5, 0.95, 0.99):
            assert 4.0 <= histogram.quantile(q) <= 6.0
        assert histogram.quantile(0.5) == pytest.approx(5.0, abs=1.0)

    def test_observation_on_a_bucket_boundary_is_inclusive(self):
        histogram = MetricsRegistry().histogram(
            "seconds", buckets=(1.0, 2.0)
        )
        histogram.observe(1.0)  # value <= bound: first bucket
        histogram.observe(2.5)  # beyond every bound: +Inf bucket
        assert histogram.bucket_counts == [1, 0, 1]
        cumulative = histogram.cumulative_buckets()
        assert cumulative[-1] == (float("inf"), 2)

    def test_quantile_rejects_out_of_range(self):
        histogram = MetricsRegistry().histogram("seconds")
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("seconds", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("seconds", buckets=(1.0, 1.0))


class TestRunReport:
    def _sample_report(self):
        obs.enable()
        with RunCapture("sample", config={"bins": 50}) as capture:
            metrics_mod.inc("stage.items", 3)
            with trace("stage"):
                pass
        return capture.report

    def test_json_round_trip(self):
        report = self._sample_report()
        rebuilt = RunReport.from_json(report.to_json())
        assert rebuilt.name == "sample"
        assert rebuilt.counters() == {"stage.items": 3}
        assert rebuilt.config["sha256"] == report.config["sha256"]
        assert rebuilt.span_tree().find("stage") is not None

    def test_write_and_read(self, tmp_path):
        report = self._sample_report()
        path = tmp_path / "report.json"
        report.write(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "arcs-run-report"
        rebuilt = RunReport.read(path)
        assert rebuilt.duration_seconds == pytest.approx(
            report.duration_seconds
        )

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            RunReport.from_dict({"format": "something-else"})

    def test_summary_names_spans_and_counters(self):
        report = self._sample_report()
        summary = report.summary()
        assert "sample" in summary
        assert "stage" in summary
        assert "stage.items" in summary

    def test_config_fingerprint_is_deterministic(self):
        first = config_fingerprint({"b": 2, "a": 1})
        second = config_fingerprint({"a": 1, "b": 2})
        assert first["sha256"] == second["sha256"]
        assert first["values"] == {"a": 1, "b": 2}
        different = config_fingerprint({"a": 1, "b": 3})
        assert different["sha256"] != first["sha256"]


class TestRunCapture:
    def test_disabled_capture_produces_no_report(self):
        with RunCapture("run") as capture:
            with trace("stage"):
                pass
        assert capture.report is None

    def test_nested_capture_degrades_to_child_span(self):
        obs.enable()
        with RunCapture("outer") as outer:
            with RunCapture("inner") as inner:
                with trace("leaf"):
                    pass
        assert inner.report is None
        root = outer.report.span_tree()
        assert root.find("inner") is not None
        assert root.find("leaf") is not None

    def test_metrics_merge_back_into_process_totals(self):
        process = metrics_mod.enable()
        tracing.enable()
        metrics_mod.inc("hits", 1)
        with RunCapture("run"):
            metrics_mod.inc("hits", 5)
        # The run's report isolates its own count ...
        # ... and the process registry keeps the running total.
        assert process.counter("hits").value == 6

    def test_exception_still_produces_a_report(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with RunCapture("run") as capture:
                raise RuntimeError("boom")
        assert capture.report is not None
        assert capture.report.span_tree().attributes["error"] == (
            "RuntimeError"
        )


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def table(self):
        return repro.generate_synthetic(
            repro.SyntheticConfig(n_tuples=3000, function_id=2,
                                  perturbation=0.05, seed=11)
        )

    def _small_arcs(self):
        return repro.ARCS(repro.ARCSConfig(
            n_bins_x=20, n_bins_y=20,
            optimizer=repro.OptimizerConfig(
                max_support_levels=4, max_confidence_levels=3,
            ),
        ))

    def test_fit_attaches_a_complete_report(self, table):
        obs.enable()
        result = self._small_arcs().fit(
            table, "age", "salary", "group", "A"
        )
        report = result.run_report
        assert report is not None
        root = report.span_tree()
        for stage in ("bin", "optimizer.search", "optimizer.trial",
                      "cluster", "mine", "smooth", "bitop", "merge",
                      "prune", "verify"):
            assert root.find(stage) is not None, stage
        counters = report.counters()
        for name in ("binner.tuples_binned", "engine.cells_qualified",
                     "bitop.rectangles_enumerated", "optimizer.trials",
                     "verifier.samples_drawn", "smoothing.cells_flipped",
                     "pruning.clusters_dropped"):
            assert name in counters, name
        assert counters["binner.tuples_binned"] == len(table)
        assert counters["optimizer.trials"] == len(result.history)
        best = next(index for index, trial in enumerate(result.history)
                    if trial is result.best_trial)
        after_best = len(result.history) - 1 - best
        assert counters["optimizer.trials_after_best"] == after_best
        search = root.find("optimizer.search")
        assert search.attributes["trials_after_best"] == after_best
        assert "binner.occupancy_fraction" in report.gauges()

    def test_fit_without_obs_attaches_nothing(self, table):
        result = self._small_arcs().fit(
            table, "age", "salary", "group", "A"
        )
        assert result.run_report is None

    def test_standalone_optimizer_search_gets_its_own_report(self, table):
        from repro.binning.binner import bin_table
        from repro.core.clusterer import GridClusterer
        from repro.core.optimizer import (
            HeuristicOptimizer,
            OptimizerConfig,
        )
        from repro.core.verifier import Verifier

        obs.enable()
        binner = bin_table(table, "age", "salary", "group", 20, 20)
        rhs_code = binner.rhs_encoding.code_of("A")
        optimizer = HeuristicOptimizer(
            clusterer=GridClusterer(),
            verifier=Verifier(table, "group", "A",
                              sample_size=500, repeats=2),
            weights=repro.MDLWeights(),
            config=OptimizerConfig(max_support_levels=3,
                                   max_confidence_levels=3),
        )
        search = optimizer.search(binner.bin_array, rhs_code)
        assert search.run_report is not None
        assert search.run_report.name == "optimizer.search"
        counters = search.run_report.counters()
        assert counters["optimizer.trials"] >= 1
        # Search wasted after the winning trial shows in the report.
        assert counters["optimizer.trials_after_best"] == (
            search.trials_after_best
        )
        assert search.run_report.span_tree().attributes[
            "trials_after_best"
        ] == search.trials_after_best


class TestServeIntegration:
    def test_scoring_records_serve_metrics_in_run_report(self):
        import numpy as np

        from repro.core.rules import ClusteredRule, Interval
        from repro.core.segmentation import Segmentation
        from repro.serve.scorer import compile_scorer

        segmentation = Segmentation.from_rules([
            ClusteredRule(
                "age", "salary",
                Interval(20, 40), Interval(50_000, 100_000),
                "group", "A", support=0.1, confidence=0.9,
            )
        ])
        obs.enable()
        with RunCapture("cli.score") as capture:
            scorer = compile_scorer(segmentation)
            scorer.score_batch(
                np.array([25.0, 5.0, 30.0]),
                np.array([60_000.0, 60_000.0, 70_000.0]),
            )
        counters = capture.report.counters()
        assert counters["serve.tuples_scored"] == 3
        histograms = capture.report.metrics.get("histograms", {})
        assert histograms["serve.batch_size"]["count"] == 1
        assert "serve.compile_seconds" in histograms
        # The whole report survives a JSON round trip (--metrics-out).
        rebuilt = RunReport.from_json(capture.report.to_json())
        assert rebuilt.counters()["serve.tuples_scored"] == 3
