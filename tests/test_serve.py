"""Unit and integration tests for the serving subsystem (repro.serve)."""

import io
import json
import logging
import re
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler
from email.utils import parsedate_to_datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import BinLayout
from repro.core.rules import ClusteredRule, Interval
from repro.core.segmentation import Segmentation
from repro.perf.reference import (
    js_divergence_scalar,
    psi_scalar,
    score_batch_scalar,
)
from repro.persistence import save_segmentation, segmentation_reference
from repro.serve import (
    ModelRegistry,
    PredictionService,
    ServiceError,
    TrafficMonitors,
    compile_scorer,
    create_server,
)
from repro.serve.scorer import ScoringError
from repro.serve.service import (
    MAX_BODY_BYTES,
    REQUEST_ID_HEADER,
    PredictionHandler,
)

#: What ``json.loads`` makes of a 400-digit integer literal: beyond float64.
HUGE_INT = int("9" * 400)


def make_rule(x_lo, x_hi, y_lo, y_hi, *, x_closed=False, y_closed=False,
              rhs="A"):
    return ClusteredRule(
        "age", "salary",
        Interval(x_lo, x_hi, closed_high=x_closed),
        Interval(y_lo, y_hi, closed_high=y_closed),
        "group", rhs, support=0.1, confidence=0.9,
    )


@pytest.fixture()
def segmentation():
    return Segmentation.from_rules([
        make_rule(20, 40, 50_000, 100_000, y_closed=True),
        make_rule(60, 80, 25_000, 75_000, x_closed=True),
        make_rule(30, 70, 60_000, 80_000),  # overlaps the first rule
    ])


@pytest.fixture()
def model_dir(tmp_path, segmentation):
    directory = tmp_path / "models"
    directory.mkdir()
    save_segmentation(segmentation, directory / "groupA.json")
    return directory


# ----------------------------------------------------------------------
# Compiled scorer
# ----------------------------------------------------------------------
class TestCompiledScorer:
    def test_matches_scalar_reference_on_random_points(self, segmentation):
        rng = np.random.default_rng(17)
        xs = rng.uniform(0, 100, 4000)
        ys = rng.uniform(0, 160_000, 4000)
        scorer = compile_scorer(segmentation)
        assert np.array_equal(
            scorer.score_batch(xs, ys),
            score_batch_scalar(segmentation, xs, ys),
        )

    def test_closedness_at_boundaries(self, segmentation):
        scorer = compile_scorer(segmentation)
        # x = 40 leaves [20, 40) but sits inside the overlapping rule.
        assert scorer.score(39.999, 60_000) == 0
        assert scorer.score(40.0, 70_000) == 2
        # y = 100_000 is inside [50_000, 100_000] (closed above).
        assert scorer.score(25, 100_000.0) == 0
        assert scorer.score(25, 100_000.1) == -1
        # x = 80 is inside [60, 80] (closed above); just beyond is out.
        assert scorer.score(80.0, 50_000) == 1
        assert scorer.score(80.001, 50_000) == -1

    def test_first_matching_rule_wins_on_overlap(self, segmentation):
        # (35, 70_000) lies in rules 0 and 2; segmentation order decides.
        assert compile_scorer(segmentation).score(35, 70_000) == 0

    def test_membership_agrees_with_segmentation_covers(self, segmentation):
        rng = np.random.default_rng(23)
        xs = rng.uniform(0, 100, 1500)
        ys = rng.uniform(0, 160_000, 1500)
        scorer = compile_scorer(segmentation)
        assert np.array_equal(
            scorer.in_segment(xs, ys), segmentation.covers(xs, ys)
        )

    def test_explain_returns_the_fired_rule(self, segmentation):
        scorer = compile_scorer(segmentation)
        rule = scorer.explain(65, 50_000)
        assert rule == segmentation.rules[1]
        assert scorer.explain(5, 5_000) is None

    def test_empty_segmentation_scores_nothing(self):
        empty = Segmentation(
            rules=(), x_attribute="age", y_attribute="salary",
            rhs_attribute="group", rhs_value="A",
        )
        scorer = compile_scorer(empty)
        out = scorer.score_batch(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(out, [-1, -1])

    def test_rejects_nan(self, segmentation):
        scorer = compile_scorer(segmentation)
        with pytest.raises(ValueError, match="age"):
            scorer.score_batch(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(ValueError, match="salary"):
            scorer.score_batch(np.array([1.0]), np.array([np.nan]))

    @pytest.mark.parametrize("x, y", [
        (np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan),
    ])
    def test_one_point_rejects_nan_as_the_batch_does(self, segmentation,
                                                     x, y):
        scorer = compile_scorer(segmentation)
        with pytest.raises(ScoringError) as batch:
            scorer.score_batch(np.array([x]), np.array([y]))
        with pytest.raises(ScoringError) as one:
            scorer.score(x, y)
        assert str(one.value) == str(batch.value)

    def test_rejects_mismatched_batches(self, segmentation):
        scorer = compile_scorer(segmentation)
        with pytest.raises(ValueError, match="differ"):
            scorer.score_batch(np.zeros(3), np.zeros(4))

    def test_table_is_immutable(self, segmentation):
        scorer = compile_scorer(segmentation)
        with pytest.raises(ValueError):
            scorer.table[0, 0] = 5


# ----------------------------------------------------------------------
# Model registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_loads_and_resolves_by_name_and_id(self, model_dir):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        assert len(registry) == 1
        model = registry.resolve("groupA")
        assert registry.resolve(model.model_id) is model
        assert "groupA" in registry
        assert model.metadata["library_version"]

    def test_model_id_is_a_content_hash(self, model_dir, tmp_path,
                                        segmentation):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        original = registry.resolve("groupA")
        # The same bytes under another name get the same id.
        copy = model_dir / "alias.json"
        copy.write_bytes((model_dir / "groupA.json").read_bytes())
        registry.refresh()
        assert registry.resolve("alias").model_id == original.model_id

    def test_unknown_model_raises_with_catalogue(self, model_dir):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        with pytest.raises(KeyError, match="groupA"):
            registry.resolve("nope")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            ModelRegistry(tmp_path / "absent")

    def test_invalid_artefact_fails_startup_loudly(self, model_dir):
        (model_dir / "bad.json").write_text('{"format": "other"}')
        from repro.persistence import PersistenceError
        with pytest.raises(PersistenceError):
            ModelRegistry(model_dir, refresh_interval=0).load()

    def test_refresh_picks_up_changed_artefact(self, model_dir,
                                               segmentation):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        old = registry.resolve("groupA")
        replacement = Segmentation.from_rules([
            make_rule(0, 10, 0, 10)
        ])
        save_segmentation(replacement, model_dir / "groupA.json")
        assert registry.refresh()
        new = registry.resolve("groupA")
        assert new.model_id != old.model_id
        assert len(new.segmentation) == 1
        # Each model carries the scorer compiled when it was loaded.
        assert new.scorer.segmentation is new.segmentation
        assert new.scorer.score(5, 5) == 0
        # The old model object keeps working for in-flight requests.
        assert compile_scorer(old.segmentation).score(25, 60_000) == 0
        assert old.scorer.score(25, 60_000) == 0

    def test_refresh_without_changes_reports_none(self, model_dir):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        assert not registry.refresh()

    def test_refresh_drops_removed_artefacts(self, model_dir):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        (model_dir / "groupA.json").unlink()
        assert registry.refresh()
        assert len(registry) == 0

    def test_refresh_keeps_previous_version_of_corrupt_file(
            self, model_dir, caplog):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        old = registry.resolve("groupA")
        (model_dir / "groupA.json").write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.serve.registry"):
            registry.refresh()
        assert "keeping previous version" in caplog.text
        assert registry.resolve("groupA") is old

    def test_negative_interval_disables_maybe_refresh(self, model_dir):
        registry = ModelRegistry(model_dir, refresh_interval=-1).load()
        (model_dir / "groupA.json").unlink()
        assert not registry.maybe_refresh()
        assert len(registry) == 1

    def test_refresh_survives_torn_partial_write(self, model_dir):
        """A writer caught mid-write (valid JSON prefix, truncated
        file) must not evict the healthy version already serving."""
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        old = registry.resolve("groupA")
        path = model_dir / "groupA.json"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])  # torn mid-artefact
        from repro.obs import metrics
        from repro.obs.metrics import MetricsRegistry

        counters = metrics.enable(MetricsRegistry())
        try:
            registry.refresh()
        finally:
            metrics.disable()
        assert registry.resolve("groupA") is old
        assert counters.counter("serve.reload_errors").value == 1
        # The writer finishes; the next refresh loads the new bytes.
        path.write_bytes(raw)
        registry.refresh()
        assert registry.resolve("groupA").model_id == old.model_id

    def test_refresh_survives_file_deleted_mid_scan(self, model_dir,
                                                    monkeypatch):
        """A file vanishing between the directory listing and the load
        keeps the previous healthy snapshot serving."""
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        old = registry.resolve("groupA")
        path = model_dir / "groupA.json"
        listed = [path]

        def scan_then_delete():
            path.unlink(missing_ok=True)  # racing writer wins
            return listed

        monkeypatch.setattr(
            registry, "_artefact_paths", scan_then_delete
        )
        registry.refresh()
        assert registry.resolve("groupA") is old

    def test_refresh_skips_brand_new_file_deleted_mid_scan(
            self, model_dir, monkeypatch):
        """A never-loaded artefact that vanishes mid-scan is skipped —
        no crash, no phantom entry."""
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        ghost = model_dir / "ghost.json"

        def scan_with_ghost():
            ghost.unlink(missing_ok=True)
            return sorted(model_dir.glob("*.json")) + [ghost]

        monkeypatch.setattr(
            registry, "_artefact_paths", scan_with_ghost
        )
        registry.refresh()
        assert len(registry) == 1
        assert "ghost" not in registry


# ----------------------------------------------------------------------
# Service endpoint logic (transport-free)
# ----------------------------------------------------------------------
class TestPredictionService:
    @pytest.fixture()
    def service(self, model_dir):
        return PredictionService(
            ModelRegistry(model_dir, refresh_interval=0).load()
        )

    def test_healthz(self, service):
        body = service.healthz()
        assert body["status"] == "ok"
        assert body["models"] == 1

    def test_models_lists_metadata(self, service):
        entry = service.models()["models"][0]
        assert entry["name"] == "groupA"
        assert entry["rhs_value"] == "A"
        assert entry["n_rules"] == 3
        assert "library_version" in entry["metadata"]

    def test_predict_inside_and_outside(self, service):
        inside = service.predict({"model": "groupA", "x": 25, "y": 60_000})
        assert inside["in_segment"] and inside["segment"] == "A"
        outside = service.predict({"model": "groupA", "x": 5, "y": 5_000})
        assert not outside["in_segment"]
        assert outside["segment"] is None and outside["rule"] is None

    def test_predict_batch_round_trips_json_types(self, service):
        body = service.predict_batch({
            "model": "groupA", "x": [25, 5], "y": [60_000, 5_000],
        })
        assert body["count"] == 2
        assert body["in_segment"] == [True, False]
        assert body["rule"] == [0, -1]
        json.dumps(body)  # must be JSON-serializable

    def test_explain_names_the_rule(self, service):
        body = service.explain({"model": "groupA", "x": 65, "y": 50_000})
        explanation = body["explanation"]
        assert explanation["index"] == 1
        assert "60 <= age <= 80" in explanation["text"]
        assert explanation["x_interval"]["closed_high"] is True
        missed = service.explain({"model": "groupA", "x": 5, "y": 5_000})
        assert missed["explanation"] is None

    def test_unknown_model_is_404(self, service):
        with pytest.raises(ServiceError) as exc:
            service.predict({"model": "ghost", "x": 1, "y": 2})
        assert exc.value.status == 404

    @pytest.mark.parametrize("payload", [
        {"x": 1, "y": 2},                                # no model
        {"model": "groupA", "y": 2},                     # no x
        {"model": "groupA", "x": "wide", "y": 2},        # non-numeric
        {"model": "groupA", "x": True, "y": 2},          # bool is not a number
        {"model": "groupA", "x": HUGE_INT, "y": 1},      # beyond float64
    ])
    def test_bad_predict_payloads_are_400(self, service, payload):
        with pytest.raises(ServiceError) as exc:
            service.predict(payload)
        assert exc.value.status == 400

    @pytest.mark.parametrize("payload", [
        {"model": "groupA", "x": [1], "y": [2, 3]},      # length mismatch
        {"model": "groupA", "x": 1, "y": [2]},           # not a list
        {"model": "groupA", "x": [[1]], "y": [[2]]},     # not 1-D
        {"model": "groupA", "x": [float("nan")], "y": [2.0]},  # NaN
        {"model": "groupA", "x": [HUGE_INT], "y": [1]},  # beyond float64
        {"model": "groupA", "x": [True, 1], "y": [1, 2]},  # bool element
        {"model": "groupA", "x": [1, "5"], "y": [1, 2]},   # numeric string
    ])
    def test_bad_batch_payloads_are_400(self, service, payload):
        with pytest.raises(ServiceError) as exc:
            service.predict_batch(payload)
        assert exc.value.status == 400

    @pytest.mark.parametrize("endpoint", ["predict", "explain"])
    @pytest.mark.parametrize("x, y", [
        (float("nan"), 60_000.0), (25.0, float("nan")),
    ])
    def test_nan_point_gets_the_batch_400_body(self, service, endpoint,
                                               x, y):
        status, body = service.dispatch(
            endpoint, {"model": "groupA", "x": x, "y": y}
        )
        batch_status, batch_body = service.dispatch(
            "predict_batch", {"model": "groupA", "x": [x], "y": [y]}
        )
        assert status == batch_status == 400
        assert body == batch_body
        column = "age" if x != x else "salary"
        assert body["error"] == (f"column {column!r} contains NaN; "
                                 "clean the data before scoring")

    def test_dispatch_maps_errors_to_statuses(self, service):
        status, body = service.dispatch("predict", {"model": "ghost",
                                                    "x": 1, "y": 2})
        assert status == 404 and "error" in body
        status, _ = service.dispatch("no-such-endpoint", {})
        assert status == 404

    def test_explain_out_of_range_number_is_400(self, service):
        status, body = service.dispatch(
            "explain", {"model": "groupA", "x": 1, "y": HUGE_INT}
        )
        assert status == 400 and "error" in body

    def test_infinite_coordinates_score_outside_every_rule(self, service):
        inf = float("inf")
        status, body = service.dispatch("predict_batch", {
            "model": "groupA", "x": [-inf, inf, 25], "y": [60_000] * 3,
        })
        assert status == 200
        assert body["rule"] == [-1, -1, 0]

    def test_dispatch_records_metrics(self, service):
        from repro.obs import metrics as metrics_mod
        registry = metrics_mod.MetricsRegistry()
        metrics_mod.enable(registry)
        try:
            service.dispatch("predict",
                             {"model": "groupA", "x": 25, "y": 60_000})
            service.dispatch("predict", {"model": "ghost", "x": 1, "y": 2})
            snapshot = registry.snapshot()
        finally:
            metrics_mod.disable()
        assert snapshot["counters"]["serve.requests"] == 2
        assert snapshot["counters"]["serve.requests_predict"] == 2
        assert snapshot["counters"][
            'serve.request_errors{endpoint="predict"}'] == 1
        assert snapshot["histograms"][
            'serve.request_seconds{endpoint="predict"}']["count"] == 2

    def test_dispatch_records_labeled_series_per_endpoint(self, service):
        from repro.obs import metrics as metrics_mod
        registry = metrics_mod.MetricsRegistry()
        metrics_mod.enable(registry)
        try:
            service.dispatch("healthz", None)
            service.dispatch("predict", {"model": "ghost", "x": 1, "y": 2})
            snapshot = registry.snapshot()
        finally:
            metrics_mod.disable()
        histograms = snapshot["histograms"]
        assert histograms['serve.request_seconds{endpoint="healthz"}'][
            "count"] == 1
        assert histograms['serve.request_seconds{endpoint="predict"}'][
            "count"] == 1
        assert snapshot["counters"][
            'serve.request_errors{endpoint="predict"}'] == 1
        # The deprecated unlabeled twins are gone: only labeled series.
        assert "serve.request_seconds" not in histograms
        assert "serve.request_errors" not in snapshot["counters"]

    def test_metrics_endpoint_renders_prometheus(self, service):
        from repro.obs import metrics as metrics_mod
        from repro.obs.prometheus import parse_prometheus
        from repro.serve.service import TextResponse
        metrics_mod.enable(metrics_mod.MetricsRegistry())
        try:
            service.dispatch("predict",
                             {"model": "groupA", "x": 25, "y": 60_000})
            status, body = service.dispatch(
                "metrics", {"format": "prometheus"}
            )
        finally:
            metrics_mod.disable()
        assert status == 200 and isinstance(body, TextResponse)
        assert body.content_type.startswith("text/plain")
        families = parse_prometheus(body.text)
        latency = families["arcs_serve_request_seconds"]
        assert latency["kind"] == "histogram"
        buckets = [
            sample for sample in latency["samples"]
            if sample[0].endswith("_bucket")
            and sample[1].get("endpoint") == "predict"
        ]
        assert buckets and buckets[-1][1]["le"] == "+Inf"

    def test_metrics_endpoint_rejects_unknown_format(self, service):
        status, body = service.dispatch("metrics", {"format": "xml"})
        assert status == 400 and "format" in body["error"]

    def test_metrics_endpoint_prometheus_while_disabled(self, service):
        from repro.serve.service import TextResponse
        status, body = service.dispatch(
            "metrics", {"format": "prometheus"}
        )
        assert status == 200 and isinstance(body, TextResponse)
        assert "disabled" in body.text

    def test_profile_endpoint_returns_collapsed_stacks(self, service):
        from repro.serve.service import TextResponse
        status, body = service.dispatch("profile", {"seconds": "0.05"})
        assert status == 200 and isinstance(body, TextResponse)
        # Either folded "stack count" lines or the explicit empty marker.
        for line in body.text.strip().splitlines():
            if line.startswith("#"):
                continue
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    @pytest.mark.parametrize("seconds", ["0", "-1", "nan-ish"])
    def test_profile_endpoint_rejects_bad_seconds(self, service, seconds):
        status, body = service.dispatch("profile", {"seconds": seconds})
        assert status == 400 and "seconds" in body["error"]

    def test_metrics_survive_bookkeeping_failure(self, service):
        """Regression: a failure while recording the span/event must not
        lose the latency observation or flip the response."""
        from repro.obs import metrics as metrics_mod, tracing

        class ExplodingBuffer:
            def append(self, span):
                raise RuntimeError("ring buffer gone")

        registry = metrics_mod.MetricsRegistry()
        metrics_mod.enable(registry)
        tracing.enable()
        service.recent_spans = ExplodingBuffer()
        try:
            status, body = service.dispatch("healthz", None)
            snapshot = registry.snapshot()
        finally:
            tracing.disable()
            metrics_mod.disable()
        assert status == 200 and body["status"] == "ok"
        assert snapshot["histograms"][
            'serve.request_seconds{endpoint="healthz"}']["count"] == 1
        assert not any(
            name.startswith("serve.request_errors")
            for name in snapshot["counters"]
        )

    def test_dispatch_records_request_spans_when_tracing(self, service):
        from repro.obs import tracing
        tracing.enable()
        try:
            service.dispatch("healthz", None)
        finally:
            tracing.disable()
        assert [span.name for span in service.recent_spans] == [
            "serve.healthz"
        ]
        span = service.recent_spans[0]
        assert span.attributes["status"] == 200
        assert span.duration is not None


# ----------------------------------------------------------------------
# HTTP integration (real sockets, ephemeral port)
# ----------------------------------------------------------------------
@pytest.fixture()
def server(model_dir):
    server = create_server(model_dir, port=0, refresh_interval=0)
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


def _get(server, path):
    try:
        with urllib.request.urlopen(server.url + path,
                                    timeout=5) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _get_text(server, path, headers=None):
    request = urllib.request.Request(server.url + path,
                                     headers=headers or {})
    with urllib.request.urlopen(request, timeout=5) as response:
        return (response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


class TestHTTPServer:
    def test_healthz_and_models(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = _get(server, "/models")
        assert status == 200
        assert body["models"][0]["name"] == "groupA"

    def test_predict_and_explain(self, server):
        status, body = _post(server, "/predict",
                             {"model": "groupA", "x": 25, "y": 60_000})
        assert status == 200 and body["in_segment"]
        status, body = _post(server, "/explain",
                             {"model": "groupA", "x": 25, "y": 60_000})
        assert status == 200 and body["explanation"]["index"] == 0

    def test_predict_batch(self, server):
        status, body = _post(server, "/predict_batch", {
            "model": "groupA", "x": [25, 5], "y": [60_000, 5_000],
        })
        assert status == 200
        assert body["in_segment"] == [True, False]

    def test_metrics_endpoint_reflects_registry_state(self, server):
        from repro.obs import metrics as metrics_mod
        status, body = _get(server, "/metrics")
        assert status == 200 and body["enabled"] is False
        metrics_mod.enable(metrics_mod.MetricsRegistry())
        try:
            _post(server, "/predict",
                  {"model": "groupA", "x": 25, "y": 60_000})
            status, body = _get(server, "/metrics")
        finally:
            metrics_mod.disable()
        assert body["enabled"] is True
        assert body["metrics"]["counters"]["serve.requests"] >= 1

    def test_prometheus_exposition_over_http(self, server):
        from repro.obs import metrics as metrics_mod
        from repro.obs.prometheus import parse_prometheus
        metrics_mod.enable(metrics_mod.MetricsRegistry())
        try:
            _post(server, "/predict",
                  {"model": "groupA", "x": 25, "y": 60_000})
            status, content_type, text = _get_text(
                server, "/metrics?format=prometheus"
            )
        finally:
            metrics_mod.disable()
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        families = parse_prometheus(text)  # must not raise
        assert "arcs_serve_requests_total" in families

    def test_prometheus_via_accept_header(self, server):
        from repro.obs import metrics as metrics_mod
        metrics_mod.enable(metrics_mod.MetricsRegistry())
        try:
            status, _, text = _get_text(
                server, "/metrics", headers={"Accept": "text/plain"}
            )
        finally:
            metrics_mod.disable()
        assert status == 200
        assert text.startswith("#") or "arcs_" in text
        # Explicit query parameter wins over the Accept header.
        status, body = _get(server, "/metrics?format=json")
        assert status == 200 and "enabled" in body

    def test_debug_profile_over_http(self, server):
        status, content_type, text = _get_text(
            server, "/debug/profile?seconds=0.05"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert text  # folded stacks or the empty-profile marker

    def test_error_statuses(self, server):
        assert _get(server, "/nope")[0] == 404
        assert _post(server, "/predict", {"model": "ghost",
                                          "x": 1, "y": 2})[0] == 404
        assert _post(server, "/predict", {"model": "groupA"})[0] == 400
        request = urllib.request.Request(
            server.url + "/predict", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=5)
        assert exc.value.code == 400

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_malformed_content_length_is_400(self, server, length):
        # A negative length used to park the handler in rfile.read(-1)
        # until the client hung up; a non-integer one dropped the
        # connection with no response at all.
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(
                b"POST /predict HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
                b'{"model": "groupA", "x": 25, "y": 60000}'
            )
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = conn.recv(4096)
                assert chunk, f"connection closed early: {reply!r}"
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_hot_reload_swaps_models_between_requests(self, server,
                                                      model_dir):
        _, before = _post(server, "/predict",
                          {"model": "groupA", "x": 25, "y": 60_000})
        assert before["in_segment"]
        replacement = Segmentation.from_rules([make_rule(0, 10, 0, 10)])
        save_segmentation(replacement, model_dir / "groupA.json")
        _, after = _post(server, "/predict",
                         {"model": "groupA", "x": 25, "y": 60_000})
        assert not after["in_segment"]
        assert after["model"] != before["model"]

    def test_concurrent_requests_succeed(self, server):
        results = []

        def worker():
            results.append(_post(server, "/predict", {
                "model": "groupA", "x": 25, "y": 60_000,
            }))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert all(status == 200 and body["in_segment"]
                   for status, body in results)


# ----------------------------------------------------------------------
# HTTP framing: the handler's own request loop against the stdlib's
# ----------------------------------------------------------------------
class _StdlibParsed(BaseHTTPRequestHandler):
    """The stdlib's HTTP/1.1 handler: the oracle the differential tests
    hold :class:`PredictionHandler` to.  It records the status of each
    refusal, and, having no ``do_*`` methods, answers 501 to any request
    it accepts."""

    protocol_version = "HTTP/1.1"
    refused = None

    def send_error(self, code, message=None, explain=None):
        self.refused = code
        super().send_error(code, message, explain)

    def log_message(self, format, *args):
        pass  # the stdlib prints each access line to stderr


#: The header fields the handler reads, by the lower-case names it reads
#: them under (the stdlib's ``HTTPMessage.get`` ignores case).
HANDLER_FIELDS = ("content-length", "connection", "expect", "accept",
                  REQUEST_ID_HEADER.lower())

#: The interim answer to ``Expect: 100-continue``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _RecordingWriter:
    """A ``wfile`` that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


class _FakeConnection:
    """A socket for ``StreamRequestHandler.setup``: reads come from
    ``raw``, and ``sends`` keeps what reaches the peer, one entry a
    send."""

    def __init__(self, raw):
        self.raw = raw
        self.sends = []

    def settimeout(self, timeout):
        pass

    def setsockopt(self, *option):
        pass

    def makefile(self, mode, buffering):
        return io.BytesIO(self.raw)

    def sendall(self, data):  # the unbuffered wfile's path
        self.sends.append(bytes(data))


def _handler(handler_class, raw, service=None):
    """A handler over in-memory streams, ``raw`` being what the client
    sent; nothing has run yet."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = _RecordingWriter()
    handler.client_address = ("127.0.0.1", 0)
    handler.server = SimpleNamespace(service=service)
    return handler


def _status_of(wire):
    """The status on the first status line in ``wire``, if it has one."""
    match = re.match(rb"HTTP/1\.[01] (\d{3}) ", wire)
    return int(match[1]) if match else None


def _verdict(handler, ok, status):
    """Everything a handler decided about a request head."""
    headers = getattr(handler, "headers", None)
    return {
        "ok": ok,
        "status": status,
        "continued": b"".join(handler.wfile.writes) == CONTINUE,
        "command": handler.command,
        "path": getattr(handler, "path", None),
        "version": handler.request_version,
        "close_connection": handler.close_connection,
        "fields": None if headers is None else {
            name: headers.get(name) for name in HANDLER_FIELDS
        },
        # What is left for the body and the next request.
        "rest": handler.rfile.read(),
    }


def _parsed(raw):
    """:func:`_verdict` of the handler's own head reader on ``raw``."""
    handler = _handler(PredictionHandler, raw)
    try:
        return _verdict(handler, handler._read_head(), None)
    except ServiceError as error:
        return _verdict(handler, False, error.status)


def _parsed_by_stdlib(raw):
    """:func:`_verdict` of the stdlib's ``parse_request`` on ``raw``."""
    handler = _handler(_StdlibParsed, raw)
    handler.raw_requestline = handler.rfile.readline(65537)
    ok = handler.parse_request()
    return _verdict(handler, ok, handler.refused)


def _answered(raw, service):
    """The connection ``raw`` opens, served in memory: the handler and
    the bytes it wrote."""
    handler = _handler(PredictionHandler, raw, service)
    handler.handle()
    return handler, b"".join(handler.wfile.writes)


def _answered_by_stdlib(raw):
    """One request of ``raw`` answered by the stdlib's handler."""
    handler = _handler(_StdlibParsed, raw)
    handler.handle_one_request()
    return handler, b"".join(handler.wfile.writes)


_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
             "0123456789!#$%&'*+.^_`|~-",
    min_size=1, max_size=12,
)
_VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=24,
)
#: Values holding a CR that does not end the line, or a NUL: email
#: splits the line at the CR, so the handler refuses them.
_SPLIT_VALUES = ("a\rContent-Length: 40", "a\r\rb", "a\x00b")


@st.composite
def _well_formed_heads(draw):
    """``(raw, split)``: a request head with a body after it, and
    whether a field value holds one of :data:`_SPLIT_VALUES`."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "HEAD"]))
    path = draw(st.sampled_from(["/", "/predict", "/healthz?x=1",
                                 "//double", "/predict_batch"]))
    version = draw(st.sampled_from([
        None, "HTTP/1.0", "HTTP/1.1", "HTTP/01.1", "HTTP/1.2",
        "HTTP/2.0", "HTTP/0.9",
    ]))
    line = f"{method} {path}" + (f" {version}" if version else "")
    fields = draw(st.lists(st.one_of(
        st.tuples(_TOKEN.filter(
            lambda name: name.lower() not in (
                "transfer-encoding", "content-length")
        ), _VALUE),
        st.tuples(st.sampled_from(["Connection", "connection",
                                   "CONNECTION"]),
                  st.sampled_from(["close", "keep-alive", "Keep-Alive",
                                   "CLOSE", "upgrade", " close",
                                   "close "])),
        st.tuples(st.sampled_from(["Expect", "expect"]),
                  st.sampled_from(["100-continue", "100-Continue",
                                   "nothing"])),
        st.tuples(st.sampled_from(["Accept", "accept"]),
                  st.sampled_from(["text/plain", "*/*",
                                   "application/openmetrics-text"])),
        st.tuples(st.sampled_from([REQUEST_ID_HEADER,
                                   REQUEST_ID_HEADER.lower()]),
                  st.sampled_from(["probe-1", "bad id", ""])),
        st.tuples(_TOKEN, st.sampled_from(_SPLIT_VALUES)),
        # Lines that are no "name: value": email's unix-from, which it
        # skips anywhere in the head, and obs-fold continuations.
        st.tuples(st.sampled_from(["From x", "From x: y", " folded",
                                   "\tfolded"])),
    ), max_size=8))
    length = draw(st.one_of(st.none(), st.sampled_from(
        ["0", "7", " 7", "7 ", "-1", "abc"])))
    if length is not None:
        fields.insert(draw(st.integers(0, len(fields))),
                      ("Content-Length", length))
    separator = draw(st.sampled_from(["\r\n", "\n"]))
    head = separator.join(
        [line] + [
            field[0] if len(field) == 1 else
            f"{field[0]}:{draw(st.sampled_from(['', ' ', chr(9)]))}"
            f"{field[1]}"
            for field in fields
        ]
    ) + separator + separator
    split = any(field[1:] and field[1] in _SPLIT_VALUES
                for field in fields)
    return head.encode("latin-1") + b"BODY...", split


class TestHTTPFraming:
    @pytest.fixture()
    def service(self, model_dir):
        return PredictionService(
            ModelRegistry(model_dir, refresh_interval=0).load()
        )

    @settings(max_examples=300, deadline=None)
    @given(head=_well_formed_heads())
    def test_well_formed_heads_parse_as_the_stdlib_does(self, head):
        raw, split = head
        ours = _parsed(raw)
        oracle = _parsed_by_stdlib(raw)
        if split and oracle["ok"]:
            # The stdlib would read the fields after the CR; we refuse.
            assert not ours["ok"] and ours["status"] == 400
            assert ours["close_connection"]
        else:
            assert ours == oracle

    @pytest.mark.parametrize("raw", [
        b"\r\n",
        b"GET /healthz\r\n\r\n",
        b"POST /predict\r\n\r\n",
        b"GET /healthz HTTP/1.x\r\n\r\n",
        b"GET /healthz HTTP/2.0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-Field-%d: v\r\n" % i for i in range(101))
        + b"\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65530 + b"\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Arcs-Request-Id: a\r\n  b\r\n"
        b" \tAccept: text/plain\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nno colon here\r\n"
        b"Connection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nFrom x\r\nConnection: close\r\n\r\n",
        b"POST /predict HTTP/1.1\r\nX: v\r\nFrom x: y\r\n\tfolded\r\n"
        b"Content-Length: 2\r\n\r\n{}",
    ], ids=["empty-line", "http09-get", "http09-post", "bad-version",
            "http2", "101-fields", "65537-byte-line", "obs-fold",
            "no-colon", "first-line-from", "later-from"])
    def test_malformed_heads_get_the_stdlib_status(self, service, raw):
        ours = _parsed(raw)
        assert ours == _parsed_by_stdlib(raw)
        _, wire = _answered(raw, service)
        _, oracle = _answered_by_stdlib(raw)
        # An HTTP/0.9 answer is the bare body, as the stdlib sends it.
        assert wire.startswith(b"HTTP/") == oracle.startswith(b"HTTP/")
        if not ours["ok"] and wire:
            assert _status_of(wire) in (ours["status"], None)

    def test_limits_match_the_stdlib_at_the_edge(self):
        # 99 fields plus the blank line is the most the stdlib takes; a
        # 65,536-byte line (CRLF included) is the longest.
        for raw in (
            b"GET / HTTP/1.1\r\n"
            + b"".join(b"X-%d: v\r\n" % i for i in range(99)) + b"\r\n",
            b"GET / HTTP/1.1\r\n"
            + b"".join(b"X-%d: v\r\n" % i for i in range(100)) + b"\r\n",
            b"GET / HTTP/1.1\r\nX: " + b"a" * 65531 + b"\r\n\r\n",
            b"GET / HTTP/1.1\r\nX: " + b"a" * 65532 + b"\r\n\r\n",
        ):
            assert _parsed(raw) == _parsed_by_stdlib(raw)

    @pytest.mark.parametrize("length", [65536, 65537])
    def test_request_line_limit_matches_the_stdlib(self, service, length):
        # The longest request line the stdlib reads is 65,536 bytes,
        # CRLF included; one byte more is 414 and a closed connection.
        line = b"GET /healthz?" + b"a" * (length - 24) + b" HTTP/1.1\r\n"
        assert len(line) == length
        raw = line + b"\r\n"
        handler, wire = _answered(raw, service)
        stdlib, oracle = _answered_by_stdlib(raw)
        assert _status_of(wire) == (200 if length == 65536 else 414)
        assert _status_of(oracle) == (501 if length == 65536 else 414)
        assert handler.close_connection and stdlib.close_connection
        assert (b"Connection: close\r\n" in wire) == (length == 65537)

    @pytest.mark.parametrize("method", ["PUT", "HEAD", "DELETE"])
    def test_other_methods_are_501_as_in_the_stdlib(self, service, method):
        raw = method.encode() + b" /predict HTTP/1.1\r\n\r\n"
        handler, wire = _answered(raw, service)
        stdlib, oracle = _answered_by_stdlib(raw)
        assert _status_of(wire) == _status_of(oracle) == 501
        assert handler.close_connection and stdlib.close_connection
        head, _, body = wire.partition(b"\r\n\r\n")
        # A HEAD answer is the head alone, as the stdlib sends it.
        assert (body == b"") == (method == "HEAD") == (
            oracle.endswith(b"\r\n\r\n"))

    def test_http09_get_is_answered_with_the_bare_body(self, service):
        _, wire = _answered(b"GET /healthz\r\n", service)
        assert json.loads(wire)["status"] == "ok"

    def test_expect_100_continue_is_sent_before_the_body_is_read(
            self, service):
        body = b'{"model": "groupA", "x": 25, "y": 60000}'
        raw = (b"POST /predict HTTP/1.1\r\nExpect: 100-continue\r\n"
               b"Content-Length: %d\r\n\r\n" % len(body) + body)
        assert _parsed(raw)["continued"] and _parsed_by_stdlib(
            raw)["continued"]
        handler, _ = _answered(raw, service)
        interim, answer = handler.wfile.writes
        assert interim == CONTINUE
        assert _status_of(answer) == 200

    @pytest.mark.parametrize("length", [
        str(MAX_BODY_BYTES + 1), "1000000000000", "9" * 5000,
    ], ids=["bound-plus-one", "terabyte", "5000-digits"])
    def test_a_body_over_the_bound_is_413_before_it_is_read(
            self, service, length):
        raw = (b"POST /predict_batch HTTP/1.1\r\nExpect: 100-continue\r\n"
               b"Content-Length: " + length.encode() + b"\r\n\r\n{}")
        parsed = _parsed(raw)
        assert parsed["status"] == 413 and parsed["close_connection"]
        # No "100 Continue": the client need not send the body at all.
        assert not parsed["continued"] and parsed["rest"] == b"{}"
        _, wire = _answered(raw, service)
        assert _status_of(wire) == 413
        assert b"Connection: close\r\n" in wire

    def test_a_body_at_the_bound_is_accepted(self):
        parsed = _parsed(b"POST /predict HTTP/1.1\r\nContent-Length: "
                         b"%d\r\n\r\n" % MAX_BODY_BYTES)
        assert parsed["ok"] and parsed["status"] is None

    @pytest.mark.parametrize("fields", [
        b"Content-Length: 7\r\nContent-Length: 8\r\n",
        b"Transfer-Encoding: chunked\r\n",
        b"transfer-encoding: identity\r\nContent-Length: 7\r\n",
        b"X: a\rContent-Length: 40\r\nContent-Length: 7\r\n",
        b"X: a\x00b\r\nContent-Length: 7\r\n",
        b"Content-Length: 7\r\n\r\r\n",
    ], ids=["conflicting-content-length", "chunked", "identity",
            "bare-cr", "nul", "bare-cr-line"])
    def test_ambiguous_body_framing_is_400_and_closes(self, server,
                                                      fields):
        # The stdlib takes the first Content-Length, ignores
        # Transfer-Encoding and lets email split a line at a bare CR,
        # so a proxy that reads any of these differently would frame
        # the next request out of this one's body.
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n" + fields
                         + b"\r\n7\r\n{}\r\n0\r\n\r\n")
            reply = b""
            while chunk := conn.recv(4096):  # until the server closes
                reply += chunk
        assert _status_of(reply) == 400
        assert b"Connection: close\r\n" in reply

    def test_equal_repeated_content_length_is_accepted(self):
        parsed = _parsed(b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\n"
                         b"Content-Length: 2\r\n\r\n{}")
        assert parsed["ok"] and parsed["fields"]["content-length"] == "2"

    @pytest.mark.parametrize("raw", [
        b"GET /healthz HTTP/1.1\r\nContent-Length: 27\r\n\r\n"
        b"GET /nope HTTP/1.1\r\n\r\n",
        b"POST /nope HTTP/1.1\r\nContent-Length: 27\r\n\r\n"
        b"GET /nope HTTP/1.1\r\n\r\n",
    ], ids=["get", "post-404"])
    def test_an_unread_body_closes_the_connection(self, service, raw):
        # The body is never read; kept alive, its bytes would be parsed
        # as a second request (here a 404 for /nope).
        handler, wire = _answered(raw, service)
        assert wire.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close\r\n" in wire
        assert handler.close_connection

    def test_predict_answer_is_one_write(self, service):
        body = b'{"model": "groupA", "x": 25, "y": 60000}'
        connection = _FakeConnection(
            b"POST /predict HTTP/1.1\r\nHost: x\r\n"
            b"X-Arcs-Request-Id: one-write-1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
        handler = PredictionHandler.__new__(PredictionHandler)
        handler.request = connection
        handler.client_address = ("127.0.0.1", 0)
        handler.server = SimpleNamespace(service=service)
        handler.setup()
        # Kept alive, and sent whole before the next request is read.
        assert handler._handle_one()
        (wire,) = connection.sends
        head, _, payload = wire.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        fields = dict(line.split(": ", 1) for line in lines[1:])
        assert list(fields) == ["Date", "Content-Type", "Content-Length",
                                REQUEST_ID_HEADER]
        assert parsedate_to_datetime(fields["Date"]).tzinfo is not None
        assert fields["Content-Type"] == "application/json"
        assert fields["Content-Length"] == str(len(payload))
        assert fields[REQUEST_ID_HEADER] == "one-write-1"
        assert json.loads(payload)["in_segment"] is True

    def test_every_answer_carries_a_date(self, service):
        for raw in (b"GET /healthz HTTP/1.1\r\n\r\n",
                    b"GET /nope HTTP/1.1\r\n\r\n",
                    b"PUT / HTTP/1.1\r\n\r\n",
                    b"GET / HTTP/1.1\r\nTransfer-Encoding: x\r\n\r\n"):
            _, wire = _answered(raw, service)
            assert re.search(rb"\r\nDate: \w{3}, \d\d \w{3} \d{4} "
                             rb"\d\d:\d\d:\d\d GMT\r\n", wire), wire

    def test_answers_log_an_access_line_at_info(self, service, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve.service"):
            _answered(b"GET /healthz HTTP/1.1\r\n\r\n"
                      b"GET /healthz HTTP/2.0\r\n\r\n", service)
        assert [record.getMessage() for record in caplog.records] == [
            '127.0.0.1 "GET /healthz HTTP/1.1" 200',
            '127.0.0.1 "GET /healthz HTTP/2.0" 505',
        ]


def _read_answer(reader):
    """One HTTP/1.x answer off a socket file: ``(status, fields, body)``."""
    status = int(reader.readline().split()[1])
    fields = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    body = reader.read(int(fields.get("content-length", 0)))
    return status, fields, body


class TestHTTPFramingOverSockets:
    def test_expect_100_continue_on_a_large_batch(self, server):
        # curl sends Expect: 100-continue for bodies over 1 KiB, and
        # waits for the interim answer before sending the body.
        n = 1400
        body = json.dumps({"model": "groupA", "x": [25.0] * n,
                           "y": [60_000.0] * n}).encode()
        assert len(body) > 20_000
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            reader = conn.makefile("rb")
            conn.sendall(b"POST /predict_batch HTTP/1.1\r\nHost: x\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            conn.sendall(body)
            status, _, payload = _read_answer(reader)
        assert status == 200
        assert json.loads(payload)["in_segment"] == [True] * n

    @pytest.mark.parametrize("keep_alive", [False, True])
    def test_http10_closes_unless_kept_alive(self, server, keep_alive):
        host, port = server.server_address[:2]
        head = b"GET /healthz HTTP/1.0\r\n" + (
            b"Connection: keep-alive\r\n" if keep_alive else b""
        ) + b"\r\n"
        with socket.create_connection((host, port), timeout=5) as conn:
            reader = conn.makefile("rb")
            conn.sendall(head)
            assert _read_answer(reader)[0] == 200
            if keep_alive:
                conn.sendall(head)
                assert _read_answer(reader)[0] == 200
            else:
                assert reader.read() == b""  # the server closed

    def test_pipelined_requests_on_one_socket(self, server):
        body = b'{"model": "groupA", "x": 25, "y": 60000}'
        request = (b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(body) + body)
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            reader = conn.makefile("rb")
            conn.sendall(request + b"GET /healthz HTTP/1.1\r\n\r\n")
            first = _read_answer(reader)
            second = _read_answer(reader)
        assert first[0] == 200 and json.loads(first[2])["in_segment"]
        assert second[0] == 200
        assert json.loads(second[2])["status"] == "ok"

    def test_a_thousand_predicts_on_one_connection(self, server):
        body = b'{"model": "groupA", "x": 25, "y": 60000}'
        request = (b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(body) + body)
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            reader = conn.makefile("rb")
            for _ in range(1000):
                conn.sendall(request)
                status, fields, payload = _read_answer(reader)
                assert status == 200 and "connection" not in fields
                assert json.loads(payload)["in_segment"]

    def test_a_huge_content_length_is_413_and_the_server_lives(self,
                                                               server):
        # Read, a declared 1 TB body raises MemoryError, which would end
        # the handler thread without an answer.
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(b"POST /predict_batch HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 1000000000000\r\n\r\n{}")
            reader = conn.makefile("rb")
            status, fields, payload = _read_answer(reader)
            assert reader.read() == b""  # the server closed
        assert status == 413 and fields["connection"] == "close"
        assert str(MAX_BODY_BYTES) in json.loads(payload)["error"]
        assert _get(server, "/healthz")[0] == 200

    def test_an_escaped_exception_goes_to_the_logger(self, server,
                                                     monkeypatch, caplog):
        def broken(endpoint, payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.service, "dispatch", broken)
        host, port = server.server_address[:2]
        with caplog.at_level(logging.ERROR, logger="repro.serve.service"):
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                # Closed with no answer, after handle_error ran.
                assert conn.recv(4096) == b""
        (record,) = caplog.records
        assert record.exc_info[0] is RuntimeError
        assert record.getMessage() == "unhandled error serving 127.0.0.1"


# ----------------------------------------------------------------------
# Traffic monitoring (/stats, drift, coverage)
# ----------------------------------------------------------------------
def training_bin_array():
    """A populated training grid matching the test segmentation's
    attributes: mass concentrated where the rules live."""
    bin_array = BinArray(
        x_layout=BinLayout("age", np.linspace(0.0, 100.0, 11)),
        y_layout=BinLayout("salary", np.linspace(0.0, 160_000.0, 11)),
        rhs_encoding=CategoricalEncoding("group", ("A", "B")),
        target_code=0,
    )
    rng = np.random.default_rng(11)
    x = rng.uniform(20.0, 60.0, 600)
    y = rng.uniform(40_000.0, 110_000.0, 600)
    bin_array.add_chunk(
        bin_array.x_layout.assign(x),
        bin_array.y_layout.assign(y),
        np.zeros(600, dtype=np.int64),
    )
    return bin_array


@pytest.fixture()
def referenced_model_dir(tmp_path, segmentation):
    directory = tmp_path / "models"
    directory.mkdir()
    save_segmentation(segmentation, directory / "groupA.json",
                      bin_array=training_bin_array())
    return directory


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = start

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestTrafficMonitoring:
    @pytest.fixture()
    def clock(self):
        return FakeClock()

    @pytest.fixture()
    def service(self, referenced_model_dir, clock):
        return PredictionService(
            ModelRegistry(referenced_model_dir,
                          refresh_interval=0).load(),
            monitors=TrafficMonitors(window_seconds=30.0,
                                     window_count=3, clock=clock),
        )

    def test_stats_before_any_traffic(self, service):
        status, body = service.dispatch("stats", None)
        assert status == 200
        entry = body["models"]["groupA"]
        assert entry["reference"]["available"]
        assert entry["reference"]["grid"] == [10, 10]
        assert entry["current"]["points"] == 0
        assert entry["current"]["drift_psi"] is None
        assert entry["current"]["coverage_fraction"] is None
        json.dumps(body)  # must be JSON-serialisable

    def test_stats_reports_drift_coverage_and_out_of_range(
            self, service, referenced_model_dir):
        # Half in-segment traffic, half far outside every rule and
        # beyond the trained age range (age 200 > edge 100).
        service.predict_batch({
            "model": "groupA",
            "x": [25.0, 25.0, 65.0, 200.0],
            "y": [60_000.0, 99_000.0, 50_000.0, 5_000.0],
        })
        entry = service.dispatch("stats", None)[1]["models"]["groupA"]
        current = entry["current"]
        assert current["points"] == 4
        assert current["coverage_fraction"] == pytest.approx(0.75)
        assert current["out_of_range"]["age"] == pytest.approx(0.25)
        assert current["out_of_range"]["salary"] == 0.0
        for family in ("drift_psi", "drift_js"):
            for attribute in ("age", "salary", "joint"):
                value = current[family][attribute]
                assert np.isfinite(value) and value >= 0.0
        # JS is bounded to [0, 1] bits.
        assert all(value <= 1.0 for value in current["drift_js"].values())

    def test_drift_is_bit_identical_to_scalar_oracle(
            self, service, referenced_model_dir):
        rng = np.random.default_rng(29)
        service.predict_batch({
            "model": "groupA",
            "x": rng.uniform(0.0, 100.0, 300).tolist(),
            "y": rng.uniform(0.0, 160_000.0, 300).tolist(),
        })
        entry = service.dispatch("stats", None)[1]["models"]["groupA"]
        recent = entry["recent"]
        reference = segmentation_reference(
            referenced_model_dir / "groupA.json"
        )
        assert recent["drift_psi"]["age"] == psi_scalar(
            reference.x_counts, recent["x_counts"]
        )
        assert recent["drift_psi"]["salary"] == psi_scalar(
            reference.y_counts, recent["y_counts"]
        )
        assert recent["drift_psi"]["joint"] == psi_scalar(
            reference.totals, recent["totals"]
        )
        assert recent["drift_js"]["age"] == js_divergence_scalar(
            reference.x_counts, recent["x_counts"]
        )
        assert recent["drift_js"]["joint"] == js_divergence_scalar(
            reference.totals, recent["totals"]
        )

    def test_windows_tumble_and_recent_aggregates(self, service, clock):
        predict = {"model": "groupA", "x": 25.0, "y": 60_000.0}
        service.predict(predict)
        clock.advance(31.0)  # expire the first window
        service.predict(predict)
        entry = service.dispatch("stats", None)[1]["models"]["groupA"]
        assert entry["windows_retained"] == 1
        assert entry["current"]["points"] == 1
        assert entry["recent"]["points"] == 2
        # The ring is bounded: many rotations keep only window_count.
        for _ in range(5):
            clock.advance(31.0)
            service.predict(predict)
        entry = service.dispatch("stats", None)[1]["models"]["groupA"]
        assert entry["windows_retained"] == 3
        assert entry["recent"]["points"] == 4  # 3 closed + current

    def test_monitor_without_reference_still_tracks_coverage(
            self, model_dir):
        service = PredictionService(
            ModelRegistry(model_dir, refresh_interval=0).load()
        )
        service.predict_batch({
            "model": "groupA", "x": [25.0, 5.0],
            "y": [60_000.0, 5_000.0],
        })
        entry = service.dispatch("stats", None)[1]["models"]["groupA"]
        assert entry["reference"] == {"available": False}
        assert entry["current"]["coverage_fraction"] == pytest.approx(0.5)
        assert entry["current"]["drift_psi"] is None
        assert entry["current"]["out_of_range"] is None

    def test_predict_and_explain_feed_the_monitor(self, service):
        service.predict({"model": "groupA", "x": 25.0, "y": 60_000.0})
        service.explain({"model": "groupA", "x": 5.0, "y": 5_000.0})
        entry = service.dispatch("stats", None)[1]["models"]["groupA"]
        assert entry["current"]["requests"] == 2
        assert entry["current"]["points"] == 2
        assert entry["current"]["rule_hits"] == [1, 0, 0]
        assert entry["current"]["fallback_points"] == 1

    def test_hot_reload_starts_a_fresh_monitor(
            self, service, referenced_model_dir, segmentation):
        service.predict({"model": "groupA", "x": 25.0, "y": 60_000.0})
        old_id = service.dispatch(
            "stats", None)[1]["models"]["groupA"]["id"]
        replacement = Segmentation.from_rules([make_rule(0, 10, 0, 10)])
        save_segmentation(replacement,
                          referenced_model_dir / "groupA.json",
                          bin_array=training_bin_array())
        service.registry.refresh()
        entry = service.dispatch("stats", None)[1]["models"]["groupA"]
        assert entry["id"] != old_id
        assert entry["current"]["points"] == 0  # fresh monitor
        assert len(service.monitors) == 1  # the old one was pruned

    def test_drift_gauges_flow_to_prometheus(self, service):
        from repro.obs import metrics as metrics_mod
        from repro.obs.prometheus import parse_prometheus
        from repro.serve.service import TextResponse
        metrics_mod.enable(metrics_mod.MetricsRegistry())
        try:
            service.predict_batch({
                "model": "groupA",
                "x": [25.0] * 10, "y": [60_000.0] * 10,
            })
            service.dispatch("stats", None)
            status, body = service.dispatch(
                "metrics", {"format": "prometheus"}
            )
        finally:
            metrics_mod.disable()
        assert status == 200 and isinstance(body, TextResponse)
        families = parse_prometheus(body.text)
        for family in ("arcs_serve_drift_psi", "arcs_serve_drift_js",
                       "arcs_serve_coverage_fraction",
                       "arcs_serve_out_of_range"):
            assert families[family]["kind"] == "gauge"
        psi_samples = {
            labels["attr"]: value
            for _, labels, value
            in families["arcs_serve_drift_psi"]["samples"]
            if labels["model"] == "groupA"
        }
        assert set(psi_samples) == {"age", "salary", "joint"}

    def test_drift_threshold_crossing_emits_event(
            self, service, tmp_path):
        from repro.obs import events
        log = tmp_path / "events.jsonl"
        events.enable_events(log)
        try:
            # All traffic into one far corner: PSI far above 0.2.
            service.predict_batch({
                "model": "groupA",
                "x": [99.0] * 50, "y": [159_000.0] * 50,
            })
            service.dispatch("stats", None)
        finally:
            events.disable_events()
        alerts = [
            json.loads(line) for line in log.read_text().splitlines()
            if json.loads(line)["type"] == "drift_alert"
        ]
        assert alerts, "expected a drift_alert event"
        assert alerts[0]["state"] == "alert"
        assert alerts[0]["model"] == "groupA"
        assert alerts[0]["psi"] > 0.2
        # A second stats read without a state change stays quiet.
        events.enable_events(tmp_path / "events2.jsonl")
        try:
            service.dispatch("stats", None)
        finally:
            events.disable_events()
        second = (tmp_path / "events2.jsonl")
        assert (not second.exists()
                or "drift_alert" not in second.read_text())

    def test_recording_failure_never_breaks_prediction(
            self, service, monkeypatch, caplog):
        def explode(*args, **kwargs):
            raise RuntimeError("monitor down")

        monkeypatch.setattr(
            type(service.monitors), "for_model", explode
        )
        with caplog.at_level("ERROR", logger="repro.serve.service"):
            body = service.predict(
                {"model": "groupA", "x": 25.0, "y": 60_000.0}
            )
        assert body["in_segment"]
        assert "traffic monitor recording failed" in caplog.text


class TestStatsOverHTTP:
    @pytest.fixture()
    def referenced_server(self, referenced_model_dir):
        server = create_server(referenced_model_dir, port=0,
                               refresh_interval=0)
        server.serve_in_background()
        yield server
        server.shutdown()
        server.server_close()

    def test_stats_endpoint_over_http(self, referenced_server):
        _post(referenced_server, "/predict_batch", {
            "model": "groupA",
            "x": [25.0, 25.0, 5.0], "y": [60_000.0, 99_000.0, 5_000.0],
        })
        status, body = _get(referenced_server, "/stats")
        assert status == 200
        entry = body["models"]["groupA"]
        assert entry["reference"]["available"]
        assert entry["current"]["points"] == 3
        assert np.isfinite(entry["current"]["drift_psi"]["joint"])

    def test_stats_while_hammering_predict(self, referenced_server):
        """Readers of /stats race writers of /predict without errors or
        torn snapshots."""
        errors = []
        stats_bodies = []
        rng = np.random.default_rng(41)
        points = rng.uniform(0.0, 100.0, (6, 40))

        def predictor(row):
            for x in points[row]:
                status, _ = _post(referenced_server, "/predict", {
                    "model": "groupA", "x": float(x), "y": 60_000.0,
                })
                if status != 200:
                    errors.append(("predict", status))

        def reader():
            for _ in range(20):
                status, body = _get(referenced_server, "/stats")
                if status != 200:
                    errors.append(("stats", status))
                else:
                    stats_bodies.append(body)

        threads = [
            threading.Thread(target=predictor, args=(row,))
            for row in range(6)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = _get(referenced_server, "/stats")[1]
        assert final["models"]["groupA"]["recent"]["points"] == 240
        # Every intermediate snapshot is internally consistent.
        for body in stats_bodies:
            recent = body["models"]["groupA"]["recent"]
            assert recent["points"] == sum(recent["x_counts"])
            assert recent["points"] >= recent["fallback_points"]


# ----------------------------------------------------------------------
# Graceful drain (threaded path)
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_begin_drain_rejects_scoring_with_503(self, model_dir):
        service = PredictionService(
            ModelRegistry(model_dir, refresh_interval=0).load()
        )
        assert not service.draining
        service.begin_drain()
        assert service.draining
        service.begin_drain()  # idempotent
        for endpoint in ("predict", "predict_batch", "explain"):
            status, body = service.dispatch(
                endpoint, {"model": "groupA", "x": 25, "y": 60_000}
            )
            assert status == 503
            assert "draining" in body["error"]
        # Read-only endpoints keep answering so orchestration can
        # watch the drain finish.
        assert service.healthz()["status"] == "draining"
        assert service.dispatch("models", {})[0] == 200

    def test_inflight_request_completes_during_drain(self, server):
        import time as time_module

        service = server.service
        entered = threading.Event()
        release = threading.Event()
        direct = service.scorer_for

        class SlowScorer:
            def __init__(self, scorer):
                self.scorer = scorer
                self.segmentation = scorer.segmentation

            def score_batch(self, x_values, y_values):
                entered.set()
                assert release.wait(30.0), "drain test never released"
                return self.scorer.score_batch(x_values, y_values)

            def score(self, x, y):
                entered.set()
                assert release.wait(30.0), "drain test never released"
                return self.scorer.score(x, y)

        service.scorer_for = lambda model: SlowScorer(direct(model))
        results = []
        inflight = threading.Thread(target=lambda: results.append(
            _post(server, "/predict",
                  {"model": "groupA", "x": 25, "y": 60_000})
        ))
        inflight.start()
        assert entered.wait(10.0)
        # Drain mid-flight: the slow request must complete, new
        # scoring work must bounce with 503.
        service.begin_drain()
        status, body = _post(server, "/predict",
                             {"model": "groupA", "x": 25, "y": 60_000})
        assert status == 503 and "draining" in body["error"]
        release.set()
        inflight.join(10.0)
        assert not inflight.is_alive()
        assert results and results[0][0] == 200
        assert results[0][1]["in_segment"]

    def test_drain_server_helper_stops_the_loop(self, model_dir):
        from repro.serve import drain_server

        server = create_server(model_dir, port=0, refresh_interval=0)
        thread = server.serve_in_background()
        assert _post(server, "/predict",
                     {"model": "groupA", "x": 25, "y": 60_000})[0] == 200
        drain_server(server, timeout=10.0)
        thread.join(10.0)
        assert not thread.is_alive()
        assert server.service.draining
        server.server_close()

    def test_sigterm_drains_run_server_promptly(self, model_dir):
        # Regression: the SIGTERM handler used to run drain_server on
        # the main thread — the one inside serve_forever — so the
        # blocking join stalled shutdown for the full drain timeout.
        import os
        import signal
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             str(model_dir), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            url = None
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail("server exited early:\n"
                                + proc.stdout.read().decode())
                line = proc.stdout.readline().decode()
                if "http://" in line:
                    url = "http://" + line.split("http://", 1)[1].strip()
                    break
            assert url is not None, "server never printed its URL"
            # Answering a request proves serve_forever is running — and
            # with it, that the SIGTERM handler is installed.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(url + "/healthz",
                                                timeout=2.0):
                        break
                except (urllib.error.URLError, OSError):
                    time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            # Well under the 30s drain timeout the old handler burned.
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            proc.stdout.close()

    def test_batched_server_end_to_end(self, model_dir):
        server = create_server(model_dir, port=0, refresh_interval=0)
        server.serve_in_background()
        try:
            statuses = []
            lock = threading.Lock()

            def call(row):
                status, body = _post(
                    server, "/predict",
                    {"model": "groupA", "x": 25 + row, "y": 60_000},
                )
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=call, args=(row,))
                       for row in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert statuses == [200] * 12
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Load shedding (fixed in-flight bound)
# ----------------------------------------------------------------------
class TestLoadShedding:
    def test_inflight_bound_sheds_with_429(self, model_dir, tmp_path,
                                           monkeypatch):
        from repro.obs import events, metrics
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "MAX_IN_FLIGHT", 1)
        registry = metrics.enable(metrics.MetricsRegistry())
        log = tmp_path / "events.jsonl"
        events.enable_events(log)
        server = create_server(model_dir, port=0, refresh_interval=0)
        server.serve_in_background()
        entered = threading.Event()
        release = threading.Event()
        direct = server.service.scorer_for

        class BlockingScorer:
            def __init__(self, scorer):
                self.scorer = scorer

            def score_batch(self, x_values, y_values):
                entered.set()
                assert release.wait(30.0), "shed test never released"
                return self.scorer.score_batch(x_values, y_values)

            def score(self, x, y):
                entered.set()
                assert release.wait(30.0), "shed test never released"
                return self.scorer.score(x, y)

        server.service.scorer_for = (
            lambda model: BlockingScorer(direct(model))
        )
        payload = {"model": "groupA", "x": 25, "y": 60_000}
        results = []
        holder = threading.Thread(target=lambda: results.append(
            _post(server, "/predict", payload)
        ))
        try:
            holder.start()
            assert entered.wait(10.0)
            request = urllib.request.Request(
                server.url + "/predict",
                data=json.dumps(payload).encode(),
                headers={"X-Arcs-Request-Id": "shed-probe-1"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=5)
            assert exc.value.code == 429
            assert "in-flight" in json.load(exc.value)["error"]
            counters = registry.snapshot()["counters"]
            assert counters['serve.shed_total{endpoint="predict"}'] == 1
        finally:
            release.set()
            holder.join(10.0)
            server.shutdown()
            server.server_close()
            events.disable_events()
            metrics.disable()
        assert not holder.is_alive()
        assert results and results[0][0] == 200
        sheds = [
            record for record in map(json.loads,
                                     log.read_text().splitlines())
            if record["type"] == "shed"
        ]
        assert len(sheds) == 1
        assert sheds[0]["request_id"] == "shed-probe-1"
        assert sheds[0]["endpoint"] == "predict"
