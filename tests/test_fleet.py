"""Tests for fleet telemetry (repro.obs.fleet).

Covers the kind-aware merge policy the aggregator relies on (counters
and histogram buckets sum; gauges are re-labeled per source, never
summed; a restarted worker's fresh registry still accumulates
monotonically), the :class:`FleetAggregator` lifecycle surface, and the
atomically published document a :class:`FleetView` reads back.
"""

import json

import pytest

from repro.obs.fleet import FLEET_FORMAT, FleetAggregator, FleetView
from repro.obs.metrics import MetricsRegistry


def payload(pid, incarnation, registry, *, uptime=1.5, draining=False,
            events=None, models=("0123456789ab",)):
    """One worker telemetry message, as ``_worker_main`` ships it."""
    return {
        "pid": pid,
        "incarnation": incarnation,
        "uptime_seconds": uptime,
        "draining": draining,
        "snapshot": registry.snapshot(),
        "events": events,
        "models": list(models),
    }


# ----------------------------------------------------------------------
# merge_snapshot under the gauge policy
# ----------------------------------------------------------------------
class TestMergeSnapshotGaugePolicy:
    def test_gauges_never_sum(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3.0)
        registry.merge_snapshot({"gauges": {"depth": 5.0}})
        # Last wins — a merged gauge overwrites; 8.0 would mean a sum.
        assert registry.gauge("depth").value == 5.0

    def test_relabel_lands_each_source_on_its_own_series(self):
        parent = MetricsRegistry()
        for worker, depth in (("0", 3.0), ("1", 7.0)):
            parent.merge_snapshot(
                {"gauges": {"depth": depth}},
                relabel_gauges={"worker": worker},
            )
        assert parent.snapshot()["gauges"] == {
            'depth{worker="0"}': 3.0,
            'depth{worker="1"}': 7.0,
        }

    def test_relabel_composes_with_existing_labels(self):
        worker = MetricsRegistry()
        worker.set_gauge("drift", 0.5, labels={"model": "m"})
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot(),
                              relabel_gauges={"worker": "0"})
        assert parent.snapshot()["gauges"] == {
            'drift{model="m",worker="0"}': 0.5,
        }

    def test_relabel_does_not_touch_counters_or_histograms(self):
        parent = MetricsRegistry()
        for worker in ("0", "1"):
            source = MetricsRegistry()
            source.inc("requests", 2)
            source.observe("seconds", 0.1)
            parent.merge_snapshot(source.snapshot(),
                                  relabel_gauges={"worker": worker})
        assert parent.counter("requests").value == 4
        assert parent.histogram("seconds").count == 2
        assert 'requests{worker="0"}' not in parent.snapshot()["counters"]

    def test_mismatched_histogram_bucket_bounds_raise(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("seconds", buckets=(0.1, 1.0)).observe(0.05)
        b.histogram("seconds", buckets=(0.2, 2.0)).observe(0.05)
        with pytest.raises(ValueError, match="bucket"):
            a.merge_snapshot(b.snapshot())

    def test_restarted_worker_counters_accumulate_monotonically(self):
        # A respawned worker ships a *fresh* registry starting at zero;
        # merging it into running totals must only ever add.
        parent = MetricsRegistry()
        first = MetricsRegistry()
        first.inc("requests", 5)
        parent.merge_snapshot(first.snapshot())
        restarted = MetricsRegistry()  # fresh after the watchdog respawn
        restarted.inc("requests", 2)
        parent.merge_snapshot(restarted.snapshot())
        assert parent.counter("requests").value == 7


# ----------------------------------------------------------------------
# FleetAggregator
# ----------------------------------------------------------------------
class TestFleetAggregator:
    def two_worker_aggregator(self):
        aggregator = FleetAggregator()
        aggregator.register_worker(0, 100, 1)
        aggregator.register_worker(1, 101, 1)
        w0, w1 = MetricsRegistry(), MetricsRegistry()
        w0.inc("serve.requests", 4)
        w0.set_gauge("serve.models_loaded", 2.0)
        w0.observe("serve.batch_size", 8.0)
        w1.inc("serve.requests", 6)
        w1.set_gauge("serve.models_loaded", 5.0)
        w1.observe("serve.batch_size", 16.0)
        aggregator.absorb(0, payload(100, 1, w0))
        aggregator.absorb(1, payload(101, 1, w1))
        return aggregator

    def test_counters_sum_gauges_relabel_histograms_merge(self):
        aggregate = self.two_worker_aggregator().aggregate()
        assert aggregate["counters"]["serve.requests"] == 10
        assert aggregate["gauges"] == {
            'serve.models_loaded{worker="0"}': 2.0,
            'serve.models_loaded{worker="1"}': 5.0,
        }
        assert aggregate["histograms"]["serve.batch_size"]["count"] == 2

    def test_parent_snapshot_rides_along_under_its_own_label(self):
        aggregator = self.two_worker_aggregator()
        parent = MetricsRegistry()
        parent.inc("fleet.snapshots_absorbed", 2)
        parent.set_gauge("serve.workers", 2.0)
        aggregate = aggregator.aggregate(parent.snapshot())
        assert aggregate["counters"]["fleet.snapshots_absorbed"] == 2
        assert aggregate["gauges"]['serve.workers{worker="parent"}'] == 2.0
        assert "serve.workers" not in aggregate["gauges"]

    def test_restart_folds_counters_and_drops_gauges(self):
        aggregator = FleetAggregator()
        aggregator.register_worker(0, 100, 1)
        first = MetricsRegistry()
        first.inc("serve.requests", 5)
        first.set_gauge("serve.models_loaded", 9.0)
        aggregator.absorb(0, payload(100, 1, first,
                                     models=("0123456789ab",)))
        entry = aggregator.build_document()["workers"]["0"]
        assert entry["models"] == ["0123456789ab"]
        # Watchdog replaces the crashed worker: new pid, incarnation 2.
        aggregator.note_restart(0)
        aggregator.register_worker(0, 200, 2)
        # The new incarnation has reported no models yet.
        assert aggregator.build_document()["workers"]["0"]["models"] \
            is None
        between = aggregator.aggregate()
        # The dead incarnation's counters survive; its gauge does not —
        # a dead process has no current queue depth.
        assert between["counters"]["serve.requests"] == 5
        assert between["gauges"] == {}
        restarted = MetricsRegistry()  # fresh registry, counts from 0
        restarted.inc("serve.requests", 2)
        aggregator.absorb(0, payload(200, 2, restarted,
                                     models=("cafef00d0000",
                                             "feedbeef0000")))
        aggregate = aggregator.aggregate()
        assert aggregate["counters"]["serve.requests"] == 7
        entry = aggregator.build_document()["workers"]["0"]
        assert entry["models"] == ["cafef00d0000", "feedbeef0000"]
        assert entry["pid"] == 200
        assert entry["spawn_generation"] == 2
        assert entry["restarts"] == 1
        assert entry["counters"]["serve.requests"] == 7

    def test_absorb_with_newer_incarnation_folds_without_register(self):
        # Telemetry can outrun the watchdog's register call; the payload
        # itself carries the incarnation and must fold just the same.
        aggregator = FleetAggregator()
        aggregator.register_worker(0, 100, 1)
        first = MetricsRegistry()
        first.inc("serve.requests", 3)
        aggregator.absorb(0, payload(100, 1, first))
        second = MetricsRegistry()
        second.inc("serve.requests", 1)
        aggregator.absorb(0, payload(200, 2, second))
        assert aggregator.aggregate()["counters"]["serve.requests"] == 4

    def test_document_shape_and_generation(self):
        aggregator = self.two_worker_aggregator()
        document = aggregator.build_document()
        assert document["format"] == FLEET_FORMAT
        assert document["generation"] == 1
        assert document["snapshots_absorbed"] == 2
        assert set(document["workers"]) == {"0", "1"}
        for entry in document["workers"].values():
            for field in ("pid", "spawn_generation", "restarts",
                          "uptime_seconds", "draining", "spawned_unix",
                          "last_snapshot_unix", "models", "events",
                          "counters"):
                assert field in entry
        assert aggregator.build_document()["generation"] == 2
        json.dumps(document)  # stays JSON-ready


# ----------------------------------------------------------------------
# Publish + FleetView
# ----------------------------------------------------------------------
class TestFleetPublishAndView:
    def aggregator(self):
        aggregator = FleetAggregator()
        aggregator.register_worker(0, 100, 1)
        registry = MetricsRegistry()
        registry.inc("serve.requests", 4)
        aggregator.absorb(0, payload(100, 1, registry))
        return aggregator

    def test_view_returns_none_before_first_publish(self, tmp_path):
        assert FleetView(tmp_path / "fleet.json").read() is None

    def test_publish_then_read_round_trips(self, tmp_path):
        path = tmp_path / "fleet.json"
        aggregator = self.aggregator()
        aggregator.publish(path)
        view = FleetView(path)
        document = view.read()
        assert document["format"] == FLEET_FORMAT
        assert document["generation"] == 1
        assert document["aggregate"]["counters"]["serve.requests"] == 4
        # No temp file left behind by the write-then-replace.
        assert list(tmp_path.iterdir()) == [path]
        aggregator.publish(path)
        assert view.read()["generation"] == 2

    def test_read_is_cached_until_the_file_changes(self, tmp_path):
        path = tmp_path / "fleet.json"
        self.aggregator().publish(path)
        view = FleetView(path)
        assert view.read() is view.read()

    def test_garbage_keeps_the_last_complete_document(self, tmp_path):
        path = tmp_path / "fleet.json"
        self.aggregator().publish(path)
        view = FleetView(path)
        good = view.read()
        path.write_text("{torn", encoding="utf-8")
        assert view.read() == good
        path.write_text(json.dumps({"format": "something-else"}),
                        encoding="utf-8")
        assert view.read() == good

    def test_second_publish_reports_the_previous_wall_time(self, tmp_path):
        path = tmp_path / "fleet.json"
        aggregator = self.aggregator()
        first = aggregator.publish(path)
        assert first["last_publish_seconds"] is None
        second = aggregator.publish(path)
        assert second["last_publish_seconds"] > 0.0
