"""Tests for multi-process serving (repro.serve.workers).

Covers the pre-fork :class:`MultiProcessServer` end to end over live
HTTP — answers bit-identical to the scalar oracle, graceful drain,
worker restart, worker-side hot reload — and the fleet telemetry the
workers ship to the parent.
"""

import json
import multiprocessing
import os
import re
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.rules import ClusteredRule, Interval
from repro.obs import metrics
from repro.obs.prometheus import parse_prometheus
from repro.core.segmentation import Segmentation
from repro.perf.reference import score_batch_scalar
from repro.persistence import save_segmentation
from repro.serve import (
    ModelRegistry,
    MultiProcessServer,
    PredictionService,
    WorkerConfig,
    WorkerError,
)
from repro.serve.workers import _AdoptedSocketServer

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multi-process serving needs the fork start method",
)


def make_rule(x_lo, x_hi, y_lo, y_hi, *, rhs="A"):
    return ClusteredRule(
        "age", "salary", Interval(x_lo, x_hi), Interval(y_lo, y_hi),
        "group", rhs, support=0.1, confidence=0.9,
    )


@pytest.fixture()
def segmentation():
    return Segmentation.from_rules([
        make_rule(20, 40, 50_000, 100_000),
        make_rule(60, 80, 25_000, 75_000),
    ])


@pytest.fixture()
def model_dir(tmp_path, segmentation):
    directory = tmp_path / "models"
    directory.mkdir()
    save_segmentation(segmentation, directory / "groupA.json")
    return directory


def _get(url, path, timeout=5):
    try:
        with urllib.request.urlopen(url + path,
                                    timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _post(url, path, payload, timeout=5):
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request,
                                    timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def _wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout  # wall-clock: ok
    while time.monotonic() < deadline:  # wall-clock: ok
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# The pre-fork server, live over HTTP
# ----------------------------------------------------------------------
@pytest.fixture()
def pool(model_dir):
    server = MultiProcessServer(
        model_dir, port=0, workers=2, refresh_interval=-1,
    )
    server.start()
    yield server
    server.drain(timeout=15.0)


class TestMultiProcessServer:
    def test_rejects_bad_worker_count(self, model_dir):
        with pytest.raises(WorkerError, match="at least 1"):
            MultiProcessServer(model_dir, port=0, workers=0)

    def test_worker_that_loses_the_accept_race_returns(self, model_dir):
        """All workers wake on a connection, one accepts it.  A loser
        must go back to its select loop (where it sees drain commands)
        instead of blocking in accept() until the next connection."""
        server = MultiProcessServer(
            model_dir, port=0, workers=1, refresh_interval=-1,
        )
        listen_socket = server._socket
        adopted = _AdoptedSocketServer(
            listen_socket,
            PredictionService(
                ModelRegistry(model_dir, refresh_interval=-1).load()
            ),
        )
        attempt = threading.Thread(
            target=adopted._handle_request_noblock, daemon=True,
        )
        try:
            assert listen_socket.getblocking() is False
            attempt.start()
            attempt.join(timeout=1.0)
            assert not attempt.is_alive(), (
                "accept() blocked with no pending connection"
            )
        finally:
            if attempt.is_alive():
                # Release the stuck accept() so the thread can finish.
                with socket.create_connection(
                    listen_socket.getsockname()[:2], timeout=5
                ):
                    pass
                attempt.join(timeout=5.0)
            server.drain(timeout=5.0)

    def test_serves_predictions_bit_identical(self, pool,
                                              segmentation):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 100, 256)
        y = rng.uniform(0, 120_000, 256)
        status, body = _post(pool.url, "/predict_batch", {
            "model": "groupA", "x": x.tolist(), "y": y.tolist(),
        })
        assert status == 200
        expected = score_batch_scalar(segmentation, x, y)
        assert np.array_equal(
            np.asarray(body["rule"], dtype=np.int64), expected
        )

    def test_healthz_reports_worker_identity(self, pool):
        status, body = _get(pool.url, "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["workers"] == 2
        assert body["worker"] in (0, 1)

    def test_models_loaded_gauge_in_exposition(self, pool):
        request = urllib.request.Request(
            pool.url + "/metrics?format=prometheus",
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            text = response.read().decode()
        assert "arcs_serve_models_loaded" in text

    def test_drain_joins_workers(self, model_dir):
        server = MultiProcessServer(
            model_dir, port=0, workers=2, refresh_interval=-1,
        )
        server.start()
        pids = server.worker_pids()
        server.drain(timeout=15.0)
        assert server.wait(timeout=1.0)
        for pid in pids:
            # A zombie still answers signal 0 until reaped; join did
            # the reaping, so the pid must be gone (or recycled).
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # New scoring work is refused outright: the socket is closed.
        with pytest.raises(OSError):
            _post(server.url, "/predict",
                  {"model": "groupA", "x": 25, "y": 60_000}, timeout=2)
        server.drain()  # idempotent

    def test_drain_disables_the_registry_start_installed(self, model_dir):
        metrics.disable()  # start() installs a registry only if none is on
        server = MultiProcessServer(
            model_dir, port=0, workers=1, refresh_interval=-1,
        )
        server.start()
        assert metrics.active() is not None
        server.drain(timeout=15.0)
        assert metrics.active() is None

    def test_drain_keeps_the_embedding_process_registry(self, model_dir):
        registry = metrics.enable(metrics.MetricsRegistry())
        try:
            server = MultiProcessServer(
                model_dir, port=0, workers=1, refresh_interval=-1,
            )
            server.start()
            assert metrics.active() is registry
            server.drain(timeout=15.0)
            assert metrics.active() is registry
            # The parent's own instruments fed the registry it found.
            assert registry.snapshot()["gauges"]["serve.workers"] == 0
        finally:
            metrics.disable()

    def test_watchdog_restarts_killed_worker(self, pool):
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(
            lambda: victim not in pool.worker_pids()
            and len(pool.worker_pids()) == 2
        )

        def answers():
            try:
                status, _ = _get(pool.url, "/healthz", timeout=2)
                return status == 200
            except OSError:
                return False

        assert _wait_until(answers)

    def test_hot_reload_serves_new_model(self, model_dir):
        # Interval 0 re-checks the directory on every request, so each
        # worker's registry sees the new artefact on its next request.
        server = MultiProcessServer(
            model_dir, port=0, workers=2, refresh_interval=0,
        ).start()
        try:
            second = Segmentation.from_rules(
                [make_rule(0, 10, 0, 10, rhs="B")]
            )
            save_segmentation(second, model_dir / "groupB.json")
            # Each call is a fresh connection, and the kernel spreads
            # accepts across workers: every answer must already know
            # groupB, whichever worker gives it.
            for _ in range(8):
                status, body = _post(server.url, "/predict",
                                     {"model": "groupB", "x": 5, "y": 5})
                assert status == 200, body
                assert body["in_segment"]
        finally:
            server.drain(timeout=15.0)


# ----------------------------------------------------------------------
# Fleet telemetry over live HTTP
# ----------------------------------------------------------------------
def _exchange(url, path, headers=None, payload=None, timeout=5):
    """(status, response headers, body bytes) — for header assertions."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request,
                                    timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestFleetTelemetry:
    @pytest.fixture()
    def fleet_pool(self, model_dir, tmp_path):
        events_path = tmp_path / "events.jsonl"
        server = MultiProcessServer(
            model_dir, port=0, workers=2, refresh_interval=-1,
            config=WorkerConfig(telemetry_interval=0.1,
                                events_out=str(events_path)),
        )
        server.start()
        yield server, events_path
        server.drain(timeout=15.0)

    @staticmethod
    def _worker_predict_sum(fleet):
        return sum(
            int(entry["counters"].get("serve.requests_predict", 0))
            for entry in fleet["workers"].values()
        )

    def _converged(self, url, expected):
        def check():
            status, fleet = _get(url, "/fleet")
            return (status == 200 and fleet.get("mode") == "fleet"
                    and len(fleet["workers"]) == 2
                    and self._worker_predict_sum(fleet) == expected)
        return check

    def test_any_worker_scrape_reports_the_exact_fleet_sum(
            self, fleet_pool):
        server, _ = fleet_pool
        total = 24
        for _ in range(total):
            status, _body = _post(server.url, "/predict",
                                  {"model": "groupA", "x": 25,
                                   "y": 60_000})
            assert status == 200
        # Wait for both workers' telemetry to reach the parent and the
        # re-published document to cover every predict sent.
        assert _wait_until(self._converged(server.url, total))
        status, fleet = _get(server.url, "/fleet")
        assert status == 200
        assert {entry["pid"] for entry in fleet["workers"].values()} \
            == set(server.worker_pids())
        for entry in fleet["workers"].values():
            assert entry["spawn_generation"] == 1
            assert entry["restarts"] == 0
            assert entry["uptime_seconds"] > 0
            assert entry["draining"] is False
            assert entry["last_snapshot_age_seconds"] >= 0
            assert "models" in entry
            assert entry["events"]["emitted"] > 0
        assert fleet["published_age_seconds"] >= 0
        # Two scrapes land wherever the kernel round-robins the accepts;
        # the predict-family counter must be the same exact fleet-wide
        # number from either worker, equal to the per-worker sum.
        for _ in range(2):
            status, _headers, body = _exchange(
                server.url, "/metrics?format=prometheus"
            )
            assert status == 200
            families = parse_prometheus(body.decode())
            samples = (
                families["arcs_serve_requests_predict_total"]["samples"]
            )
            assert [(labels, float(value))
                    for _n, labels, value in samples] \
                == [({}, float(total))]
            # Gauges in the fleet view are per-source readings: every
            # sample carries a worker label, none is a bare sum.
            for family in families.values():
                if family["kind"] != "gauge":
                    continue
                for _name, labels, _value in family["samples"]:
                    assert "worker" in labels

    def test_every_worker_reports_the_models_it_serves(self, fleet_pool):
        server, _ = fleet_pool
        (model,) = server.registry.models()

        def reported():
            status, fleet = _get(server.url, "/fleet")
            return (status == 200 and fleet.get("mode") == "fleet"
                    and len(fleet["workers"]) == 2
                    and all(entry["models"] == [model.model_id]
                            for entry in fleet["workers"].values()))

        assert _wait_until(reported)

    def test_metrics_scope_local_still_serves_one_process(
            self, fleet_pool):
        server, _ = fleet_pool
        status, body = _get(server.url, "/metrics?scope=local")
        assert status == 200
        assert body["scope"] == "local"
        status, _body = _get(server.url, "/metrics?scope=cluster")
        assert status == 400

    def test_request_id_round_trips_into_the_access_log(
            self, fleet_pool):
        server, events_path = fleet_pool
        inbound = "it-correlates-0042"
        status, headers, _body = _exchange(
            server.url, "/predict",
            headers={"X-Arcs-Request-Id": inbound},
            payload={"model": "groupA", "x": 25, "y": 60_000},
        )
        assert status == 200
        assert headers["X-Arcs-Request-Id"] == inbound

        def logged(request_id):
            def check():
                if not events_path.exists():
                    return False
                for line in events_path.read_text().splitlines():
                    event = json.loads(line)
                    if (event.get("request_id") == request_id
                            and event["type"] == "request"):
                        assert event["endpoint"] == "predict"
                        assert event["pid"] in server.worker_pids()
                        assert event["worker"] in (0, 1)
                        return True
                return False
            return check

        assert _wait_until(logged(inbound))
        # Without an inbound header the server assigns one and still
        # echoes it back; the same generated id lands in the log.
        status, headers, _body = _exchange(
            server.url, "/predict",
            payload={"model": "groupA", "x": 25, "y": 60_000},
        )
        assert status == 200
        generated = headers["X-Arcs-Request-Id"]
        assert re.fullmatch(r"[0-9a-f]{16}", generated)
        assert _wait_until(logged(generated))

    def test_concurrent_worker_sinks_stay_line_attributable(
            self, fleet_pool):
        server, events_path = fleet_pool
        total, threads = 60, 6

        def blast(count):
            for _ in range(count):
                _post(server.url, "/predict",
                      {"model": "groupA", "x": 25, "y": 60_000})

        pool = [threading.Thread(target=blast, args=(total // threads,))
                for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        def requests_logged():
            if not events_path.exists():
                return False
            lines = events_path.read_text().splitlines()
            return sum(
                1 for line in lines
                if json.loads(line).get("type") == "request"
                and json.loads(line).get("endpoint") == "predict"
            ) >= total

        assert _wait_until(requests_logged)
        pids = set(server.worker_pids())
        for line in events_path.read_text().splitlines():
            event = json.loads(line)  # every line is complete JSON
            assert event["pid"] in pids
            assert event["worker"] in (0, 1)

    def test_healthz_names_the_worker_process(self, fleet_pool):
        server, _ = fleet_pool
        status, body = _get(server.url, "/healthz")
        assert status == 200
        assert body["pid"] in server.worker_pids()
        assert body["worker"] in (0, 1)
        assert body["workers"] == 2
        assert body["spawn_generation"] == 1
        assert body["uptime_seconds"] > 0

    def test_fleet_counters_stay_monotone_across_a_restart(
            self, fleet_pool):
        server, _ = fleet_pool
        total = 10
        for _ in range(total):
            status, _body = _post(server.url, "/predict",
                                  {"model": "groupA", "x": 25,
                                   "y": 60_000})
            assert status == 200
        assert _wait_until(self._converged(server.url, total))
        victim = server.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(
            lambda: victim not in server.worker_pids()
            and len(server.worker_pids()) == 2
        )
        # The dead incarnation's counters were folded into the slot
        # base: the fleet-wide predict total never dips, and once the
        # respawned worker's telemetry is re-published the slot shows
        # its new incarnation.
        assert _wait_until(self._converged(server.url, total))

        def restart_published():
            status, fleet = _get(server.url, "/fleet")
            if status != 200 or fleet.get("mode") != "fleet":
                return False
            assert self._worker_predict_sum(fleet) == total
            restarted = [entry for entry in fleet["workers"].values()
                         if entry["restarts"] == 1]
            return (len(restarted) == 1
                    and restarted[0]["spawn_generation"] == 2)

        assert _wait_until(restart_published)

    def test_cli_fleet_command_renders_the_surface(self, fleet_pool,
                                                   capsys):
        server, _ = fleet_pool
        assert _wait_until(self._converged(server.url, 0))
        assert cli_main(["fleet", server.url]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out
        for pid in server.worker_pids():
            assert str(pid) in out
        assert cli_main(["fleet", server.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "fleet"
