"""Tests for multi-process serving (repro.serve.workers).

Covers the shared-memory table codec (bit-identical to the compiled
scorer and the scalar oracle), the publish/ack/retire protocol, and the
pre-fork :class:`MultiProcessServer` end to end over live HTTP —
including graceful drain, worker restart and hot reload.
"""

import gc
import json
import multiprocessing
import os
import re
import signal
import socket
import struct
import threading
import time
import urllib.error
import urllib.request
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.rules import ClusteredRule, Interval
from repro.obs.prometheus import parse_prometheus
from repro.core.segmentation import Segmentation
from repro.perf.reference import score_batch_scalar
from repro.persistence import save_segmentation
from repro.serve import (
    ModelRegistry,
    MultiProcessServer,
    PredictionService,
    SharedScorerCache,
    WorkerConfig,
    WorkerError,
    compile_scorer,
)
from repro.serve.workers import (
    ScorerPublisher,
    _AdoptedSocketServer,
    _close_mapping_when_views_die,
    attach_scorer,
    block_name,
    publish_tables,
)

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
# Shared-memory codec
# ----------------------------------------------------------------------
class TestSharedTables:
    def test_attach_round_trips_bit_identical(self, segmentation):
        scorer = compile_scorer(segmentation)
        name = f"arcstest{os.getpid():x}_roundtrip"
        shm = publish_tables(scorer, name)
        try:
            attached, handle = attach_scorer(name, segmentation)
            try:
                assert np.array_equal(attached.x_edges, scorer.x_edges)
                assert np.array_equal(attached.y_edges, scorer.y_edges)
                assert np.array_equal(attached.table, scorer.table)
                rng = np.random.default_rng(7)
                x = rng.uniform(0, 100, 1000)
                y = rng.uniform(0, 120_000, 1000)
                expected = score_batch_scalar(segmentation, x, y)
                assert np.array_equal(
                    attached.score_batch(x, y), expected
                )
                assert np.array_equal(
                    scorer.score_batch(x, y), expected
                )
            finally:
                handle.close()
        finally:
            shm.close()
            shm.unlink()

    def test_attached_tables_are_read_only(self, segmentation):
        scorer = compile_scorer(segmentation)
        name = f"arcstest{os.getpid():x}_readonly"
        shm = publish_tables(scorer, name)
        try:
            attached, handle = attach_scorer(name, segmentation)
            try:
                with pytest.raises(ValueError):
                    attached.table[0, 0] = 99
            finally:
                handle.close()
        finally:
            shm.close()
            shm.unlink()

    def test_attach_missing_block_raises(self, segmentation):
        with pytest.raises(FileNotFoundError):
            attach_scorer(f"arcstest{os.getpid():x}_ghost",
                          segmentation)

    def test_publish_replaces_stale_block(self, segmentation):
        scorer = compile_scorer(segmentation)
        name = f"arcstest{os.getpid():x}_stale"
        first = publish_tables(scorer, name)
        first.close()  # simulate a crashed publisher: never unlinked
        second = publish_tables(scorer, name)
        try:
            attached, handle = attach_scorer(name, segmentation)
            handle.close()
        finally:
            second.close()
            second.unlink()

    def test_header_never_overlaps_first_array(self):
        # The header's offset digits feed back into its own encoded
        # length; sweep header sizes (rule counts) and assert the
        # stored header always fits below the first array region and
        # the tables round-trip bit-identically.
        for n_rules in (1, 3, 7, 15, 31):
            seg = Segmentation.from_rules([
                make_rule(i, i + 0.5, 10.0 * i, 10.0 * i + 5.0)
                for i in range(n_rules)
            ])
            scorer = compile_scorer(seg)
            name = f"arcstest{os.getpid():x}_fix{n_rules}"
            shm = publish_tables(scorer, name)
            try:
                (length,) = struct.unpack_from("<Q", shm.buf, 0)
                header = json.loads(bytes(shm.buf[8:8 + length]))
                first_offset = min(
                    spec["offset"] for spec in header.values()
                )
                assert 8 + length <= first_offset
                attached, _handle = attach_scorer(name, seg)
                assert np.array_equal(attached.table, scorer.table)
                assert np.array_equal(attached.x_edges, scorer.x_edges)
                assert np.array_equal(attached.y_edges, scorer.y_edges)
            finally:
                shm.close()
                shm.unlink()


class TestDeferredMappingClose:
    def test_mapping_survives_until_last_view_dies(self):
        shm = SharedMemory(
            create=True, name=f"arcstest{os.getpid():x}_defer",
            size=1024,
        )
        name = shm.name
        views = [
            np.ndarray((8,), dtype=np.uint8, buffer=shm.buf,
                       offset=8 * i)
            for i in range(3)
        ]
        views[0][:] = 3
        _close_mapping_when_views_die(shm, tuple(views))
        survivor = views.pop(0)
        del views
        del shm  # SharedMemory.__del__ would close; finalizers hold it
        gc.collect()
        # Two views died and the handle was dropped, but the surviving
        # view must still read through a live mapping (a dangling one
        # would segfault the process, not raise).
        assert survivor[0] == 3
        del survivor
        gc.collect()
        # The close fired (not the unlink): the name is re-attachable.
        cleanup = SharedMemory(name=name)
        cleanup.close()
        cleanup.unlink()


class TestSharedScorerCache:
    def test_falls_back_to_local_compile(self, model_dir,
                                         segmentation):
        registry = ModelRegistry(model_dir, refresh_interval=-1).load()
        cache = SharedScorerCache(f"arcstest{os.getpid():x}nope")
        try:
            model = registry.models()[0]
            scorer = cache.resolve(model)
            x, y = [25.0, 5.0], [60_000.0, 1.0]
            assert np.array_equal(
                scorer.score_batch(x, y),
                score_batch_scalar(segmentation, x, y),
            )
            # Cached: same object on the next resolve.
            assert cache.resolve(model) is scorer
        finally:
            cache.close()

    def test_prefers_published_block(self, model_dir):
        registry = ModelRegistry(model_dir, refresh_interval=-1).load()
        model = registry.models()[0]
        prefix = f"arcstest{os.getpid():x}pub"
        scorer = compile_compile = compile_scorer(model.segmentation)
        shm = publish_tables(
            scorer, block_name(prefix, model.model_id)
        )
        cache = SharedScorerCache(prefix)
        try:
            resolved = cache.resolve(model)
            # An attached scorer's arrays live in the shared block,
            # not in the LRU-cached compile.
            assert resolved is not compile_compile
            assert np.array_equal(resolved.table, scorer.table)
        finally:
            cache.close()
            shm.close()
            shm.unlink()

    def test_sync_keeps_mapping_alive_for_inflight_scorers(
            self, model_dir):
        registry = ModelRegistry(model_dir, refresh_interval=-1).load()
        model = registry.models()[0]
        prefix = f"arcstest{os.getpid():x}inflt"
        published = publish_tables(
            compile_scorer(model.segmentation),
            block_name(prefix, model.model_id),
        )
        cache = SharedScorerCache(prefix)
        try:
            scorer = cache.resolve(model)
            # A hot reload drops the model while this "request" still
            # holds the scorer: the entry goes away, but the shared
            # views must stay valid (a closed mapping would segfault).
            cache.sync(set())
            with cache._lock:
                assert cache._entries == {}
            x, y = [25.0, 70.0], [60_000.0, 30_000.0]
            assert np.array_equal(
                scorer.score_batch(x, y),
                score_batch_scalar(model.segmentation, x, y),
            )
        finally:
            cache.close()
            published.close()
            published.unlink()

    def test_corrupt_block_falls_back_to_local_compile(
            self, model_dir, segmentation):
        registry = ModelRegistry(model_dir, refresh_interval=-1).load()
        model = registry.models()[0]
        prefix = f"arcstest{os.getpid():x}bad"
        shm = SharedMemory(
            create=True, name=block_name(prefix, model.model_id),
            size=1024,
        )
        shm.buf[:8] = struct.pack("<Q", 64)
        shm.buf[8:72] = b"{" * 64  # torn header: not valid JSON
        cache = SharedScorerCache(prefix)
        try:
            scorer = cache.resolve(model)  # must degrade, not raise
            x, y = [25.0], [60_000.0]
            assert np.array_equal(
                scorer.score_batch(x, y),
                score_batch_scalar(segmentation, x, y),
            )
        finally:
            cache.close()
            shm.close()
            shm.unlink()


class TestScorerPublisher:
    def test_sync_publishes_and_retires(self, model_dir, tmp_path,
                                        segmentation):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        publisher = ScorerPublisher(f"arcstest{os.getpid():x}ret")
        try:
            generation = publisher.sync(registry.models())
            model_id = registry.models()[0].model_id
            name = publisher.block_for(model_id)
            attached, handle = attach_scorer(name, segmentation)
            handle.close()
            # Drop the artefact: the next sync retires its block, but
            # the name survives until every worker acks.
            (model_dir / "groupA.json").unlink()
            registry.refresh()
            retire_generation = publisher.sync(registry.models())
            assert retire_generation == generation + 1
            publisher.note_ack(0, generation)
            attached, handle = attach_scorer(name, segmentation)
            handle.close()
            # Both (all) workers past the retire generation: unlinked.
            publisher.note_ack(0, retire_generation)
            with pytest.raises(FileNotFoundError):
                attach_scorer(name, segmentation)
        finally:
            publisher.close()

    def test_externally_removed_block_tolerated(self, model_dir,
                                                segmentation):
        # An operator (or a tmpfs cleaner) removed the file under
        # /dev/shm: retirement bookkeeping and shutdown must both
        # survive, not wedge the ack loop or hang drain.
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        publisher = ScorerPublisher(f"arcstest{os.getpid():x}ext")
        try:
            generation = publisher.sync(registry.models())
            model_id = registry.models()[0].model_id
            name = publisher.block_for(model_id)
            stolen = SharedMemory(name=name)
            stolen.close()
            stolen.unlink()
            (model_dir / "groupA.json").unlink()
            registry.refresh()
            retire_generation = publisher.sync(registry.models())
            assert retire_generation == generation + 1
            publisher.note_ack(0, retire_generation)  # must not raise
        finally:
            publisher.close()  # must not raise either

    def test_spawned_but_unacked_worker_blocks_unlink(
            self, model_dir, segmentation):
        # The startup window: worker 1 is forked (registered) but has
        # never acked; a retirement must wait for its first ack even
        # though every worker that HAS acked is already past it.
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        publisher = ScorerPublisher(f"arcstest{os.getpid():x}seed")
        try:
            publisher.sync(registry.models())
            publisher.register_worker(0)
            publisher.register_worker(1)
            name = publisher.block_for(registry.models()[0].model_id)
            (model_dir / "groupA.json").unlink()
            registry.refresh()
            retire_generation = publisher.sync(registry.models())
            publisher.note_ack(0, retire_generation)
            attached, handle = attach_scorer(name, segmentation)
            handle.close()
            publisher.note_ack(1, retire_generation)
            with pytest.raises(FileNotFoundError):
                attach_scorer(name, segmentation)
        finally:
            publisher.close()

    def test_dead_worker_acks_reset(self, model_dir, segmentation):
        registry = ModelRegistry(model_dir, refresh_interval=0).load()
        publisher = ScorerPublisher(f"arcstest{os.getpid():x}rst")
        try:
            generation = publisher.sync(registry.models())
            publisher.note_ack(0, generation)
            publisher.note_ack(1, generation)
            publisher.reset_worker(1)
            model_id = registry.models()[0].model_id
            name = publisher.block_for(model_id)
            (model_dir / "groupA.json").unlink()
            registry.refresh()
            retire_generation = publisher.sync(registry.models())
            publisher.note_ack(0, retire_generation)
            # Worker 1 restarted and has not re-acked: block stays.
            attached, handle = attach_scorer(name, segmentation)
            handle.close()
            publisher.note_ack(1, retire_generation)
            with pytest.raises(FileNotFoundError):
                attach_scorer(name, segmentation)
        finally:
            publisher.close()


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

    def test_drain_joins_workers_and_unlinks_blocks(self, model_dir):
        server = MultiProcessServer(
            model_dir, port=0, workers=2, refresh_interval=-1,
        )
        server.start()
        pids = server.worker_pids()
        model_id = server.registry.models()[0].model_id
        shm_path = Path("/dev/shm") / server.publisher.block_for(
            model_id
        )
        if Path("/dev/shm").is_dir():
            assert shm_path.exists()
        server.drain(timeout=15.0)
        assert server.wait(timeout=1.0)
        for pid in pids:
            # A zombie still answers signal 0 until reaped; join did
            # the reaping, so the pid must be gone (or recycled).
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        if Path("/dev/shm").is_dir():
            assert not shm_path.exists()
        # New scoring work is refused outright: the socket is closed.
        with pytest.raises(OSError):
            _post(server.url, "/predict",
                  {"model": "groupA", "x": 25, "y": 60_000}, timeout=2)
        server.drain()  # idempotent

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

    def test_hot_reload_serves_new_model(self, pool, model_dir):
        second = Segmentation.from_rules(
            [make_rule(0, 10, 0, 10, rhs="B")]
        )
        save_segmentation(second, model_dir / "groupB.json")
        assert pool.poll_models()

        def new_model_answers():
            status, body = _post(pool.url, "/predict",
                                 {"model": "groupB", "x": 5, "y": 5})
            return status == 200 and body["in_segment"]

        # Workers pick up the sync on their control loop; both must
        # converge (the kernel round-robins accepts, so poll plenty).
        assert _wait_until(new_model_answers)
        assert _wait_until(lambda: all(
            new_model_answers() for _ in range(8)
        ))


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
            assert "ack_latency_seconds" in entry
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
