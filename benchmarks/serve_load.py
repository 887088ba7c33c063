#!/usr/bin/env python
"""Serving load harness: throughput + latency SLOs over live HTTP.

Stands up the prediction server twice against the same generated model
directory — once as the threaded single process (``--workers 0``
semantics) and once as the pre-fork multi-worker front end — and drives
each with forked client processes running keep-alive connections.  For
every scenario it measures client-side throughput and p50/p95/p99
latency, scrapes the server's own ``serve.request_seconds`` labeled
histogram, and first proves the served answers bit-identical to the
scalar oracle (:func:`repro.perf.reference.score_batch_scalar`).

The multi-process scenario runs with fleet telemetry enabled (a
sub-second snapshot interval), so its latency gates hold *with* the
cross-worker aggregation running; the report records what each
aggregation interval cost under ``fleet_telemetry`` (the
``fleet.publish_seconds`` histogram plus ``/fleet`` ship counts).

The measurements are gated by the ``serving`` section of
``benchmarks/perf_budgets.json``:

* ``max_p95_seconds`` — client-observed p95 per scenario, always
  enforced;
* ``min_throughput_ratio`` — multi-worker over threaded throughput,
  enforced only on machines with at least ``min_cores`` cores (the
  ratio is meaningless on a single-core box; it is still measured and
  recorded there, with status ``skipped``).

The report lands at ``BENCH_serving.json`` in the repo root — written
even when the run crashes (``"status": "error"``), mirroring the
perf-budget harness, and CI fails loudly when the file is missing.

Usage::

    python benchmarks/serve_load.py            # full load (~20s serving)
    python benchmarks/serve_load.py --quick    # short CI smoke

Exit status: 0 when every gate holds, 1 on any SLO breach or
equivalence mismatch.
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any(
    (Path(entry) / "repro").is_dir() for entry in sys.path if entry
):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.rules import ClusteredRule, Interval  # noqa: E402
from repro.core.segmentation import Segmentation  # noqa: E402
from repro.perf.reference import score_batch_scalar  # noqa: E402
from repro.persistence import save_segmentation  # noqa: E402
from repro.serve import (  # noqa: E402
    WorkerConfig,
    create_multiprocess_server,
    create_server,
)

BUDGETS_PATH = Path(__file__).parent / "perf_budgets.json"
#: Repo-root landing spot, like BENCH_hotpaths.json: one well-known
#: path for CI artifact upload and trajectory scripts.
DEFAULT_OUT = REPO_ROOT / "BENCH_serving.json"

MODEL_NAME = "bench"

#: (full, quick) load shape: client processes, threads per process,
#: seconds of sustained load per scenario.
LOAD = {"full": (4, 4, 8.0), "quick": (2, 4, 2.0)}


def build_model(directory: Path) -> Segmentation:
    """Persist the benchmark segmentation (seeded, 24 rules)."""
    rng = np.random.default_rng(505)
    rules = []
    for index in range(24):
        x_lo, y_lo = rng.uniform(0.0, 80.0, 2)
        rules.append(ClusteredRule(
            "x", "y",
            Interval(x_lo, x_lo + rng.uniform(2.0, 15.0),
                     closed_high=bool(index % 2)),
            Interval(y_lo, y_lo + rng.uniform(2.0, 15.0),
                     closed_high=bool(index % 3 == 0)),
            "group", "A", support=0.1, confidence=0.9,
        ))
    segmentation = Segmentation.from_rules(rules)
    save_segmentation(segmentation, directory / f"{MODEL_NAME}.json")
    return segmentation


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
def _request(host: str, port: int, method: str, path: str,
             payload: dict | None = None,
             timeout: float = 30.0) -> tuple[int, dict]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


def _split_url(url: str) -> tuple[str, int]:
    host, _, port = url.removeprefix("http://").partition(":")
    return host, int(port)


def equivalence_probe(url: str, segmentation: Segmentation,
                      points: int = 2048) -> dict:
    """Served answers must match the scalar oracle bit for bit."""
    rng = np.random.default_rng(606)
    x_values = rng.uniform(-5.0, 105.0, points)
    y_values = rng.uniform(-5.0, 105.0, points)
    expected = score_batch_scalar(segmentation, x_values, y_values)
    host, port = _split_url(url)
    status, body = _request(host, port, "POST", "/predict_batch", {
        "model": MODEL_NAME,
        "x": x_values.tolist(), "y": y_values.tolist(),
    })
    if status != 200:
        raise SystemExit(
            f"equivalence probe got HTTP {status} from {url}: {body}"
        )
    served = np.asarray(body["rule"], dtype=np.int64)
    matches = bool(np.array_equal(served, expected))
    return {
        "points": points,
        "status": "pass" if matches else "fail",
        "mismatches": int(np.count_nonzero(served != expected)),
    }


# ----------------------------------------------------------------------
# Load generation (forked client processes, keep-alive connections)
# ----------------------------------------------------------------------
def _client_main(host: str, port: int, threads: int, duration: float,
                 seed: int, results) -> None:
    """One client process: ``threads`` keep-alive request loops."""
    import threading

    rng = np.random.default_rng(seed)
    # A fixed pool of points per process, cycled by every thread:
    # endpoint work stays identical across scenarios and runs.
    x_pool = rng.uniform(-5.0, 105.0, 512)
    y_pool = rng.uniform(-5.0, 105.0, 512)
    latencies: list[list[float]] = [[] for _ in range(threads)]
    counts = [[0, 0, 0] for _ in range(threads)]  # ok, shed, error

    def loop(slot: int) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=30.0)
        deadline = perf_counter() + duration
        index = slot
        while perf_counter() < deadline:
            payload = json.dumps({
                "model": MODEL_NAME,
                "x": float(x_pool[index % 512]),
                "y": float(y_pool[index % 512]),
            }).encode()
            index += threads
            started = perf_counter()
            try:
                connection.request(
                    "POST", "/predict", body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                status = response.status
            except (http.client.HTTPException, OSError):
                connection.close()
                connection = http.client.HTTPConnection(
                    host, port, timeout=30.0
                )
                counts[slot][2] += 1
                continue
            elapsed = perf_counter() - started
            if status == 200:
                counts[slot][0] += 1
                latencies[slot].append(elapsed)
            elif status == 429:
                counts[slot][1] += 1
            else:
                counts[slot][2] += 1
        connection.close()

    workers = [
        threading.Thread(target=loop, args=(slot,))
        for slot in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    results.put({
        "latencies": [value for slot in latencies for value in slot],
        "ok": sum(count[0] for count in counts),
        "shed": sum(count[1] for count in counts),
        "errors": sum(count[2] for count in counts),
    })


def run_load(name: str, url: str, processes: int, threads: int,
             duration: float) -> dict:
    """Drive one server with forked clients; return the measurements."""
    host, port = _split_url(url)
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    clients = [
        context.Process(
            target=_client_main,
            args=(host, port, threads, duration, 900 + index, results),
            daemon=True,
        )
        for index in range(processes)
    ]
    started = perf_counter()
    for client in clients:
        client.start()
    merged = {"latencies": [], "ok": 0, "shed": 0, "errors": 0}
    for _ in clients:
        chunk = results.get(timeout=duration + 60.0)
        merged["latencies"].extend(chunk["latencies"])
        for key in ("ok", "shed", "errors"):
            merged[key] += chunk[key]
    for client in clients:
        client.join(timeout=30.0)
    elapsed = perf_counter() - started
    latencies = np.asarray(merged["latencies"], dtype=np.float64)
    if latencies.size == 0:
        raise SystemExit(
            f"scenario {name!r} completed zero requests against {url}"
        )
    p50, p95, p99 = np.percentile(latencies, [50.0, 95.0, 99.0])
    return {
        "name": name,
        "clients": processes * threads,
        "duration_seconds": elapsed,
        "requests_ok": merged["ok"],
        "requests_shed": merged["shed"],
        "requests_error": merged["errors"],
        "throughput_rps": merged["ok"] / elapsed,
        "client_latency_seconds": {
            "p50": float(p50), "p95": float(p95), "p99": float(p99),
            "mean": float(latencies.mean()),
        },
    }


def scrape_metrics(url: str) -> dict:
    """The ``/metrics`` JSON snapshot (``{"counters", "gauges", ...}``).

    In multi-worker mode this is the *fleet* aggregate once the parent
    has published one (any worker serves the same merged view); before
    the first publish — and always in threaded mode — it is the
    answering process's local registry.
    """
    host, port = _split_url(url)
    status, body = _request(host, port, "GET", "/metrics")
    if status != 200:
        return {}
    return body.get("metrics", {})


def scrape_histogram(url: str) -> dict | None:
    """The server's own ``serve.request_seconds{endpoint="predict"}``,
    for the latency the *server* observed, excluding connection time."""
    return scrape_metrics(url).get("histograms", {}).get(
        'serve.request_seconds{endpoint="predict"}'
    )


def scrape_fleet_overhead(url: str) -> dict | None:
    """What fleet telemetry itself cost during the load run.

    ``fleet.publish_seconds`` times each parent-side aggregation
    interval end to end: merging every worker's shipped snapshot plus
    atomically replacing the fleet document.  ``/fleet`` adds how many
    snapshots workers shipped.  Returns ``None`` when the server runs
    without fleet telemetry (threaded mode, or no publish happened).
    """
    histogram = scrape_metrics(url).get("histograms", {}).get(
        "fleet.publish_seconds"
    )
    if histogram is None:
        return None
    host, port = _split_url(url)
    status, body = _request(host, port, "GET", "/fleet")
    fleet = body if status == 200 else {}
    return {
        "publishes": histogram["count"],
        "publish_seconds": {
            key: histogram[key]
            for key in ("mean", "p50", "p95", "max")
        },
        "snapshots_absorbed": fleet.get("snapshots_absorbed"),
        "workers_reporting": len(fleet.get("workers", {})) or None,
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def run_threaded(model_dir: Path, load: tuple[int, int, float],
                 segmentation: Segmentation) -> dict:
    server = create_server(model_dir, port=0, refresh_interval=-1)
    thread = server.serve_in_background()
    try:
        equivalence = equivalence_probe(server.url, segmentation)
        result = run_load("threaded", server.url, *load)
        result["server_histogram"] = scrape_histogram(server.url)
    finally:
        server.service.begin_drain()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
    result["workers"] = 0
    result["equivalence"] = equivalence
    return result


def run_multiprocess(model_dir: Path, load: tuple[int, int, float],
                     segmentation: Segmentation, workers: int) -> dict:
    # Fleet telemetry stays ON (sub-second interval, so even the quick
    # mode's short scenario spans several aggregation cycles): the p95
    # gate below therefore proves the latency budget holds *with* the
    # snapshot ship + merge running, and the publish histogram records
    # what each aggregation interval cost.
    server = create_multiprocess_server(
        model_dir, port=0, workers=workers, refresh_interval=-1,
        config=WorkerConfig(telemetry_interval=0.5),
    )
    server.start()
    try:
        equivalence = equivalence_probe(server.url, segmentation)
        result = run_load("multiprocess", server.url, *load)
        result["server_histogram"] = scrape_histogram(server.url)
        result["fleet_telemetry"] = scrape_fleet_overhead(server.url)
    finally:
        server.drain(timeout=30.0)
    result["workers"] = workers
    result["equivalence"] = equivalence
    return result


# ----------------------------------------------------------------------
# SLO gating and reporting
# ----------------------------------------------------------------------
def load_slo(path: Path) -> tuple[dict, float]:
    payload = json.loads(path.read_text())
    if payload.get("format") != "arcs-perf-budgets":
        raise SystemExit(f"{path} is not an arcs-perf-budgets file")
    serving = payload.get("serving")
    if serving is None:
        raise SystemExit(f"{path} has no 'serving' SLO section")
    return serving, float(payload.get("noise_tolerance", 0.25))


def apply_slo(scenarios: list[dict], slo: dict, tolerance: float,
              cores: int) -> list[dict]:
    """Every gate as a verdict row for the report (and the exit code)."""
    verdicts = []
    max_p95 = float(slo["max_p95_seconds"])
    for scenario in scenarios:
        p95 = scenario["client_latency_seconds"]["p95"]
        verdicts.append({
            "gate": "max_p95_seconds",
            "scenario": scenario["name"],
            "value": p95,
            "budget": max_p95,
            "status": "pass" if p95 <= max_p95 else "fail",
        })
    by_name = {scenario["name"]: scenario for scenario in scenarios}
    ratio = (by_name["multiprocess"]["throughput_rps"]
             / by_name["threaded"]["throughput_rps"])
    min_ratio = float(slo["min_throughput_ratio"])
    floor = min_ratio * (1.0 - tolerance)
    min_cores = int(slo.get("min_cores", 4))
    verdict = {
        "gate": "min_throughput_ratio",
        "scenario": "multiprocess/threaded",
        "value": ratio,
        "budget": min_ratio,
        "floor": floor,
        "cores": cores,
        "min_cores": min_cores,
    }
    if cores < min_cores:
        # One or two cores cannot show multi-core scaling; record the
        # ratio but don't gate on it (CI's 4-core runners do).
        verdict["status"] = "skipped"
        verdict["reason"] = (
            f"machine has {cores} core(s); gate needs {min_cores}"
        )
    else:
        verdict["status"] = "pass" if ratio >= floor else "fail"
    verdicts.append(verdict)
    for scenario in scenarios:
        verdicts.append({
            "gate": "bit_identical_to_oracle",
            "scenario": scenario["name"],
            "value": scenario["equivalence"]["mismatches"],
            "budget": 0,
            "status": scenario["equivalence"]["status"],
        })
    return verdicts


def render(scenarios: list[dict], verdicts: list[dict]) -> str:
    lines = []
    header = (
        f"{'scenario':<14} {'workers':>7} {'clients':>7} {'ok':>8} "
        f"{'shed':>6} {'err':>5} {'rps':>9} {'p50':>9} {'p95':>9} "
        f"{'p99':>9}"
    )
    lines += [header, "-" * len(header)]
    for scenario in scenarios:
        latency = scenario["client_latency_seconds"]
        lines.append(
            f"{scenario['name']:<14} {scenario['workers']:>7} "
            f"{scenario['clients']:>7} {scenario['requests_ok']:>8} "
            f"{scenario['requests_shed']:>6} "
            f"{scenario['requests_error']:>5} "
            f"{scenario['throughput_rps']:>9.1f} "
            f"{latency['p50'] * 1000:>8.2f}ms "
            f"{latency['p95'] * 1000:>8.2f}ms "
            f"{latency['p99'] * 1000:>8.2f}ms"
        )
    lines.append("")
    for verdict in verdicts:
        detail = f" ({verdict['reason']})" if "reason" in verdict else ""
        lines.append(
            f"  [{verdict['status']:>7}] {verdict['gate']} "
            f"[{verdict['scenario']}]: {verdict['value']:.4g} "
            f"vs budget {verdict['budget']:.4g}{detail}"
        )
    return "\n".join(lines)


def write_report(path: Path, mode: str, scenarios: list[dict],
                 verdicts: list[dict], status: str,
                 error: str | None = None) -> None:
    payload = {
        "format": "arcs-serving-report",
        "version": 1,
        "generated_at": time.time(),  # wall-clock: ok (artefact stamp)
        "mode": mode,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
        },
        "status": status,
        "scenarios": scenarios,
        "slo": verdicts,
    }
    if error is not None:
        payload["error"] = error
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="short load for CI smoke runs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"report path (default {DEFAULT_OUT})")
    parser.add_argument("--budgets", type=Path, default=BUDGETS_PATH,
                        help=f"SLO file (default {BUDGETS_PATH})")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the multi-process "
                             "scenario (default: one per core, 2-4)")
    args = parser.parse_args(argv)

    if "fork" not in multiprocessing.get_all_start_methods():
        raise SystemExit(
            "serve_load needs the 'fork' start method (Linux/macOS)"
        )
    slo, tolerance = load_slo(args.budgets)
    mode = "quick" if args.quick else "full"
    load = LOAD[mode]
    cores = os.cpu_count() or 1
    workers = args.workers or max(2, min(4, cores))

    scenarios: list[dict] = []
    verdicts: list[dict] = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            model_dir = Path(tmp)
            segmentation = build_model(model_dir)
            print(f"serve-load ({mode} mode): {load[0]}x{load[1]} "
                  f"clients, {load[2]:.0f}s per scenario, "
                  f"{workers} workers, {cores} core(s)")
            scenarios.append(
                run_threaded(model_dir, load, segmentation)
            )
            scenarios.append(
                run_multiprocess(model_dir, load, segmentation, workers)
            )
        verdicts = apply_slo(scenarios, slo, tolerance, cores)
    except BaseException as error:
        # A crashing run must still leave a report behind: CI treats a
        # missing BENCH_serving.json as a broken run and fails loudly.
        write_report(args.out, mode, scenarios, verdicts, "error",
                     error=f"{type(error).__name__}: {error}")
        print(f"serve-load crashed; partial report written to {args.out}")
        raise

    failed = [v for v in verdicts if v["status"] == "fail"]
    status = "fail" if failed else "pass"
    print()
    print(render(scenarios, verdicts))
    write_report(args.out, mode, scenarios, verdicts, status)
    print(f"\nreport written to {args.out}")
    if failed:
        gates = ", ".join(
            f"{verdict['gate']}[{verdict['scenario']}]"
            for verdict in failed
        )
        print(f"\nSERVING SLO BREACHED: {gates} (see report)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
