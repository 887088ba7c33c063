"""The four workloads of the end-to-end benchmark, one per process.

``python benchmarks/e2e/workloads.py <workload> --seed N --seconds S
--trace 0|1 --run-dir DIR`` runs one workload and prints its result as
one JSON line; ``run.py`` starts one such process per workload so peak
memory, the scorer cache and fork state never leak between workloads.
The functions below take sizes as arguments, so the smoke test can run
each workload at toy size in-process.

Every input is generated here from ``--seed``; the program only ever
sees the generated tables, models and requests.  The data, optimizer
and model constants are the benchmark's own and import nothing from the
other benchmark harnesses, so editing those cannot move these numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from common import E2E_DIR, child_env, quantile, use_repo_source, vm_hwm_mb

use_repo_source()

import numpy as np  # noqa: E402

import layers  # noqa: E402
import loadgen  # noqa: E402
import repro  # noqa: E402
from repro.analysis.accuracy import exact_region_error  # noqa: E402
from repro.binning.binner import Binner  # noqa: E402
from repro.core.arcs import ARCS, ARCSConfig  # noqa: E402
from repro.core.optimizer import OptimizerConfig  # noqa: E402
from repro.core.rules import ClusteredRule, Interval  # noqa: E402
from repro.core.segmentation import Segmentation  # noqa: E402
from repro.data.functions import true_regions  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.perf.reference import score_batch_scalar  # noqa: E402
from repro.persistence import load_segmentation, save_segmentation  # noqa: E402
from repro.stream import (  # noqa: E402
    RefitterConfig,
    StreamRefitter,
    StreamWindow,
    TableReplaySource,
    WindowConfig,
    run_watch,
)
from repro.stream.refitter import segmentation_content_hash  # noqa: E402

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
X, Y, RHS, TARGET = "age", "salary", "group", "A"
X_RANGE, Y_RANGE = (20.0, 80.0), (20_000.0, 150_000.0)
FUNCTION_ID = 2
PERTURBATION = 0.05

#: Both fit workloads bin onto the same 32 x 32 grid and search the whole
#: 6 support x 10 confidence lattice (patience >= support levels, so no
#: fit stops early); only the tuples per cell differ.
GRID_BINS = 32
OPTIMIZER = OptimizerConfig(max_support_levels=6, max_confidence_levels=10,
                            patience=6)

#: Set-ups per fit run (generations of its tables); ``setup_s`` is
#: their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class FitShape:
    tuples: int
    outliers: float
    #: Distinct tables per run, each fitted once per round.  One table's
    #: fit time swings ~15% with its seed; the median over many tables
    #: is what stays put from run to run.
    tables: int


FIT_SHAPES = {
    # ~8 tuples per cell: fragmented trial grids, merging dominates.
    "fit-fragmented": FitShape(tuples=8_000, outliers=0.10, tables=28),
    # ~390 tuples per cell: smooth grids, verifier and binning dominate.
    "fit-dense": FitShape(tuples=400_000, outliers=0.0, tables=6),
}

#: The reference kernel's median time on the machine the committed
#: baseline was measured on; fit timings are reported at that speed.
REFERENCE_SECONDS = 0.0112

#: Serving: ``arcs serve <dir> --workers 2 --port 0``, every other knob
#: at its default (refresh interval 1 s, fleet telemetry every 2 s).
SERVE_ARGS = ("--workers", "2", "--port", "0")
REFRESH_SECONDS = 1.0
FLEET_INTERVAL_SECONDS = 2.0
RATE = 200.0
#: Server launches per serving run.  Each launch is a timed set-up and
#: then serves an equal segment of the load: one launch takes 0.3-0.5 s
#: and each server process runs a few percent faster or slower than the
#: next, so the run takes medians over five.
SERVERS = 5
#: Untimed open-loop load at the start of each server segment.
WARMUP_SECONDS = 0.5
#: Shares of a segment for the serve-predict phases: open-loop
#: /predict, closed-loop /predict_batch, closed-loop /predict.
PREDICT_SHARES = (0.5, 0.25, 0.25)
#: serve-reload: open-loop /predict, then closed-loop /predict, with
#: artefact swaps running through both.
RELOAD_SHARES = (0.6, 0.4)
BATCH_POINTS = 1024
POOL_POINTS = 512
MODEL_NAME = "bench"
MODEL_RULES = 24

#: serve-reload: a 20k sliding window over 200k tuples, refitted every
#: 5k tuples at fixed thresholds (40 refits, 40 distinct artefacts).
STREAM_TUPLES = 200_000
STREAM_OUTLIERS = 0.10
STREAM_WINDOW = 20_000
STREAM_REFIT_EVERY = 5_000
STREAM_CHUNK_ROWS = 1_000
STREAM_BINS = 50
STREAM_SUPPORT = 0.0002
STREAM_CONFIDENCE = 0.6
STREAM_NAME = "stream"
SWAP_EVERY_SECONDS = 1.5
#: The final artefact must be the only one served from refresh
#: interval + 2 s after its publish; the last segment stops swapping
#: early enough to check that.
CONVERGE_SECONDS = REFRESH_SECONDS + 2.0
SETTLE_SECONDS = CONVERGE_SECONDS + 1.0


def data_seed(seed: int, index: int) -> int:
    """The generator seed of input ``index`` of a run with ``seed``."""
    return seed * 1000 + index


def generate(tuples: int, outliers: float, seed: int) -> repro.Table:
    return repro.generate_synthetic(repro.SyntheticConfig(
        n_tuples=tuples, function_id=FUNCTION_ID,
        perturbation=PERTURBATION, outlier_fraction=outliers, seed=seed,
    ))


def content_id(raw: bytes) -> str:
    """A served model's id: sha256 of the artefact bytes, 12 hex."""
    return hashlib.sha256(raw).hexdigest()[:12]


# ----------------------------------------------------------------------
# Result record
# ----------------------------------------------------------------------
class Result:
    """What one workload run reports (see ``run.py`` for the schema)."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics: dict[str, dict] = {}
        self.detail: dict = {}
        self.layers: dict[str, float] = {}
        self.absent: list[str] = []
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, n: int) -> None:
        self.metrics[name] = {"value": float(value), "n": int(n)}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """A correctness check; a failed one is a failed operation."""
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": detail})
        self.attempted += 1
        if not ok:
            self.failed += 1

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "metrics": self.metrics,
            "detail": self.detail,
            "layers": self.layers,
            "absent": self.absent,
            "checks": self.checks,
            "attempted": self.attempted,
            "failed": self.failed,
        }


@contextmanager
def traced(enabled: bool):
    """Wrappers on every layer plus the program's metrics registry
    (spans stay off); both are undone on exit."""
    if not enabled:
        yield None
        return
    previous = metrics.swap_registry(metrics.MetricsRegistry())
    try:
        with layers.Installed() as installed:
            yield installed
    finally:
        metrics.swap_registry(previous)


def _counters() -> dict:
    registry = metrics.active()
    return registry.snapshot()["counters"] if registry is not None else {}


# ----------------------------------------------------------------------
# fit-fragmented, fit-dense
# ----------------------------------------------------------------------
_REFERENCE_GRID = np.random.default_rng(0).random((32, 32)) > 0.5


def reference_seconds() -> float:
    """Time one run of a fixed kernel that shares no code with the
    program: an interpreter loop plus small numpy block sums, the two
    kinds of work a fit spends its time on.

    On a shared host the machine's speed drifts by 10-20% within
    minutes; a fit and this kernel, timed side by side in one process,
    drift together, so their ratio does not.
    """
    started = perf_counter()
    total = 0
    for value in range(150_000):
        total += value * value % 7
    for x in range(28):
        for y in range(28):
            total += int(_REFERENCE_GRID[x:x + 4, y:y + 4].sum())
    return perf_counter() - started


def _improving_trials(history) -> int:
    """Trials that lowered the best MDL cost so far (the first counts),
    with the optimizer's own epsilon."""
    best = None
    improving = 0
    for trial in history:
        if best is None or trial.mdl_cost < best - OPTIMIZER.epsilon:
            best = trial.mdl_cost
            improving += 1
    return improving


def run_fit(workload: str, seed: int, seconds: float, trace: bool, *,
            tuples: int | None = None, tables: int | None = None) -> dict:
    """Fit every table of the run once per round, in rounds, until the
    next round would end past ``seconds`` (at least one round).

    The reference kernel is timed after every set-up and every fit;
    times are reported scaled to :data:`REFERENCE_SECONDS` (raw medians
    are in the detail).  Throughput is the table size over the median
    fit.  When only one round ran, the first table is fitted once more,
    untimed, so every run checks that a repeated fit gives the same
    answer.
    """
    shape = FIT_SHAPES[workload]
    tuples = tuples or shape.tuples
    n_tables = tables or shape.tables
    result = Result(workload, seed, seconds, trace)

    setup_times = []
    data: list = []
    for _ in range(SETUP_REPEATS):
        data = []
        started = perf_counter()
        for index in range(n_tables):
            data.append(generate(tuples, shape.outliers,
                                 data_seed(seed, index)))
        elapsed = perf_counter() - started
        reference = statistics.median(
            reference_seconds() for _ in range(3)
        )
        setup_times.append(elapsed * REFERENCE_SECONDS / reference)

    config = ARCSConfig(n_bins_x=GRID_BINS, n_bins_y=GRID_BINS,
                        optimizer=OPTIMIZER)
    times: list[float] = []
    references: list[float] = []
    hashes: list[list[str]] = [[] for _ in data]
    segmentations: list[Segmentation] = []
    trials = improving = rounds = 0
    with traced(trace) as installed:
        started = perf_counter()
        while True:
            round_started = perf_counter()
            for index, table in enumerate(data):
                fit_started = perf_counter()
                fitted = ARCS(config).fit(table, X, Y, RHS, TARGET)
                times.append(perf_counter() - fit_started)
                references.append(reference_seconds())
                hashes[index].append(
                    segmentation_content_hash(fitted.segmentation)
                )
                trials += len(fitted.history)
                improving += _improving_trials(fitted.history)
                if rounds == 0:
                    segmentations.append(fitted.segmentation)
            rounds += 1
            elapsed = perf_counter() - started
            if elapsed + perf_counter() - round_started > seconds:
                break
        counters = _counters()
        if installed is not None:
            result.absent = installed.absent
    if rounds == 1:
        hashes[0].append(segmentation_content_hash(
            ARCS(config).fit(data[0], X, Y, RHS, TARGET).segmentation
        ))

    fit_seconds = sum(times)
    median_fit = statistics.median(times) * (
        REFERENCE_SECONDS / statistics.median(references)
    )
    result.metric("setup_s", statistics.median(setup_times),
                  len(setup_times))
    result.metric("latency_p50_ms", median_fit * 1e3, len(times))
    result.metric("throughput_per_s", tuples / median_fit, len(times))
    result.metric("peak_rss_mb", vm_hwm_mb(), 1)
    differing = [index for index, runs in enumerate(hashes)
                 if len(set(runs)) > 1]
    result.check("fit.repeats_agree", not differing,
                 f"tables with differing answers: {differing}")
    errors = [
        exact_region_error(segmentation, true_regions(FUNCTION_ID),
                           X_RANGE, Y_RANGE).total_error_area
        for segmentation in segmentations
    ]
    result.attempted += len(times)
    result.detail = {
        "tuples": tuples,
        "tables": n_tables,
        "rounds": rounds,
        "fits": len(times),
        "fit_s": statistics.median(times),
        "reference_s": statistics.median(references),
        "trials_per_fit": trials / len(times),
        "rules": [len(segmentation) for segmentation in segmentations],
        "region_error": statistics.median(errors),
        "hashes": [runs[0] for runs in hashes],
    }
    if trace:
        result.layers = _fit_layers(counters, fit_seconds)
        result.layers["core.optimizer.improving_share"] = layers.ratio(
            improving, trials
        )
    return result.as_dict()


def _fit_layers(counters: dict, wall_seconds: float) -> dict:
    """In-process layer metrics plus the program's own counters."""
    own = layers.layer_counters(counters)
    out = layers.layer_metrics(own, layers.FIT_LAYERS, wall_seconds)
    enumerated = counters.get("bitop.rectangles_enumerated", 0)
    found = counters.get("bitop.clusters_found", 0)
    kept = counters.get("pruning.clusters_kept", 0)
    dropped = counters.get("pruning.clusters_dropped", 0)
    out.update({
        "mining.cells_qualified": counters.get("engine.cells_qualified", 0),
        "core.bitop.rectangles_enumerated": enumerated,
        "core.bitop.clusters_found": found,
        "core.bitop.useful_share": layers.ratio(found, enumerated),
        "core.merging.clusters_in": own.get("core.merging.clusters_in", 0),
        "core.merging.clusters_out": own.get("core.merging.clusters_out",
                                             0),
        "core.pruning.kept_share": layers.ratio(kept, kept + dropped),
        "core.verifier.tuples_sampled": counters.get(
            "verifier.tuples_sampled", 0),
        "core.optimizer.trials": counters.get("optimizer.trials", 0),
        "stream.refits": counters.get("stream.refits_run", 0),
        "stream.publishes": counters.get("stream.publishes", 0),
    })
    return out


# ----------------------------------------------------------------------
# Serving: one server per set-up, each serving an equal share of the load
# ----------------------------------------------------------------------
def _serve_argv(model_dir: Path, trace: bool) -> list[str]:
    if trace:
        entry = [str(E2E_DIR / "serve_traced.py")]
    else:
        entry = ["-m", "repro.cli"]
    return [sys.executable, "-u", *entry, "serve", str(model_dir),
            *SERVE_ARGS]


def _stop(result: Result, server: loadgen.ServerProcess) -> None:
    started = perf_counter()
    code = server.stop()
    drain = perf_counter() - started
    result.detail["drain_s_max"] = max(result.detail.get("drain_s_max", 0.0),
                                       drain)
    result.check("serve.drained", code == 0,
                 f"exit code {code} after {drain:.2f}s")


class Serving:
    """The server segments of one run: every launch is timed as a
    set-up and then serves an equal share of the measured load, so one
    server process's placement and luck do not set the run's numbers."""

    def __init__(self, result: Result, argv: list[str], run_dir: Path,
                 trace: bool):
        self.result = result
        self.argv = argv
        self.run_dir = run_dir
        self.env = child_env(run_dir)
        self.trace = trace
        self.launch_times: list[float] = []
        self.segments: list[list[loadgen.Phase]] = []
        self.seconds = 0.0
        self.peak_rss_mb = 0.0
        #: Fleet ``/metrics`` numbers summed over the segments (traced).
        self.fleet: dict[str, float] = {}

    def run(self, prepare, drive) -> None:
        """``prepare(index)`` writes the model directory (timed with the
        launch); ``drive(index, server)`` runs a segment's phases."""
        for index in range(SERVERS):
            started = perf_counter()
            prepare(index)
            server = loadgen.ServerProcess(self.argv, self.run_dir,
                                           f"serve-{index}", self.env)
            try:
                server.wait_ready()
                self.launch_times.append(perf_counter() - started)
                started = perf_counter()
                self.segments.append(drive(index, server))
                self.seconds += perf_counter() - started
                self.peak_rss_mb = max(self.peak_rss_mb,
                                       server.peak_rss_mb())
                if self.trace:
                    for key, value in self._fleet_numbers(server).items():
                        self.fleet[key] = self.fleet.get(key, 0) + value
            finally:
                _stop(self.result, server)

    def phases(self, name: str) -> list[loadgen.Phase]:
        return [phase for segment in self.segments for phase in segment
                if phase.name == name]

    def ok(self, name: str) -> list[loadgen.Answer]:
        return [answer for phase in self.phases(name) for answer in phase.ok]

    def rate(self, name: str) -> float:
        """Successful requests per second over the phases ``name``."""
        return len(self.ok(name)) / sum(
            phase.seconds for phase in self.phases(name)
        )

    def _fleet_numbers(self, server: loadgen.ServerProcess) -> dict:
        """The fleet sum on ``/metrics``, read once telemetry caught up:
        the ``e2e.*`` counters and the count and total of the two
        histograms the layer metrics use."""
        time.sleep(FLEET_INTERVAL_SECONDS + 0.5)
        status, body = loadgen.request(server.host, server.port, "GET",
                                       "/metrics")
        self.result.check("serve.fleet_metrics",
                          status == 200 and body.get("scope") == "fleet",
                          f"HTTP {status}, scope {body.get('scope')}")
        snapshot = body.get("metrics", {})
        numbers = layers.layer_counters(snapshot.get("counters", {}))
        histograms = snapshot.get("histograms", {})
        for name, key in (
                ("fleet.publish", "fleet.publish_seconds"),
                ("predict", 'serve.request_seconds{endpoint="predict"}')):
            found = histograms.get(key, {})
            numbers[f"{name}.count"] = found.get("count", 0)
            numbers[f"{name}.total"] = found.get("total", 0.0)
        return numbers

    def layer_metrics(self) -> dict:
        """Server-side per-layer metrics over all segments."""
        numbers, wall = self.fleet, self.seconds
        out = layers.layer_metrics(numbers, layers.SERVE_LAYERS, wall)
        batches = numbers.get("serve.scorer.batches", 0)
        publishes = numbers.get("fleet.publish.total", 0.0)
        client = [answer.done - answer.sent
                  for segment in self.segments for phase in segment
                  if phase.name != "batch" for answer in phase.answers]
        served = layers.ratio(numbers.get("predict.total", 0.0),
                              numbers.get("predict.count", 0))
        out.update({
            "serve.scorer.points_per_call": layers.ratio(
                numbers.get("serve.scorer.points", 0), batches),
            "serve.batching.requests_per_gather": layers.ratio(
                numbers.get("serve.batching.calls", 0), batches),
            "obs.fleet.calls": numbers.get("fleet.publish.count", 0),
            "obs.fleet.total_s": publishes,
            "obs.fleet.self_s": publishes,
            "obs.fleet.share": layers.ratio(publishes, wall),
            "obs.fleet.publish_ms": layers.ratio(
                publishes, numbers.get("fleet.publish.count", 0)) * 1e3,
            "serve.transport_ms": (
                (statistics.fmean(client) - served) * 1e3
                if client and served else 0.0),
        })
        return out


def _pool(seed: int, x_range, y_range, size: int):
    rng = np.random.default_rng(seed)
    return rng.uniform(*x_range, size), rng.uniform(*y_range, size)


def _predict_bodies(model: str, xs, ys) -> list[bytes]:
    return [json.dumps({"model": model, "x": float(x), "y": float(y)})
            .encode() for x, y in zip(xs, ys)]


def _check_answers(result: Result, serving: Serving, segmentations: dict,
                   singles, batches=()) -> None:
    """Every answer against the scalar oracle, for the model id it
    names.  Non-200s, transport errors, unknown ids and mismatches are
    failed operations."""
    expected: dict[tuple, np.ndarray] = {}

    def oracle(model_id: str, kind: str, point: int) -> np.ndarray:
        key = (model_id, kind, point if kind == "batch" else 0)
        if key not in expected:
            xs, ys = singles if kind == "single" else batches[point]
            expected[key] = score_batch_scalar(
                segmentations[model_id], xs, ys
            )
        found = expected[key]
        return found[point] if kind == "single" else found

    for segment in serving.segments:
        for phase in segment:
            kind = "batch" if phase.name == "batch" else "single"
            failures = sum(
                1 for answer in phase.answers
                if not (answer.status == 200
                        and answer.model in segmentations
                        and np.array_equal(
                            oracle(answer.model, kind, answer.point),
                            answer.rule))
            )
            result.attempted += len(phase.answers)
            result.failed += failures
            for key, count in (("requests", len(phase.answers)),
                               ("failed", failures)):
                name = f"{phase.name}.{key}"
                result.detail[name] = result.detail.get(name, 0) + count


def _serving_results(result: Result, serving: Serving, open_seconds: float,
                     setup_extra: float = 0.0) -> None:
    """Metrics, schedule check and detail shared by both workloads."""
    opened = serving.ok("open")
    latencies = [answer.done - answer.due for answer in opened]
    if not latencies:
        raise RuntimeError("no request of the open-loop phase succeeded")
    result.metric("setup_s",
                  statistics.median(serving.launch_times) + setup_extra,
                  len(serving.launch_times))
    result.metric("latency_p50_ms", quantile(latencies, 0.50) * 1e3,
                  len(latencies))
    result.metric("throughput_per_s", serving.rate("closed"),
                  len(serving.ok("closed")))
    result.metric("peak_rss_mb", serving.peak_rss_mb, SERVERS)
    sent = [answer for phase in serving.phases("open")
            for answer in phase.answers]
    expected = SERVERS * int(RATE * open_seconds)
    result.check("loadgen.schedule_complete", len(sent) == expected,
                 f"{len(sent)} of {expected} sent")
    late = quantile([answer.sent - answer.due for answer in sent], 0.99)
    result.detail.update({
        "predict_p99_ms": quantile(latencies, 0.99) * 1e3,
        "loadgen.late_p99_ms": late * 1e3,
    })
    if serving.trace:
        result.layers.update(serving.layer_metrics())
        result.layers["loadgen.late_p99_ms"] = late * 1e3


# ----------------------------------------------------------------------
# serve-predict
# ----------------------------------------------------------------------
def _build_model(path: Path, seed: int) -> bytes:
    """Write the fixed 24-rule model; returns the artefact bytes."""
    rng = np.random.default_rng(data_seed(seed, 500))
    rules = []
    for index in range(MODEL_RULES):
        x_lo, y_lo = rng.uniform(0.0, 80.0, 2)
        rules.append(ClusteredRule(
            "x", "y",
            Interval(x_lo, x_lo + rng.uniform(2.0, 15.0),
                     closed_high=bool(index % 2)),
            Interval(y_lo, y_lo + rng.uniform(2.0, 15.0),
                     closed_high=bool(index % 3 == 0)),
            "group", "A", support=0.1, confidence=0.9,
        ))
    save_segmentation(Segmentation.from_rules(rules), path)
    return path.read_bytes()


def run_serve_predict(seed: int, seconds: float, trace: bool,
                      run_dir: Path, *,
                      warmup: float = WARMUP_SECONDS) -> dict:
    result = Result("serve-predict", seed, seconds, trace)
    result.absent = layers.absent_targets() if trace else []
    model_dir = run_dir / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    artefact = model_dir / f"{MODEL_NAME}.json"
    singles = _pool(data_seed(seed, 900), (-5.0, 105.0), (-5.0, 105.0),
                    POOL_POINTS)
    batches = [
        _pool(data_seed(seed, 901 + index), (-5.0, 105.0), (-5.0, 105.0),
              BATCH_POINTS)
        for index in range(loadgen.THREADS)
    ]
    single_bodies = _predict_bodies(MODEL_NAME, *singles)
    batch_bodies = [
        json.dumps({"model": MODEL_NAME, "x": xs.tolist(),
                    "y": ys.tolist()}).encode()
        for xs, ys in batches
    ]
    segment = seconds / SERVERS
    open_share, batch_share, closed_share = PREDICT_SHARES
    segmentations: dict[str, Segmentation] = {}

    def prepare(index: int) -> None:
        raw = _build_model(artefact, seed)
        segmentations[content_id(raw)] = load_segmentation(artefact)

    def drive(index: int, server) -> list:
        host, port = server.host, server.port
        return [
            loadgen.open_loop("warmup", host, port, "/predict",
                              single_bodies, RATE, warmup),
            loadgen.open_loop("open", host, port, "/predict",
                              single_bodies, RATE, open_share * segment),
            loadgen.closed_loop("batch", host, port, "/predict_batch",
                                batch_bodies, batch_share * segment),
            loadgen.closed_loop("closed", host, port, "/predict",
                                single_bodies, closed_share * segment),
        ]

    serving = Serving(result, _serve_argv(model_dir, trace), run_dir, trace)
    serving.run(prepare, drive)
    _check_answers(result, serving, segmentations, singles, batches)
    _serving_results(result, serving, open_share * segment)
    result.detail["batch_points_per_s"] = (
        serving.rate("batch") * BATCH_POINTS
    )
    return result.as_dict()


# ----------------------------------------------------------------------
# serve-reload
# ----------------------------------------------------------------------
def _watch(table, watch_dir: Path, aside: Path) -> tuple[list, object]:
    """Replay ``table`` through the sliding window; every published
    artefact is copied aside.  Returns ``[(path, id), ...]`` and the
    watch summary."""
    chunks = TableReplaySource(table, chunk_rows=STREAM_CHUNK_ROWS)
    first = next(iter(table.iter_chunks(STREAM_CHUNK_ROWS)))
    binner = Binner.fit(first, X, Y, RHS, STREAM_BINS, STREAM_BINS)
    window = StreamWindow(
        binner.x_layout, binner.y_layout, binner.rhs_encoding,
        WindowConfig(mode="sliding", size=STREAM_WINDOW,
                     refit_every=STREAM_REFIT_EVERY),
    )
    refitter = StreamRefitter(
        binner.x_layout, binner.y_layout, binner.rhs_encoding, window,
        TARGET, watch_dir, STREAM_NAME,
        RefitterConfig(min_support=STREAM_SUPPORT,
                       min_confidence=STREAM_CONFIDENCE),
    )
    artefacts: list[tuple[Path, str]] = []

    def copy_aside(record) -> None:
        if not record.published:
            return
        raw = refitter.artefact_path.read_bytes()
        copy = aside / f"{len(artefacts):03d}.json"
        copy.write_bytes(raw)
        artefacts.append((copy, content_id(raw)))

    summary = run_watch(chunks, refitter, on_refresh=copy_aside)
    return artefacts, summary


class _Swapper:
    """Makes artefacts current in the served directory with
    ``os.replace``; ``run_until`` (a load phase's ``during`` hook) swaps
    the next one in every 1.5 s until the scheduled stop."""

    def __init__(self, artefacts: list[tuple[Path, str]], served: Path):
        self.artefacts = artefacts
        self.served = served
        #: (time, model id) of every artefact made current, in order.
        self.published: list[tuple[float, str]] = []
        self.swaps = 0
        self.due = self.stop_at = 0.0

    def publish(self, path: Path, model_id: str) -> None:
        temp = self.served.with_name(".swap.tmp")
        temp.write_bytes(path.read_bytes())
        os.replace(temp, self.served)
        self.published.append((perf_counter(), model_id))

    def schedule(self, start: float, stop_at: float) -> None:
        self.due = start + SWAP_EVERY_SECONDS
        self.stop_at = stop_at

    def run_until(self, end: float) -> None:
        while self.due <= min(end, self.stop_at):
            time.sleep(max(self.due - perf_counter(), 0.0))
            self.publish(*self.artefacts[self.swaps % len(self.artefacts)])
            self.swaps += 1
            self.due += SWAP_EVERY_SECONDS


def run_serve_reload(seed: int, seconds: float, trace: bool,
                     run_dir: Path, *, tuples: int = STREAM_TUPLES,
                     warmup: float = WARMUP_SECONDS) -> dict:
    result = Result("serve-reload", seed, seconds, trace)
    watch_dir, aside, serve_dir = (run_dir / name for name in
                                   ("watch", "artefacts", "serve"))
    for directory in (watch_dir, aside, serve_dir):
        directory.mkdir(parents=True, exist_ok=True)

    generate_times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        table = generate(tuples, STREAM_OUTLIERS, data_seed(seed, 700))
        generate_times.append(perf_counter() - started)

    with traced(trace) as installed:
        started = perf_counter()
        artefacts, summary = _watch(table, watch_dir, aside)
        watch_seconds = perf_counter() - started
        counters = _counters()
        if installed is not None:
            result.absent = installed.absent
    if len(artefacts) < 2:
        raise RuntimeError(f"the watch published {len(artefacts)} "
                           f"artefact(s); swapping needs at least 2")
    published = [record for record in summary.records if record.published]
    result.check("stream.ids_match_registry_scheme",
                 [record.model_id for record in published]
                 == [model_id for _, model_id in artefacts])

    singles = _pool(data_seed(seed, 900), (15.0, 85.0),
                    (10_000.0, 160_000.0), POOL_POINTS)
    bodies = _predict_bodies(STREAM_NAME, *singles)
    segment = seconds / SERVERS
    open_share, closed_share = RELOAD_SHARES
    swapper = _Swapper(artefacts[1:], serve_dir / f"{STREAM_NAME}.json")

    def prepare(index: int) -> None:
        if index == 0:
            swapper.publish(*artefacts[0])

    def drive(index: int, server) -> list:
        host, port = server.host, server.port
        warm = loadgen.open_loop("warmup", host, port, "/predict", bodies,
                                 RATE, warmup)
        start = perf_counter()
        last = index == SERVERS - 1
        swapper.schedule(start, start + segment
                         - (SETTLE_SECONDS if last else 0.0))
        return [
            warm,
            loadgen.open_loop("open", host, port, "/predict", bodies, RATE,
                              open_share * segment,
                              during=swapper.run_until),
            loadgen.closed_loop("closed", host, port, "/predict", bodies,
                                closed_share * segment,
                                during=swapper.run_until),
        ]

    serving = Serving(result, _serve_argv(serve_dir, trace), run_dir, trace)
    serving.run(prepare, drive)
    segmentations = {model_id: load_segmentation(path)
                     for path, model_id in artefacts}
    _check_answers(result, serving, segmentations, singles)
    final_at, final_id = swapper.published[-1]
    settled = [answer.model for phase in serving.segments[-1]
               for answer in phase.answers
               if answer.sent >= final_at + CONVERGE_SECONDS]
    result.check("reload.converged",
                 bool(settled) and set(settled) == {final_id},
                 f"{len(settled)} answers after convergence, ids "
                 f"{sorted(set(map(str, settled)))}, final {final_id}")
    _serving_results(result, serving, open_share * segment,
                     setup_extra=statistics.median(generate_times))
    result.detail.update({
        "watch_s": watch_seconds,
        "refits": summary.refits,
        "publishes": summary.publishes,
        "swaps": swapper.swaps,
        "models_served": len({answer.model for segment in serving.segments
                              for phase in segment
                              for answer in phase.ok}),
    })
    if trace:
        result.layers.update(_fit_layers(counters, watch_seconds))
    return result.as_dict()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> dict:
    if workload in FIT_SHAPES:
        return run_fit(workload, seed, seconds, trace)
    if workload == "serve-predict":
        return run_serve_predict(seed, seconds, trace, run_dir)
    if workload == "serve-reload":
        return run_serve_reload(seed, seconds, trace, run_dir)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    args.run_dir.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.run_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
