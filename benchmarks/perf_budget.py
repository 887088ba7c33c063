#!/usr/bin/env python
"""Perf-budget harness: pinned micro-benchmarks for the hot paths.

Times each vectorised kernel against its scalar reference implementation
(:mod:`repro.perf.reference`) on fixed synthetic inputs, writes the
measurements to ``BENCH_hotpaths.json`` at the repo root, and compares
the speedups against the checked-in budgets in
``benchmarks/perf_budgets.json``.  A kernel that regresses below its
budgeted speedup (minus the noise tolerance) fails the run — this is
the CI perf gate.  The ``http_roundtrip`` tier times a keep-alive
``/predict`` through the serving stack against a bare stdlib HTTP
handler in the same way.

The report is written even when a benchmark crashes mid-run: the
partial report carries ``"status": "error"`` plus the failure text, so
a perf *trajectory* (one report per commit) never silently loses a
point — CI additionally fails loudly when the file is missing.

Budgets are *speedup ratios*, not wall-clock seconds: both sides of each
ratio run in the same process on the same machine, so the gate holds on
a loaded CI runner and a fast laptop alike.  Absolute seconds are still
recorded in the report for humans.  Every benchmark also sanity-checks
that the two implementations agree before timing them.

Usage::

    python benchmarks/perf_budget.py             # full sizes (100k-400k tuples)
    python benchmarks/perf_budget.py --quick     # small sizes for CI smoke
    python benchmarks/perf_budget.py --rebaseline  # rewrite the budgets

Exit status: 0 when every budget holds, 1 on any regression.
See ``docs/performance.md`` for the file formats and the re-baselining
policy.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import socket
import sys
import tempfile
import threading
import time
from functools import lru_cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any(
    (Path(entry) / "repro").is_dir() for entry in sys.path if entry
):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.binning import bin_table  # noqa: E402
from repro.binning.bin_array import BinArray  # noqa: E402
from repro.binning.binner import Binner  # noqa: E402
from repro.binning.categorical import CategoricalEncoding  # noqa: E402
from repro.binning.strategies import equi_width_layout  # noqa: E402
from repro import obs  # noqa: E402
from repro.core.arcs import ARCS, ARCSConfig  # noqa: E402
from repro.core.bitop import BitOpClusterer  # noqa: E402
from repro.core.clusterer import GridClusterer  # noqa: E402
from repro.core.grid import RuleGrid  # noqa: E402
from repro.core.mdl import MDLWeights  # noqa: E402
from repro.core.merging import merge_clusters  # noqa: E402
from repro.core.optimizer import (  # noqa: E402
    OptimizerConfig,
    ThresholdLattice,
    TrialRecord,
    run_trial,
    segmentation_from_outcome,
)
from repro.core.smoothing import smooth_binary  # noqa: E402
from repro.core.verifier import Verifier  # noqa: E402
from repro.core.rules import ClusteredRule, Interval  # noqa: E402
from repro.core.segmentation import Segmentation  # noqa: E402
from repro.data.schema import (  # noqa: E402
    CategoricalColumn,
    Table,
    categorical,
    quantitative,
)
from repro.mining.engine import rule_grid, rule_measures  # noqa: E402
from repro.obs.timing import best_of  # noqa: E402
from repro.perf import reference  # noqa: E402
from repro.persistence import save_segmentation  # noqa: E402
from repro.serve.registry import ModelRegistry  # noqa: E402
from repro.serve.scorer import compile_scorer  # noqa: E402
from repro.serve.service import (  # noqa: E402
    PredictionServer,
    PredictionService,
)

BUDGETS_PATH = Path(__file__).parent / "perf_budgets.json"
#: The report lands at the repo root so every tool (CI artifact upload,
#: trajectory scripts, humans) finds it at one well-known path.
DEFAULT_OUT = REPO_ROOT / "BENCH_hotpaths.json"

#: (full, quick) problem sizes per benchmark.
SIZES = {
    "binner": (100_000, 20_000),
    "verifier": (400_000, 100_000),
    "smoothing": (400_000, 40_000),
    "bitop_masks": (512, 160),
    "scorer": (100_000, 20_000),
    "scorer_point": (1_000, 1_000),
    "incremental": (100_000, 20_000),
    "merge": (24, 24),
    "bitop_cover": (48, 32),
    "trial": (400_000, 40_000),
    "http_roundtrip": (2_000, 500),
}
#: The ``/predict`` round trip this tier reports against, in microseconds
#: (ROADMAP, "Own the HTTP/1.1 request loop"); informational, not gated.
HTTP_ROUND_TRIP_TARGET_US = 40.0

#: Table sizes of the ``fit`` scenario, in tuples (both modes).
FIT_SIZES = (20_000, 200_000)
#: The fit stages, by the name of the span each emits.  A stage's time
#: is the summed self time of its spans, so nested stages (``mine`` ...
#: ``prune`` inside ``cluster`` inside ``optimizer.trial``) count once.
FIT_STAGES = ("bin", "mine", "smooth", "bitop", "merge", "prune",
              "verify", "cluster", "optimizer.trial")
#: The e2e fit workloads' search: a 32x32 grid and the whole 6 support x
#: 10 confidence lattice.
FIT_CONFIG = ARCSConfig(
    n_bins_x=32, n_bins_y=32,
    optimizer=OptimizerConfig(max_support_levels=6,
                              max_confidence_levels=10, patience=6),
)


def _sizes(quick: bool) -> dict[str, int]:
    return {name: pair[1 if quick else 0] for name, pair in SIZES.items()}


# ----------------------------------------------------------------------
# Benchmarks.  Each returns a result dict with scalar/vectorized seconds
# after asserting both implementations agree.
# ----------------------------------------------------------------------
def bench_binner(n: int, trials: int) -> dict:
    """Bin an n-tuple table into a 50x50 grid: ``consume_scalar`` (per
    value bisect, per value dict encode, per tuple scatter) vs
    ``Binner.consume`` (table-driven assign, codes gather, bincount).

    Both start from the same :class:`~repro.data.schema.Table`, with
    float LHS columns and a categorical RHS stored as codes, so the
    RHS encoding is inside the timed work.
    """
    rng = np.random.default_rng(101)
    groups = ("A", "other")
    table = Table.from_columns(
        [quantitative("x", 0.0, 100.0), quantitative("y", 0.0, 100.0),
         categorical("group", groups)],
        {"x": rng.uniform(0.0, 100.0, n), "y": rng.uniform(0.0, 100.0, n),
         "group": CategoricalColumn(rng.integers(0, 2, n), groups)},
    )

    def fitted() -> Binner:
        return Binner.fit(table, "x", "y", "group", 50, 50)

    def scalar() -> BinArray:
        binner = fitted()
        reference.consume_scalar(binner, table)
        return binner.bin_array

    def vectorized() -> BinArray:
        binner = fitted()
        binner.consume(table)
        return binner.bin_array

    slow, fast = scalar(), vectorized()
    assert np.array_equal(slow.counts, fast.counts), "binner kernels differ"
    assert np.array_equal(slow.totals, fast.totals), "binner kernels differ"
    return {
        "name": "binner",
        "n": n,
        "unit": "tuples",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials),
    }


@lru_cache(maxsize=2)
def _fit_dense_trial(n: int) -> tuple:
    """``(table, bin_array, rhs_code, thresholds)`` of one optimizer trial
    on a table shaped like the e2e fit-dense workload (n tuples of
    Function 2, 32x32 bins), at the lattice's lowest support level and
    its middle confidence level."""
    table = repro.generate_synthetic(repro.SyntheticConfig(
        n_tuples=n, function_id=2, perturbation=0.05, seed=808,
    ))
    binner = bin_table(table, "age", "salary", "group", 32, 32)
    bin_array = binner.bin_array
    rhs_code = binner.rhs_encoding.code_of("A")
    lattice = ThresholdLattice(bin_array, rhs_code)
    support_count = lattice.support_counts[0]
    confidences = lattice.coarsen_confidences(support_count, 10)
    thresholds = (support_count / lattice.n_total,
                  confidences[len(confidences) // 2])
    return table, bin_array, rhs_code, thresholds


def bench_verifier(n: int, trials: int) -> dict:
    """Verify one fit-dense-shaped trial's kept rectangles (5 repeats of
    k=1000): a full-table coverage pass over the trial's rules per call
    vs ``Verifier.verify_rects``, which counts the rectangles' cells of
    samples placed on the grid once per fit.

    The construction (drawing the samples and counting them per grid
    cell) happens once per fit, outside the timed call; its cost is
    recorded on its own.
    """
    table, bin_array, rhs_code, thresholds = _fit_dense_trial(n)
    outcome = GridClusterer().cluster(rule_measures(bin_array, rhs_code),
                                      *thresholds)
    segmentation = segmentation_from_outcome(outcome, bin_array, rhs_code)
    layouts = (bin_array.x_layout, bin_array.y_layout)
    kept = outcome.pruning.kept

    def construct() -> Verifier:
        verifier = Verifier(table, "group", "A", sample_size=1000,
                            repeats=5, seed=7)
        verifier.verify_rects(*layouts, ())
        return verifier

    verifier = construct()

    def scalar():
        return reference.verify_scalar(verifier, segmentation)

    def vectorized():
        return verifier.verify_rects(*layouts, kept)

    assert scalar() == vectorized(), "verifier reports differ"
    return {
        "name": "verifier",
        "n": n,
        "unit": "tuples",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials,
                                      number=20),
        "construction_seconds": best_of(construct, trials=trials),
    }


def bench_smoothing(n: int, trials: int) -> dict:
    """Low-pass filter one fit-dense-shaped trial's 32x32 rule grid
    (:func:`_fit_dense_trial`) as a fit does, one pass at threshold 0.5:
    the shift-and-add float mean thresholded vs ``smooth_binary``'s
    integer activation sums."""
    _, bin_array, rhs_code, thresholds = _fit_dense_trial(n)
    raw = rule_grid(rule_measures(bin_array, rhs_code), *thresholds)
    cells = raw.cells.astype(np.float64)

    def scalar():
        return reference.neighbourhood_mean_scalar(cells) >= 0.5

    def vectorized():
        return smooth_binary(raw, threshold=0.5)

    assert np.array_equal(scalar(), vectorized().cells), (
        "smoothing kernels differ"
    )
    return {
        "name": "smoothing",
        "n": n,
        "unit": "tuples",
        "scalar_seconds": best_of(scalar, trials=trials, number=50),
        "vectorized_seconds": best_of(vectorized, trials=trials,
                                      number=200),
    }


def bench_bitop_masks(n: int, trials: int) -> dict:
    """Build BitOp's per-row integer masks for an n*n grid: per-cell OR
    vs packbits."""
    rng = np.random.default_rng(404)
    grid = RuleGrid(rng.random((n, n)) < 0.5)

    def scalar():
        return reference.row_bitmaps_scalar(grid.cells)

    def vectorized():
        return grid.row_bitmaps()

    assert scalar() == vectorized(), "bitop mask kernels differ"
    return {
        "name": "bitop_masks",
        "n": n,
        "unit": "grid side",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials),
    }


def _scorer_case(n: int):
    """A 24-rule segmentation, its compiled scorer and n query points."""
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
    x_values = rng.uniform(-5.0, 105.0, n)
    y_values = rng.uniform(-5.0, 105.0, n)
    return segmentation, compile_scorer(segmentation), x_values, y_values


def bench_scorer(n: int, trials: int) -> dict:
    """Score n tuples against a 24-rule segmentation: per-rule interval
    loop vs the compiled position-table lookup (``score_batch``, the
    ``/predict_batch`` path).

    Compilation happens outside the timed region — the serving path
    compiles once per model load and scores per request.
    """
    segmentation, scorer, x_values, y_values = _scorer_case(n)

    def scalar():
        return reference.score_batch_scalar(
            segmentation, x_values, y_values
        )

    def vectorized():
        return scorer.score_batch(x_values, y_values)

    assert np.array_equal(scalar(), vectorized()), "scorer kernels differ"
    return {
        "name": "scorer",
        "n": n,
        "unit": "tuples",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials),
    }


def bench_scorer_point(n: int, trials: int) -> dict:
    """Score one point, as ``/predict`` does: the per-rule loop on a
    one-point batch vs ``CompiledScorer.score`` (bisect over the edge
    lists, one table read).  Each timed call scores the first of n
    points; all n are checked against the oracle first.
    """
    segmentation, scorer, x_values, y_values = _scorer_case(n)
    points = list(zip(x_values.tolist(), y_values.tolist()))
    assert [scorer.score(x, y) for x, y in points] == (
        reference.score_batch_scalar(segmentation, x_values,
                                     y_values).tolist()
    ), "one-point scorers differ"
    x, y = points[0]
    x_one, y_one = x_values[:1], y_values[:1]

    def scalar():
        return reference.score_batch_scalar(segmentation, x_one, y_one)

    def vectorized():
        return scorer.score(x, y)

    return {
        "name": "scorer_point",
        "n": 1,
        "unit": "tuples",
        "scalar_seconds": best_of(scalar, trials=trials, number=1000),
        "vectorized_seconds": best_of(vectorized, trials=trials,
                                      number=1000),
    }


def bench_incremental(n: int, trials: int) -> dict:
    """Advance an n-tuple sliding window by one chunk (n/20 tuples):
    full re-accumulation of the window vs the streaming delta update
    (add the arriving chunk, remove the expiring one).

    Both sides produce the identical BinArray — the streaming
    invariant — so the ratio is a pure algorithmic win: the delta
    touches 2 chunks of tuples where the rebuild touches the whole
    window.  Here "scalar" means the rebuild (it uses the same
    vectorised scatter), not a per-tuple loop.
    """
    _settle_allocator()
    rng = np.random.default_rng(606)
    chunk = max(n // 20, 1)
    x_layout = equi_width_layout("x", 0.0, 100.0, 50)
    y_layout = equi_width_layout("y", 0.0, 100.0, 50)
    encoding = CategoricalEncoding("group", ("A", "other"))
    # The resident window [0, n) plus the arriving chunk [n, n+chunk);
    # the oldest chunk [0, chunk) expires.
    x_bins = rng.integers(0, 50, n + chunk, dtype=np.int64)
    y_bins = rng.integers(0, 50, n + chunk, dtype=np.int64)
    codes = rng.integers(0, 2, n + chunk, dtype=np.int64)
    resident = BinArray(x_layout, y_layout, encoding)
    resident.add_chunk(x_bins[:n], y_bins[:n], codes[:n])

    def scalar() -> BinArray:
        cube = BinArray(x_layout, y_layout, encoding)
        cube.add_chunk(x_bins[chunk:], y_bins[chunk:], codes[chunk:])
        return cube

    def vectorized() -> BinArray:
        cube = BinArray(x_layout, y_layout, encoding)
        cube.counts[:] = resident.counts
        cube.totals[:] = resident.totals
        cube.n_total = resident.n_total
        cube.add_chunk(x_bins[n:], y_bins[n:], codes[n:])
        cube.remove_chunk(
            x_bins[:chunk], y_bins[:chunk], codes[:chunk]
        )
        return cube

    slow, fast = scalar(), vectorized()
    assert np.array_equal(slow.counts, fast.counts), (
        "incremental update diverged from the window rebuild"
    )
    assert np.array_equal(slow.totals, fast.totals), (
        "incremental update diverged from the window rebuild"
    )
    assert slow.n_total == fast.n_total == n
    return {
        "name": "incremental",
        "n": n,
        "unit": "window tuples",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials),
    }


def _settle_allocator() -> None:
    """Allocate, fill and free one 16 MiB block.

    glibc raises its mmap and trim thresholds the first time it frees a
    large mapped block; until then the rebuild's temporaries are mapped
    and returned on every call.  The ratio then depended on whether an
    earlier tier had freed a large array (1.6x after the others, 4x
    alone, at 20k tuples).  One large free first puts every tier order
    in the same state.
    """
    np.ones(1 << 21).sum()


def bench_merge(n: int, trials: int) -> dict:
    """Hull-merge BitOp's cover of a seeded n*n salt-and-pepper grid at
    cover_fraction 0.8: pairwise rescan per merge vs heap + summed-area
    table."""
    rng = np.random.default_rng(707)
    grid = RuleGrid(rng.random((n, n)) < 0.5)
    clusters = BitOpClusterer().cluster(grid)

    def scalar():
        return reference.merge_clusters_scalar(clusters, grid, 0.8)

    def vectorized():
        return merge_clusters(clusters, grid, 0.8)

    assert scalar() == vectorized(), "merge kernels differ"
    return {
        "name": "merge",
        "n": n,
        "unit": "grid side",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials),
    }


def bench_bitop_cover(n: int, trials: int) -> dict:
    """Greedy BitOp cover of an n*n checkerboard (one cluster per set
    cell): re-enumerate the whole grid per cluster vs rescan only the
    start rows a cleared rectangle touched."""
    x, y = np.indices((n, n))
    grid = RuleGrid((x + y) % 2 == 0)

    def scalar():
        return reference.bitop_cover_scalar(grid)

    def vectorized():
        return BitOpClusterer().cluster(grid)

    assert scalar() == vectorized(), "bitop cover kernels differ"
    return {
        "name": "bitop_cover",
        "n": n,
        "unit": "grid side",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials),
    }


def bench_trial(n: int, trials: int) -> dict:
    """One optimizer trial on a fit-dense-shaped table
    (:func:`_fit_dense_trial`), cluster → verify → MDL: the composed
    scalar stages (per-cell pairs, shift-and-add smoothing,
    re-enumerating cover, pairwise-rescan merge, then a full-table
    verification pass counted tuple by tuple) vs ``run_trial``.

    A search divides the rule measures and counts the verifier's
    samples per grid cell once for all its trials; both happen before
    the timed calls.
    """
    table, bin_array, rhs_code, thresholds = _fit_dense_trial(n)
    clusterer = GridClusterer()
    verifier = Verifier(table, "group", "A", sample_size=1000, repeats=5,
                        seed=0)
    weights = MDLWeights()
    measures = rule_measures(bin_array, rhs_code)

    def scalar():
        outcome = reference.cluster_scalar(bin_array, rhs_code, *thresholds)
        kept = outcome.pruning.kept
        report = reference.verify_scalar(
            verifier, segmentation_from_outcome(outcome, bin_array, rhs_code)
        )
        trial = TrialRecord(*thresholds, n_clusters=len(kept),
                            report=report,
                            mdl_cost=weights.cost(len(kept),
                                                  report.mean_errors))
        return trial, outcome

    def vectorized():
        return run_trial(clusterer, verifier, weights, measures,
                         *thresholds)

    (slow, slow_outcome), (fast, fast_outcome) = scalar(), vectorized()
    assert slow == fast, "trial records differ"
    assert np.array_equal(
        slow_outcome.smoothed_grid.cells, fast_outcome.smoothed_grid.cells
    ), "trial smoothed grids differ"
    assert (slow_outcome.clusters, slow_outcome.pruning) == (
        fast_outcome.clusters, fast_outcome.pruning
    ), "trial clusterings differ"
    return {
        "name": "trial",
        "n": n,
        "unit": "tuples",
        "scalar_seconds": best_of(scalar, trials=trials),
        "vectorized_seconds": best_of(vectorized, trials=trials,
                                      number=10),
    }


class _ConstantHandler(BaseHTTPRequestHandler):
    """A bare stdlib HTTP/1.1 handler: reads the body, answers a
    constant JSON object.  Its head and body leave in two sends, so
    Nagle is off, or the second would wait ~40 ms for a delayed ACK."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    answer = b'{"in_segment": true}'

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(self.answer)))
        self.end_headers()
        self.wfile.write(self.answer)

    def log_message(self, format: str, *args) -> None:
        pass


def _round_tripper(address: tuple[str, int], request: bytes):
    """A raw-socket keep-alive client: ``(round_trip, close)``, where
    ``round_trip()`` sends ``request`` and returns the answer's body."""
    conn = socket.create_connection(address)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def round_trip() -> bytes:
        conn.sendall(request)
        data = conn.recv(65536)
        while b"\r\n\r\n" not in data:
            data += conn.recv(65536)
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head)[1])
        while len(body) < length:
            body += conn.recv(65536)
        return body

    return round_trip, conn.close


def bench_http_roundtrip(n: int, trials: int) -> dict:
    """One keep-alive ``POST /predict`` round trip on a loopback
    connection, a raw-socket client in this process: a bare stdlib
    ``BaseHTTPRequestHandler`` answering a constant vs
    :class:`~repro.serve.service.PredictionServer` over a 24-rule model
    (head checks, JSON, dispatch, scorer, traffic monitor).  Each timed
    batch is n round trips.

    ``server_cpu_us`` is the process CPU per ``/predict`` round trip
    minus the client thread's own: the server's handler thread, plus
    its accept loop waking twice a second.
    """
    segmentation, scorer, x_values, y_values = _scorer_case(1)
    x, y = float(x_values[0]), float(y_values[0])
    body = json.dumps({"model": "bench", "x": x, "y": y}).encode()
    request = (b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: %d\r\n\r\n" % len(body) + body)
    with tempfile.TemporaryDirectory() as model_dir:
        save_segmentation(segmentation, Path(model_dir) / "bench.json")
        arcs = PredictionServer(
            ("127.0.0.1", 0),
            PredictionService(ModelRegistry(model_dir).load()),
        )
        stdlib = ThreadingHTTPServer(("127.0.0.1", 0), _ConstantHandler)
        for server in (arcs, stdlib):
            threading.Thread(target=server.serve_forever,
                             daemon=True).start()
        arcs_trip, arcs_close = _round_tripper(arcs.server_address,
                                               request)
        stdlib_trip, stdlib_close = _round_tripper(
            stdlib.server_address, request)
        try:
            expected = scorer.score(x, y)
            answer = json.loads(arcs_trip())
            assert answer["rule"] == (expected if expected >= 0
                                      else None), "/predict differs"
            assert stdlib_trip() == _ConstantHandler.answer
            stdlib_seconds = best_of(stdlib_trip, trials=trials, number=n)
            arcs_seconds = best_of(arcs_trip, trials=trials, number=n)
            process, thread = time.process_time(), time.thread_time()
            for _ in range(n):
                arcs_trip()
            server_cpu = ((time.process_time() - process)
                          - (time.thread_time() - thread)) / n
        finally:
            arcs_close()
            stdlib_close()
            for server in (arcs, stdlib):
                server.shutdown()
                server.server_close()
    return {
        "name": "http_roundtrip",
        "n": n,
        "unit": "round trips",
        "scalar_seconds": stdlib_seconds,
        "vectorized_seconds": arcs_seconds,
        "round_trip_us": arcs_seconds * 1e6,
        "target_us": HTTP_ROUND_TRIP_TARGET_US,
        "server_cpu_us": server_cpu * 1e6,
    }


def bench_fit(n: int, trials: int) -> dict:
    """``ARCS.fit`` end to end on n tuples of Function 2 with the e2e
    fit workloads' search (:data:`FIT_CONFIG`): the best untraced fit
    seconds, and the split of one traced fit by stage.

    Each stage's seconds are the summed self time of the spans that
    carry its name in the fit's :class:`~repro.obs.report.RunReport`
    (:meth:`~repro.obs.report.RunReport.self_seconds`, never below
    zero), and ``other`` is the self time of every other span (the
    search loop, the lattice, the winner's rules).  The search helper's
    trial spans are in the report too, and they ran beside the fit
    process's own, so shares are over the summed self time of all
    spans, not over the traced fit's wall-clock total.
    """
    table = repro.generate_synthetic(repro.SyntheticConfig(
        n_tuples=n, function_id=2, perturbation=0.05, seed=909,
    ))

    def fit():
        return ARCS(FIT_CONFIG).fit(table, "age", "salary", "group", "A")

    untraced = fit()
    seconds = best_of(fit, trials=trials)
    obs.enable()
    try:
        traced = fit()
    finally:
        obs.disable()
    assert traced.history == untraced.history, "traced fit differs"
    self_seconds = traced.run_report.self_seconds()
    stage_seconds = {stage: self_seconds.get(stage, 0.0)
                     for stage in FIT_STAGES}
    stage_seconds["other"] = sum(
        value for name, value in self_seconds.items()
        if name not in stage_seconds
    )
    busy = sum(stage_seconds.values())
    return {
        "name": "fit",
        "n": n,
        "unit": "tuples",
        "seconds": seconds,
        "trials": len(untraced.history),
        "traced_seconds": traced.run_report.duration_seconds,
        "stage_seconds": stage_seconds,
        "stage_shares": {
            stage: value / busy for stage, value in stage_seconds.items()
        },
    }


BENCHMARKS = {
    "binner": bench_binner,
    "verifier": bench_verifier,
    "smoothing": bench_smoothing,
    "bitop_masks": bench_bitop_masks,
    "scorer": bench_scorer,
    "scorer_point": bench_scorer_point,
    "incremental": bench_incremental,
    "merge": bench_merge,
    "bitop_cover": bench_bitop_cover,
    "trial": bench_trial,
    "http_roundtrip": bench_http_roundtrip,
}


# ----------------------------------------------------------------------
# Budget comparison and reporting
# ----------------------------------------------------------------------
def load_budgets(path: Path) -> dict:
    payload = json.loads(path.read_text())
    if payload.get("format") != "arcs-perf-budgets":
        raise SystemExit(f"{path} is not an arcs-perf-budgets file")
    return payload


def apply_budget(result: dict, budget: dict | None,
                 tolerance: float) -> dict:
    """Annotate one measurement with its budget verdict (in place)."""
    result["speedup"] = (
        result["scalar_seconds"] / result["vectorized_seconds"]
    )
    if budget is None:
        result["status"] = "no-budget"
        return result
    floor = budget["min_speedup"] * (1.0 - tolerance)
    result["budget_min_speedup"] = budget["min_speedup"]
    result["budget_floor"] = floor
    result["status"] = "pass" if result["speedup"] >= floor else "fail"
    return result


def apply_ceiling(result: dict, gate: dict | None) -> dict:
    """Annotate one fit measurement with its absolute-ceiling verdict
    (in place)."""
    if gate is None:
        result["status"] = "no-budget"
        return result
    result["max_seconds"] = float(gate["max_seconds"])
    result["status"] = (
        "pass" if result["seconds"] <= result["max_seconds"] else "fail"
    )
    return result


def _seconds(value: float) -> str:
    """Seconds to 4 places, or microseconds below a millisecond."""
    return f"{value:.4f}s" if value >= 1e-3 else f"{value * 1e6:.1f}us"


def render(results: list[dict]) -> str:
    header = (
        f"{'benchmark':<14} {'n':>8} {'scalar':>12} {'vectorized':>12} "
        f"{'speedup':>9} {'budget':>8} {'status':>9}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        budget = result.get("budget_min_speedup")
        lines.append(
            f"{result['name']:<14} {result['n']:>8} "
            f"{_seconds(result['scalar_seconds']):>12} "
            f"{_seconds(result['vectorized_seconds']):>12} "
            f"{result['speedup']:>8.1f}x "
            f"{('%.1fx' % budget) if budget else '-':>8} "
            f"{result['status']:>9}"
        )
    lines += [
        f"{result['name']}: {result['round_trip_us']:.1f}us per round "
        f"trip (target {result['target_us']:.0f}us, not gated), server "
        f"CPU {result['server_cpu_us']:.1f}us"
        for result in results if "round_trip_us" in result
    ]
    return "\n".join(lines)


def render_fits(fits: list[dict]) -> str:
    header = (
        f"{'fit':<12} {'n':>8} {'seconds':>12} {'trials':>7} "
        f"{'ceiling':>8} {'status':>9}  stage shares"
    )
    lines = [header, "-" * len(header)]
    for fit in fits:
        shares = sorted(fit["stage_shares"].items(),
                        key=lambda item: -item[1])
        split = " ".join(f"{stage} {share:.0%}" for stage, share in shares)
        ceiling = fit.get("max_seconds")
        lines.append(
            f"{'fit':<12} {fit['n']:>8} {fit['seconds']:>11.4f}s "
            f"{fit['trials']:>7} "
            f"{('%.2fs' % ceiling) if ceiling else '-':>8} "
            f"{fit['status']:>9}  {split}"
        )
    return "\n".join(lines)


def write_report(path: Path, results: list[dict], mode: str,
                 tolerance: float, status: str,
                 error: str | None = None,
                 fits: list[dict] | None = None) -> None:
    payload = {
        "format": "arcs-perf-report",
        "version": 1,
        "generated_at": time.time(),  # wall-clock: ok (artefact stamp)
        "mode": mode,
        "noise_tolerance": tolerance,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "status": status,
        "results": results,
        "fits": fits or [],
    }
    if error is not None:
        payload["error"] = error
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def rebaseline(results: list[dict], budget_payload: dict,
               path: Path) -> None:
    """Rewrite the kernel budgets from fresh measurements.

    Budgeted speedups are set to half the measured speedup (and at least
    1.0), leaving generous room for machine variation on top of the
    noise tolerance; tighten by hand if a kernel's win must be defended
    more aggressively.  The absolute gates (``fit``, ``serving``) are
    kept as they are.
    """
    payload = dict(budget_payload)
    payload["budgets"] = {
        result["name"]: {
            "min_speedup": round(max(1.0, result["speedup"] / 2.0), 1)
        }
        for result in results
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"rebaselined budgets written to {path}")


def determinism_gate() -> list[str]:
    """The ``determinism`` checker's findings for the pipeline packages.

    Speedup ratios are only comparable when both sides compute the same
    thing on every run, so the harness refuses to time code that draws
    from global or unseeded RNGs (see docs/static_analysis.md).
    """
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tools.analyze import run_analysis

    result = run_analysis(select=["determinism"], repo_root=REPO_ROOT)
    return [finding.render() for finding in result.findings]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"report path (default {DEFAULT_OUT})")
    parser.add_argument("--budgets", type=Path, default=BUDGETS_PATH,
                        help=f"budget file (default {BUDGETS_PATH})")
    parser.add_argument("--only", action="append",
                        choices=[*BENCHMARKS, "fit"],
                        help="run a subset (repeatable)")
    parser.add_argument("--trials", type=int, default=None,
                        help="timing trials per kernel (default 5, "
                             "3 with --quick)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite the budget file from this run "
                             "instead of gating on it")
    args = parser.parse_args(argv)

    problems = determinism_gate()
    if problems:
        print("determinism gate failed; refusing to time "
              "non-deterministic kernels:")
        for line in problems:
            print(f"  {line}")
        return 1

    budget_payload = load_budgets(args.budgets)
    tolerance = float(budget_payload.get("noise_tolerance", 0.25))
    budgets = budget_payload.get("budgets", {})
    trials = args.trials or (3 if args.quick else 5)
    sizes = _sizes(args.quick)
    names = args.only or [*BENCHMARKS, "fit"]

    mode = "quick" if args.quick else "full"
    results = []
    fits = []
    try:
        for name in names:
            if name == "fit":
                continue
            result = BENCHMARKS[name](sizes[name], trials)
            apply_budget(result, budgets.get(name), tolerance)
            results.append(result)
        if "fit" in names:
            for size in FIT_SIZES:
                fits.append(apply_ceiling(bench_fit(size, trials),
                                          budget_payload.get("fit")))
    except BaseException as error:
        # A crashing benchmark must still leave a report behind — the
        # perf trajectory (one report per commit) treats a missing file
        # as a broken run, and CI fails loudly on it.
        write_report(args.out, results, mode, tolerance, "error",
                     error=f"{type(error).__name__}: {error}", fits=fits)
        print(f"benchmark crashed; partial report written to {args.out}")
        raise

    failed = [r for r in results + fits if r["status"] == "fail"]
    status = "fail" if failed else "pass"
    print(f"perf-budget run ({mode} mode, tolerance {tolerance:.0%}):\n")
    if results:
        print(render(results))
    if fits:
        print(render_fits(fits))
    write_report(args.out, results, mode, tolerance, status, fits=fits)
    print(f"\nreport written to {args.out}")

    if args.rebaseline:
        rebaseline(results, budget_payload, args.budgets)
        return 0
    if failed:
        names = ", ".join(r["name"] for r in failed)
        print(f"\nPERF BUDGET EXCEEDED: {names} (see report). "
              f"If the regression is intentional, re-baseline with "
              f"--rebaseline and commit the budget change.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
