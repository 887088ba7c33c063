"""Command-line interface to the ARCS system.

Subcommands mirror the library workflow:

* ``arcs generate`` — write a synthetic demographic data set (the
  paper's Table 1 generator) to CSV;
* ``arcs fit`` — run the full ARCS pipeline on a CSV and print (and
  optionally save) the segmentation;
* ``arcs remine`` — re-mine a saved BinArray at explicit thresholds
  (the paper's instantaneous threshold change, across processes);
* ``arcs inspect`` — pretty-print a saved segmentation and optionally
  evaluate it against a CSV;
* ``arcs serve`` — serve a directory of saved segmentations over HTTP
  (``/predict``, ``/predict_batch``, ``/explain``, ``/models``,
  ``/healthz``, ``/metrics``, ``/stats``, ``/fleet`` — see
  ``docs/serving.md``);
* ``arcs fleet`` — query a running server's ``GET /fleet`` lifecycle
  surface and print the per-worker status table;
* ``arcs watch`` — stream a CSV replay or tailed JSONL file through a
  tumbling/sliding tuple window, refit on cadence, and atomically
  publish refreshed artefacts into a ``serve`` models directory (see
  ``docs/streaming.md``);
* ``arcs score`` — apply a saved segmentation to a CSV offline;
* ``arcs drift`` — compare two occupancy snapshots (training BinArray,
  segmentation artefact with an embedded reference profile, or a
  captured ``/stats`` payload) with PSI / Jensen-Shannon scores and an
  ASCII delta grid.

Every command is driven by :func:`main`, which takes an argv list so
tests can invoke it without a subprocess.

Observability flags (``fit``, ``fit-all``, ``remine``, ``describe``,
``inspect``) expose the :mod:`repro.obs` layer without code changes:

* ``--log-level LEVEL`` — configure :mod:`logging` for the process (the
  library logs at DEBUG/INFO through module loggers);
* ``--trace`` — collect a span tree + metrics for the run and print the
  ASCII summary after the command's normal output;
* ``--metrics-out PATH`` — write the run's machine-readable
  :class:`~repro.obs.report.RunReport` JSON to ``PATH``;
* ``--trace-out PATH`` — export the run's span tree as Chrome
  trace-event JSON (open in Perfetto / ``chrome://tracing``);
* ``--events-out PATH`` — append structured JSONL events (one per run,
  stage, and served request) to ``PATH``;
* ``--profile-out PATH`` — run the stdlib sampling profiler for the
  whole command and write collapsed (flamegraph) stacks to ``PATH``.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import repro
from repro import obs
from repro.obs import trace
from repro.binning.binner import record_occupancy
from repro.binning.strategies import STRATEGIES
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.clusterer import GridClusterer
from repro.core.optimizer import OptimizerConfig, segmentation_from_outcome
from repro.core.verifier import Verifier
from repro.data.io import read_csv, write_csv
from repro.data.schema import AttributeSpec, categorical, quantitative
from repro.data.synthetic import DEMOGRAPHIC_ATTRIBUTES, GROUP_ATTRIBUTE
from repro.data.summary import format_occupancy, profile_bin_array
from repro.mining.engine import rule_measures
from repro.obs.report import RunCapture, RunReport
from repro.persistence import (
    load_bin_array,
    load_segmentation,
    save_bin_array,
    save_segmentation,
    segmentation_metadata,
)

logger = logging.getLogger(__name__)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (see the module docstring)."""
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        help="configure logging for the run (library loggers emit at "
             "DEBUG/INFO)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="collect spans + metrics and print the run summary",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="write the machine-readable run report JSON to PATH",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="PATH",
        help="write the run's span tree as Chrome trace-event JSON "
             "(loadable in Perfetto)",
    )
    parser.add_argument(
        "--events-out", type=Path, default=None, metavar="PATH",
        help="append structured JSONL events (runs, stages, requests) "
             "to PATH",
    )
    parser.add_argument(
        "--profile-out", type=Path, default=None, metavar="PATH",
        help="sample the whole command and write collapsed flamegraph "
             "stacks to PATH",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcs",
        description="Association Rule Clustering System "
                    "(Lent, Swami, Widom — ICDE 1997)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {repro.__version__}",
    )
    # required=True makes a missing or unknown subcommand an argparse
    # usage error: message on stderr, exit status 2 — consistently.
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic demographic data set"
    )
    generate.add_argument("output", type=Path, help="CSV to write")
    generate.add_argument("--tuples", type=int, default=50_000)
    generate.add_argument("--function", type=int, default=2,
                          choices=range(1, 11), metavar="1..10")
    generate.add_argument("--perturbation", type=float, default=0.05)
    generate.add_argument("--outliers", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)

    fit = commands.add_parser(
        "fit", help="run ARCS on a CSV and print the segmentation"
    )
    fit.add_argument("data", type=Path, help="input CSV")
    fit.add_argument("--x", required=True, help="first LHS attribute")
    fit.add_argument("--y", required=True, help="second LHS attribute")
    fit.add_argument("--rhs", required=True,
                     help="segmentation (criterion) attribute")
    fit.add_argument("--target", required=True,
                     help="criterion value to segment on")
    fit.add_argument("--bins", type=int, default=50,
                     help="bins per LHS attribute (paper default 50)")
    fit.add_argument("--strategy", default="equi-width",
                     choices=STRATEGIES)
    fit.add_argument("--save-segmentation", type=Path, default=None,
                     help="write the result as JSON")
    fit.add_argument("--save-binarray", type=Path, default=None,
                     help="persist the BinArray for later re-mining")
    fit.add_argument("--support-levels", type=int, default=16)
    fit.add_argument("--confidence-levels", type=int, default=8)
    fit.add_argument("--time-budget", type=float, default=None,
                     help="optimizer wall-clock budget in seconds")
    fit.add_argument("--verbose", action="store_true",
                     help="print every optimizer trial as it completes")
    _add_obs_flags(fit)

    fit_all = commands.add_parser(
        "fit-all",
        help="one segmentation per criterion value, from one binning "
             "pass",
    )
    fit_all.add_argument("data", type=Path, help="input CSV")
    fit_all.add_argument("--x", required=True)
    fit_all.add_argument("--y", required=True)
    fit_all.add_argument("--rhs", required=True)
    fit_all.add_argument("--bins", type=int, default=50)
    fit_all.add_argument("--support-levels", type=int, default=16)
    fit_all.add_argument("--confidence-levels", type=int, default=8)
    _add_obs_flags(fit_all)

    remine = commands.add_parser(
        "remine",
        help="re-mine a saved BinArray at explicit thresholds",
    )
    remine.add_argument("binarray", type=Path, help="saved .npz")
    remine.add_argument("--target", required=True)
    remine.add_argument("--min-support", type=float, required=True)
    remine.add_argument("--min-confidence", type=float, required=True)
    remine.add_argument("--save-segmentation", type=Path, default=None)
    _add_obs_flags(remine)

    describe = commands.add_parser(
        "describe", help="profile a CSV's attributes"
    )
    describe.add_argument("data", type=Path, help="input CSV")
    describe.add_argument("--top", type=int, default=5,
                          help="top categorical values to list")
    _add_obs_flags(describe)

    inspect = commands.add_parser(
        "inspect", help="print a saved segmentation"
    )
    inspect.add_argument("segmentation", type=Path, help="saved JSON")
    inspect.add_argument("--evaluate", type=Path, default=None,
                         help="CSV to measure the error rate against")
    _add_obs_flags(inspect)

    serve = commands.add_parser(
        "serve",
        help="serve a directory of saved segmentations over HTTP",
    )
    serve.add_argument("models", type=Path,
                       help="directory of segmentation JSON artefacts")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8799,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--refresh-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="how often the model directory is re-checked "
                            "for hot reload (negative disables)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="scoring worker processes sharing the "
                            "listening socket, each loading and "
                            "hot-reloading the models itself "
                            "(0 = single threaded process)")
    serve.add_argument("--fleet-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="with --workers: how often each worker "
                            "ships its metrics snapshot to the parent "
                            "for fleet aggregation (default 2; 0 "
                            "disables periodic telemetry)")
    serve.add_argument("--fleet-path", type=Path, default=None,
                       metavar="PATH",
                       help="with --workers: publish the merged fleet "
                            "telemetry document to PATH instead of a "
                            "private temp file (the file survives "
                            "shutdown)")
    _add_obs_flags(serve)

    fleet = commands.add_parser(
        "fleet",
        help="show a running server's fleet status (GET /fleet)",
    )
    fleet.add_argument("url",
                       help="server base URL, e.g. "
                            "http://127.0.0.1:8799")
    fleet.add_argument("--timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="HTTP timeout (default 5)")
    fleet.add_argument("--json", action="store_true", dest="raw_json",
                       help="print the raw /fleet payload instead of "
                            "the status table")
    _add_obs_flags(fleet)

    watch = commands.add_parser(
        "watch",
        help="continuously refit a tuple stream and publish refreshed "
             "segmentations into a served model directory",
    )
    watch.add_argument(
        "data", type=Path,
        help="CSV to replay (bounded), or JSONL file to tail with "
             "--follow",
    )
    watch.add_argument("--x", required=True, help="first LHS attribute")
    watch.add_argument("--y", required=True, help="second LHS attribute")
    watch.add_argument("--rhs", required=True,
                       help="segmentation (criterion) attribute")
    watch.add_argument("--target", required=True,
                       help="criterion value to segment on")
    watch.add_argument(
        "--models", type=Path, required=True,
        help="model directory to publish refreshed artefacts into "
             "(the directory `arcs serve` hot-reloads from)",
    )
    watch.add_argument(
        "--name", default=None,
        help="artefact stem; refits overwrite <models>/<name>.json "
             "(default watch_<target>)",
    )
    watch.add_argument("--mode", default="tumbling",
                       choices=("tumbling", "sliding"),
                       help="window shape (default tumbling)")
    watch.add_argument(
        "--window", type=int, default=5000, metavar="N",
        help="tuples per window: the refit period for tumbling "
             "windows, the retained history for sliding ones",
    )
    watch.add_argument(
        "--refit-every", type=int, default=None, metavar="N",
        help="sliding mode: tuples between refits (default: refit "
             "after every ingested chunk)",
    )
    watch.add_argument("--bins", type=int, default=50,
                       help="bins per LHS attribute (paper default 50)")
    watch.add_argument("--strategy", default="equi-width",
                       choices=STRATEGIES)
    watch.add_argument("--chunk-rows", type=int, default=1024,
                       help="tuples per ingested chunk")
    watch.add_argument("--min-support", type=float, default=0.01)
    watch.add_argument("--min-confidence", type=float, default=0.5)
    watch.add_argument(
        "--follow", action="store_true",
        help="tail DATA as append-only JSONL (one object per line) "
             "instead of replaying it as CSV",
    )
    watch.add_argument("--poll-interval", type=float, default=0.2,
                       metavar="SECONDS",
                       help="tail polling interval with --follow")
    watch.add_argument(
        "--idle-polls", type=int, default=25, metavar="N",
        help="stop tailing after N consecutive empty polls with "
             "--follow (0 tails forever)",
    )
    watch.add_argument("--max-refits", type=int, default=None,
                       metavar="N",
                       help="stop after N refits")
    watch.add_argument("--pace", type=float, default=0.0,
                       metavar="SECONDS",
                       help="seconds between replayed chunks")
    _add_obs_flags(watch)

    score = commands.add_parser(
        "score",
        help="apply a saved segmentation to a CSV offline",
    )
    score.add_argument("model", type=Path,
                       help="saved segmentation JSON")
    score.add_argument("--input", type=Path, required=True,
                       help="CSV with the segmentation's LHS columns")
    score.add_argument("--output", type=Path, default=None,
                       help="write per-row predictions as CSV")
    _add_obs_flags(score)

    drift = commands.add_parser(
        "drift",
        help="compare two occupancy snapshots "
             "(PSI / Jensen-Shannon + ASCII delta grid)",
    )
    drift.add_argument(
        "reference", type=Path,
        help="baseline snapshot: a BinArray .npz, a segmentation JSON "
             "with an embedded reference profile, or a captured /stats "
             "payload",
    )
    drift.add_argument("observed", type=Path,
                       help="comparison snapshot (same formats)")
    drift.add_argument(
        "--model", default=None,
        help="model entry to read when a /stats capture holds several",
    )
    drift.add_argument(
        "--rel-tol", type=float, default=0.25,
        help="per-cell relative tolerance below which the delta grid "
             "marks a cell as steady (default 0.25)",
    )
    _add_obs_flags(drift)

    return parser


def _infer_specs(path: Path) -> list[AttributeSpec]:
    """Infer a schema from a CSV: numeric-looking columns become
    quantitative, the rest categorical.

    The synthetic generator's schema is recognised by its header and
    used verbatim (declared domains keep bin layouts canonical).
    """
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        sample = handle.readline().strip().split(",")
    synthetic_names = [
        spec.name for spec in DEMOGRAPHIC_ATTRIBUTES
    ] + [GROUP_ATTRIBUTE.name]
    if set(header) == set(synthetic_names):
        return list(DEMOGRAPHIC_ATTRIBUTES) + [GROUP_ATTRIBUTE]
    specs = []
    for name, value in zip(header, sample):
        try:
            float(value)
        except ValueError:
            specs.append(categorical(name))
        else:
            specs.append(quantitative(name))
    return specs


def _coerce_target(value: str):
    """CSV round trips stringify everything, so targets stay strings
    unless the RHS encoding holds numbers."""
    return value


def _configure_observability(args: argparse.Namespace) -> None:
    """Apply the shared obs flags (commands without them are no-ops)."""
    level = getattr(args, "log_level", None)
    if level is not None:
        logging.basicConfig(
            level=getattr(logging, level),
            format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        )
    for flag, description in (
        ("metrics_out", "run report"),
        ("trace_out", "trace export"),
        ("events_out", "event log"),
        ("profile_out", "profile"),
    ):
        target = getattr(args, flag, None)
        if target is not None:
            parent = Path(target).resolve().parent
            if not parent.is_dir():
                # Fail before the run, not after minutes of work.
                raise SystemExit(
                    f"arcs: cannot write {description} to {target}: "
                    f"directory {parent} does not exist"
                )
    events_out = getattr(args, "events_out", None)
    if events_out is not None:
        from repro.obs import events

        events.enable_events(events_out)
    if (getattr(args, "trace", False)
            or getattr(args, "metrics_out", None) is not None
            or getattr(args, "trace_out", None) is not None
            or events_out is not None):
        # --events-out needs the span tree too: the run/stage events
        # are derived from the finished RunReport.
        obs.enable()


def _emit_run_report(args: argparse.Namespace,
                     report: RunReport | None) -> None:
    """Print and/or persist a run report per the shared obs flags."""
    if report is None:
        return
    if getattr(args, "trace", False):
        print(f"\n{report.summary()}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        report.write(metrics_out)
        print(f"run report written to {metrics_out}")
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        if report.trace is None:
            print(f"no span tree captured; {trace_out} not written")
        else:
            from repro.obs.trace_export import write_chrome_trace

            write_chrome_trace(trace_out, report)
            print(f"chrome trace written to {trace_out}")


def _command_generate(args: argparse.Namespace) -> int:
    config = repro.SyntheticConfig(
        n_tuples=args.tuples,
        function_id=args.function,
        perturbation=args.perturbation,
        outlier_fraction=args.outliers,
        seed=args.seed,
    )
    table = repro.generate_synthetic(config)
    write_csv(table, args.output)
    print(f"wrote {len(table):,} tuples to {args.output}")
    return 0


def _command_fit(args: argparse.Namespace) -> int:
    specs = _infer_specs(args.data)
    table = read_csv(args.data, specs)
    print(f"loaded {len(table):,} tuples from {args.data}")

    config = ARCSConfig(
        n_bins_x=args.bins,
        n_bins_y=args.bins,
        binning_strategy=args.strategy,
        optimizer=OptimizerConfig(
            max_support_levels=args.support_levels,
            max_confidence_levels=args.confidence_levels,
            time_budget_seconds=args.time_budget,
        ),
    )
    start = time.perf_counter()
    result = ARCS(config).fit(
        table, args.x, args.y, args.rhs, _coerce_target(args.target),
        on_trial=print if args.verbose else None,
    )
    elapsed = time.perf_counter() - start

    print(f"\nsegmentation for {args.rhs} = {args.target} "
          f"({elapsed:.2f}s, {len(result.history)} trials):")
    print(result.segmentation.describe())
    print(f"\n{result.best_trial}")

    if args.save_segmentation is not None:
        # Embedding the training occupancy lets the serving layer score
        # live-traffic drift against this exact fit (GET /stats).
        save_segmentation(result.segmentation, args.save_segmentation,
                          bin_array=result.binner.bin_array)
        print(f"segmentation saved to {args.save_segmentation}")
    if args.save_binarray is not None:
        save_bin_array(result.binner.bin_array, args.save_binarray)
        print(f"BinArray saved to {args.save_binarray}")
    _emit_run_report(args, result.run_report)
    return 0


def _command_fit_all(args: argparse.Namespace) -> int:
    specs = _infer_specs(args.data)
    table = read_csv(args.data, specs)
    print(f"loaded {len(table):,} tuples from {args.data}")
    config = ARCSConfig(
        n_bins_x=args.bins,
        n_bins_y=args.bins,
        optimizer=OptimizerConfig(
            max_support_levels=args.support_levels,
            max_confidence_levels=args.confidence_levels,
        ),
    )
    arcs = ARCS(config)
    results = arcs.fit_all(table, args.x, args.y, args.rhs)
    for value, result in results.items():
        print(f"\n=== {args.rhs} = {value} "
              f"({len(result.segmentation)} rules, "
              f"error {result.best_trial.report.error_rate:.4f}) ===")
        print(result.segmentation.describe())
    _emit_run_report(args, arcs.last_run_report)
    return 0


def _command_remine(args: argparse.Namespace) -> int:
    with RunCapture("cli.remine", config={
        "binarray": str(args.binarray),
        "target": args.target,
        "min_support": args.min_support,
        "min_confidence": args.min_confidence,
    }) as capture:
        bin_array = load_bin_array(args.binarray)
        record_occupancy(bin_array)
        target = _coerce_target(args.target)
        rhs_code = bin_array.rhs_encoding.code_of(target)
        outcome = GridClusterer().cluster(
            rule_measures(bin_array, rhs_code), args.min_support,
            args.min_confidence,
        )
        segmentation = segmentation_from_outcome(
            outcome, bin_array, rhs_code
        )
    print(f"re-mined at support>={args.min_support} "
          f"confidence>={args.min_confidence}: "
          f"{len(segmentation)} rules")
    print(f"BinArray occupancy: "
          f"{format_occupancy(profile_bin_array(bin_array))}")
    print(segmentation.describe())
    if args.save_segmentation is not None:
        save_segmentation(segmentation, args.save_segmentation,
                          bin_array=bin_array)
        print(f"segmentation saved to {args.save_segmentation}")
    _emit_run_report(args, capture.report)
    return 0


def _command_describe(args: argparse.Namespace) -> int:
    from repro.data.summary import format_profile, profile_table
    with RunCapture("cli.describe",
                    config={"data": str(args.data)}) as capture:
        with trace("load"):
            specs = _infer_specs(args.data)
            table = read_csv(args.data, specs)
        with trace("profile", tuples=len(table)):
            profile = profile_table(table, top_k=args.top)
    print(format_profile(profile, len(table)))
    root = (capture.report.span_tree()
            if capture.report is not None else None)
    if root is not None:
        spans = {
            span.name: span.duration or 0.0 for _, span in root.walk()
        }
        print(f"\nprofiled {len(table):,} tuples in "
              f"{spans.get('profile', 0.0):.3f}s "
              f"(load {spans.get('load', 0.0):.3f}s)")
    _emit_run_report(args, capture.report)
    return 0


def _format_artefact_metadata(metadata: dict) -> str | None:
    """One provenance line for a saved segmentation, or ``None``."""
    if not metadata:
        return None
    version = metadata.get("library_version", "?")
    created = metadata.get("created_unix")
    if isinstance(created, (int, float)):
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S UTC", time.gmtime(created)
        )
    else:
        stamp = "unknown time"
    return f"saved by repro {version} at {stamp}"


def _command_inspect(args: argparse.Namespace) -> int:
    segmentation = load_segmentation(args.segmentation)
    provenance = _format_artefact_metadata(
        segmentation_metadata(args.segmentation)
    )
    if provenance is not None:
        print(provenance)
    print(f"segmentation for {segmentation.rhs_attribute} = "
          f"{segmentation.rhs_value} ({len(segmentation)} rules):")
    print(segmentation.describe())
    if args.evaluate is not None:
        with RunCapture("cli.inspect", config={
            "segmentation": str(args.segmentation),
            "evaluate": str(args.evaluate),
        }) as capture:
            specs = _infer_specs(args.evaluate)
            table = read_csv(args.evaluate, specs)
            verifier = Verifier(
                table, segmentation.rhs_attribute,
                segmentation.rhs_value,
                sample_size=min(5000, len(table)), repeats=5,
            )
            error_rate = verifier.exact_error_rate(segmentation)
        print(f"\nerror rate on {args.evaluate} "
              f"({len(table):,} tuples): {error_rate:.4f}")
        if capture.report is not None:
            counters = capture.report.counters()
            scanned = counters.get("verifier.tuples_scanned", 0)
            duration = capture.report.duration_seconds
            print(f"scanned {scanned:,} tuples in {duration:.3f}s")
        _emit_run_report(args, capture.report)
    return 0


def _describe_served(registry, source: Path, url: str,
                     workers: int = 0) -> None:
    mode = f" across {workers} workers" if workers else ""
    print(f"serving {len(registry)} model(s) from {source} "
          f"at {url}{mode}")
    for model in registry.models():
        segmentation = model.segmentation
        print(f"  {model.model_id}  {model.name}: "
              f"({segmentation.x_attribute}, "
              f"{segmentation.y_attribute}) => "
              f"{segmentation.rhs_attribute} = "
              f"{segmentation.rhs_value} [{len(segmentation)} rules]")


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        WorkerConfig,
        create_multiprocess_server,
        create_server,
        run_multiprocess_server,
        run_server,
    )

    if args.workers < 0:
        raise SystemExit("arcs serve: --workers must be >= 0")
    if args.fleet_interval is not None and args.fleet_interval < 0:
        raise SystemExit("arcs serve: --fleet-interval must be >= 0")
    # A serving process exists to be watched: collect metrics so
    # /metrics answers, and spans too under --trace.
    obs.enable(
        trace_spans=getattr(args, "trace", False), collect_metrics=True
    )
    if args.workers > 0:
        config = WorkerConfig(
            events_out=(str(args.events_out)
                        if getattr(args, "events_out", None) is not None
                        else None),
            trace_spans=getattr(args, "trace", False),
            **({"telemetry_interval": args.fleet_interval}
               if args.fleet_interval is not None else {}),
            **({"fleet_path": str(args.fleet_path)}
               if args.fleet_path is not None else {}),
        )
        pool = create_multiprocess_server(
            args.models, host=args.host, port=args.port,
            workers=args.workers,
            refresh_interval=args.refresh_interval, config=config,
        )
        _describe_served(pool.registry, args.models, pool.url,
                         workers=args.workers)
        run_multiprocess_server(pool)
        return 0
    server = create_server(
        args.models, host=args.host, port=args.port,
        refresh_interval=args.refresh_interval,
    )
    _describe_served(server.service.registry, args.models, server.url)
    run_server(server)
    return 0


def _format_age(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds:.1f}s ago"


def _command_fleet(args: argparse.Namespace) -> int:
    import json
    import urllib.request

    url = args.url.rstrip("/")
    if "://" not in url:
        url = f"http://{url}"
    with RunCapture("cli.fleet", config={"url": url}) as capture:
        try:
            with urllib.request.urlopen(
                    url + "/fleet", timeout=args.timeout) as response:
                payload = json.load(response)
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"arcs fleet: cannot read {url}/fleet: {error}"
            )
    if args.raw_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        _emit_run_report(args, capture.report)
        return 0
    workers = payload.get("workers", {})
    if payload.get("mode") == "process":
        print(f"{url}: single-process server "
              f"(status {payload.get('status', '?')})")
    else:
        print(f"{url}: fleet generation {payload.get('generation')}, "
              f"{len(workers)} worker(s), published "
              f"{_format_age(payload.get('published_age_seconds'))}")
    if workers:
        print(f"{'worker':>6}  {'pid':>7}  {'spawn':>5}  "
              f"{'restarts':>8}  {'uptime':>9}  {'snapshot':>12}  "
              f"{'models':>6}  state")
    for index in sorted(workers, key=lambda key: int(key)):
        entry = workers[index]
        uptime = entry.get("uptime_seconds") or 0.0
        models = entry.get("models")
        requests = entry.get("counters", {}).get("serve.requests", 0)
        state = "draining" if entry.get("draining") else "serving"
        print(f"{index:>6}  {entry.get('pid', '-'):>7}  "
              f"{entry.get('spawn_generation', '-'):>5}  "
              f"{entry.get('restarts', 0):>8}  {uptime:>8.1f}s  "
              f"{_format_age(entry.get('last_snapshot_age_seconds')):>12}  "
              f"{'-' if models is None else len(models):>6}  "
              f"{state} ({requests} requests)")
    _emit_run_report(args, capture.report)
    return 0


def _infer_jsonl_specs(path: Path) -> list[AttributeSpec]:
    """Infer a schema from a JSONL file's first record: numeric values
    become quantitative attributes, everything else categorical."""
    import json

    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                break
        else:
            raise SystemExit(f"arcs: {path} holds no records")
    try:
        record = json.loads(line)
    except ValueError as error:
        raise SystemExit(f"arcs: {path} is not JSONL: {error}")
    if not isinstance(record, dict):
        raise SystemExit(f"arcs: {path} lines must be JSON objects")
    return [
        quantitative(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool)
        else categorical(name)
        for name, value in record.items()
    ]


def _command_watch(args: argparse.Namespace) -> int:
    from repro.binning.binner import Binner
    from repro.stream import (
        CSVReplaySource,
        JSONLTailSource,
        RefitterConfig,
        StreamRefitter,
        StreamWindow,
        WindowConfig,
        run_watch,
    )

    with RunCapture("cli.watch", config={
        "data": str(args.data),
        "mode": args.mode,
        "window": args.window,
        "target": args.target,
        "min_support": args.min_support,
        "min_confidence": args.min_confidence,
    }) as capture:
        if args.follow:
            specs = _infer_jsonl_specs(args.data)
            source = JSONLTailSource(
                args.data, specs, chunk_rows=args.chunk_rows,
                poll_seconds=args.poll_interval,
                idle_polls=args.idle_polls or None,
            )
        else:
            # Spec inference needs a sample row; reject a header-only
            # CSV here rather than with a schema-mismatch error.
            with open(args.data) as handle:
                handle.readline()
                if not handle.readline().strip():
                    raise SystemExit(f"arcs: {args.data} holds no tuples")
            specs = _infer_specs(args.data)
            source = CSVReplaySource(
                args.data, specs, chunk_rows=args.chunk_rows,
                pace_seconds=args.pace,
            )
        chunk_iter = source.chunks()
        try:
            first = next(chunk_iter)
        except StopIteration:
            raise SystemExit(f"arcs: {args.data} holds no tuples")
        # The first chunk fixes the binning vocabulary: layouts prefer
        # declared domains, and categorical encodings prefer declared
        # values, so with a declared schema the grid is canonical no
        # matter how the stream is chunked.  An RHS value that never
        # appears in the first chunk of an undeclared schema fails
        # loudly when it first arrives.
        binner = Binner.fit(
            first, args.x, args.y, args.rhs, args.bins, args.bins,
            strategy=args.strategy,
        )
        window = StreamWindow(
            binner.x_layout, binner.y_layout, binner.rhs_encoding,
            WindowConfig(mode=args.mode, size=args.window,
                         refit_every=args.refit_every),
        )
        name = args.name or f"watch_{args.target}"
        try:
            refitter = StreamRefitter(
                binner.x_layout, binner.y_layout, binner.rhs_encoding,
                window, _coerce_target(args.target), args.models, name,
                RefitterConfig(min_support=args.min_support,
                               min_confidence=args.min_confidence),
            )
        except NotADirectoryError as error:
            raise SystemExit(f"arcs: {error}")
        print(f"watching {args.data} ({args.mode} window of "
              f"{args.window:,} tuples) -> {refitter.artefact_path}")

        class _Resumed:
            """The already-peeked first chunk, then the rest."""

            def chunks(self):
                yield first
                yield from chunk_iter

        summary = run_watch(
            _Resumed(), refitter, max_refits=args.max_refits,
            on_refresh=lambda record: print(f"  {record.describe()}"),
        )
    print(f"watched {summary.tuples:,} tuples in {summary.chunks} "
          f"chunks: {summary.refits} refits, "
          f"{summary.publishes} published")
    _emit_run_report(args, capture.report)
    return 0


def _command_score(args: argparse.Namespace) -> int:
    import csv

    from repro.serve.scorer import compile_scorer

    segmentation = load_segmentation(args.model)
    provenance = _format_artefact_metadata(
        segmentation_metadata(args.model)
    )
    with RunCapture("cli.score", config={
        "model": str(args.model),
        "input": str(args.input),
    }) as capture:
        with trace("load"):
            specs = _infer_specs(args.input)
            table = read_csv(args.input, specs)
        x_values = table.column(segmentation.x_attribute)
        y_values = table.column(segmentation.y_attribute)
        with trace("score", tuples=len(table)):
            scorer = compile_scorer(segmentation)
            indices = scorer.score_batch(x_values, y_values)
        inside = int((indices >= 0).sum())

    print(f"scored {len(table):,} tuples from {args.input} "
          f"against {args.model}")
    if provenance is not None:
        print(f"model {provenance}")
    share = inside / len(table) if len(table) else 0.0
    print(f"{inside:,} in segment {segmentation.rhs_attribute} = "
          f"{segmentation.rhs_value} ({share:.1%}), "
          f"{len(table) - inside:,} outside")

    if args.output is not None:
        with open(args.output, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([
                segmentation.x_attribute, segmentation.y_attribute,
                "rule", "in_segment",
            ])
            for x, y, rule in zip(x_values, y_values, indices):
                writer.writerow([
                    x, y, int(rule), bool(rule >= 0),
                ])
        print(f"predictions written to {args.output}")
    _emit_run_report(args, capture.report)
    return 0


def _load_occupancy(path: Path, model_key: str | None):
    """Load any supported occupancy snapshot as a
    :class:`~repro.data.summary.ReferenceProfile`.

    Accepts a BinArray ``.npz``, a segmentation artefact carrying a
    ``reference_profile`` block, or a captured ``/stats`` payload
    (whose ``recent`` window supplies the traffic grid).
    """
    import json

    from repro.data.summary import ReferenceProfile, reference_profile
    from repro.persistence import (
        SEGMENTATION_FORMAT,
        PersistenceError,
        segmentation_reference,
    )

    if path.suffix == ".npz":
        return reference_profile(load_bin_array(path))
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except ValueError as error:
        raise SystemExit(f"arcs: {path} is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise SystemExit(f"arcs: {path} is not an occupancy snapshot")
    if payload.get("format") == SEGMENTATION_FORMAT:
        try:
            reference = segmentation_reference(path)
        except PersistenceError as error:
            raise SystemExit(f"arcs: {error}")
        if reference is None:
            raise SystemExit(
                f"arcs: {path} has no embedded reference profile; "
                "re-save the artefact with a current 'arcs fit'"
            )
        return reference
    if "models" in payload:
        return _occupancy_from_stats(path, payload["models"], model_key)
    raise SystemExit(
        f"arcs: {path} is neither a BinArray .npz, a segmentation "
        "artefact, nor a /stats capture"
    )


def _occupancy_from_stats(path: Path, entries, model_key: str | None):
    """The traffic occupancy of one model entry in a ``/stats`` capture."""
    from repro.data.summary import ReferenceProfile

    if not isinstance(entries, dict) or not entries:
        raise SystemExit(f"arcs: {path} captures no models")
    if model_key is not None:
        entry = entries.get(model_key)
        if entry is None:
            raise SystemExit(
                f"arcs: no model {model_key!r} in {path}; captured "
                f"{sorted(entries)}"
            )
    elif len(entries) == 1:
        entry = next(iter(entries.values()))
    else:
        raise SystemExit(
            f"arcs: {path} captures {len(entries)} models "
            f"({', '.join(sorted(entries))}); pick one with --model"
        )
    try:
        reference_block = entry["reference"]
        recent = entry["recent"]
        if not reference_block.get("available"):
            raise SystemExit(
                f"arcs: the {entry.get('model', '?')} capture in {path} "
                "has no reference grid, so its traffic was never binned"
            )
        totals = recent.get("totals")
        if totals is None or recent.get("points", 0) == 0:
            raise SystemExit(
                f"arcs: the {entry.get('model', '?')} capture in {path} "
                "holds no binned traffic (empty windows)"
            )
        return ReferenceProfile(
            x_attribute=entry["x_attribute"],
            y_attribute=entry["y_attribute"],
            x_edges=reference_block["x_edges"],
            y_edges=reference_block["y_edges"],
            totals=totals,
            n_total=int(recent["points"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SystemExit(
            f"arcs: {path} is not a usable /stats capture: {error!r}"
        )


def _command_drift(args: argparse.Namespace) -> int:
    from repro.obs.drift import js_divergence, psi
    from repro.viz.ascii import render_delta_grid

    with RunCapture("cli.drift", config={
        "reference": str(args.reference),
        "observed": str(args.observed),
    }) as capture:
        reference = _load_occupancy(args.reference, args.model)
        observed = _load_occupancy(args.observed, args.model)
        if reference.totals.shape != observed.totals.shape:
            raise SystemExit(
                f"arcs: grids are incompatible: {args.reference} is "
                f"{reference.totals.shape[0]}x"
                f"{reference.totals.shape[1]}, {args.observed} is "
                f"{observed.totals.shape[0]}x{observed.totals.shape[1]}"
            )
        edges_match = (
            reference.x_edges.tolist() == observed.x_edges.tolist()
            and reference.y_edges.tolist() == observed.y_edges.tolist()
        )
        try:
            rows = [
                (reference.x_attribute,
                 psi(reference.x_counts, observed.x_counts),
                 js_divergence(reference.x_counts, observed.x_counts)),
                (reference.y_attribute,
                 psi(reference.y_counts, observed.y_counts),
                 js_divergence(reference.y_counts, observed.y_counts)),
                ("joint",
                 psi(reference.totals, observed.totals),
                 js_divergence(reference.totals, observed.totals)),
            ]
        except ValueError as error:
            raise SystemExit(f"arcs: {error}")

    print(f"drift {args.reference} ({reference.n_total:,} tuples) -> "
          f"{args.observed} ({observed.n_total:,} tuples)")
    if not edges_match:
        print("warning: bin edges differ between the snapshots; "
              "per-cell comparison assumes matching grids")
    print(f"\n{'attribute':>12}  {'PSI':>10}  {'JS (bits)':>10}")
    for attribute, psi_value, js_value in rows:
        print(f"{attribute:>12}  {psi_value:>10.4f}  {js_value:>10.4f}")
    print()
    print(render_delta_grid(
        reference.totals, observed.totals,
        x_label=reference.x_attribute, y_label=reference.y_attribute,
        rel_tol=args.rel_tol,
    ))
    _emit_run_report(args, capture.report)
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "fit": _command_fit,
    "fit-all": _command_fit_all,
    "remine": _command_remine,
    "describe": _command_describe,
    "inspect": _command_inspect,
    "serve": _command_serve,
    "fleet": _command_fleet,
    "watch": _command_watch,
    "score": _command_score,
    "drift": _command_drift,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.obs import events

    parser = _build_parser()
    args = parser.parse_args(argv)
    was_enabled = obs.enabled()
    events_were_enabled = events.events_enabled()
    _configure_observability(args)
    profile_out = getattr(args, "profile_out", None)
    profiler = None
    if profile_out is not None:
        from repro.obs.profiler import SamplingProfiler

        profiler = SamplingProfiler().start()
    try:
        return _COMMANDS[args.command](args)
    finally:
        if profiler is not None:
            profiler.stop()
            Path(profile_out).write_text(profiler.collapsed())
            print(f"profile ({profiler.samples} samples) written to "
                  f"{profile_out}")
        # Don't leak flag-driven enablement into embedding processes
        # (tests call main() in-process).
        if not events_were_enabled and events.events_enabled():
            events.disable_events()
        if not was_enabled and obs.enabled():
            obs.disable()


if __name__ == "__main__":
    sys.exit(main())
