#!/usr/bin/env python
"""End-to-end benchmark: ARCS fits and serving, over four workloads.

Usage, from the root of a checkout::

    python benchmarks/e2e/run.py                      # all four workloads
    python benchmarks/e2e/run.py --trace              # plus per-layer run
    python benchmarks/e2e/run.py --workload fit-dense --seed 3
    python benchmarks/e2e/run.py --repeat 5 --out a.json

Each workload runs in a fresh process (``workloads.py``).  The default
run measures the end-to-end metrics with tracing off.  ``--trace`` runs
each workload a second time with timing wrappers around every layer,
reports per-layer calls, total/self time and share, and the tracing
overhead (traced over untraced median latency, minus 1).

Every line but the last is for people: each metric with its unit and
sample count, its change against the committed seed baseline, the
per-layer table and the correctness checks.  The last line is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json``, or its per-layer metrics
under ``--trace``.  ``--out`` writes the full report, also when the run
crashes (``"status": "error"``).  Exit status 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BASELINE_PATH,
    E2E_DIR,
    REPO_ROOT,
    RUN_ROOT,
    child_env,
    load_spec,
    metric_units,
    use_repo_source,
)

#: A workload process that runs this much past its measured seconds is
#: stuck; its whole process group is killed.
CHILD_GRACE_SECONDS = 90.0


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              run_dir: Path) -> dict:
    """One workload in a fresh process; returns its result record."""
    run_dir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(E2E_DIR / "workloads.py"), workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--run-dir", str(run_dir)]
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, cwd=REPO_ROOT,
        env=child_env(run_dir), start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(
            timeout=3 * seconds + CHILD_GRACE_SECONDS
        )
    finally:
        if process.poll() is None:
            # Timeout or interrupt: the servers it started go too.
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(
            f"workload {workload} (seed {seed}, trace {int(trace)}) "
            f"exited with {process.returncode}"
        )
    lines = stdout.decode().strip().splitlines()
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, run_dir: Path) -> dict:
    """The untraced run, and the traced one under ``--trace``."""
    untraced = run_child(workload, seed, seconds, False,
                         run_dir / "untraced")
    traced = (run_child(workload, seed, seconds, True, run_dir / "traced")
              if trace else None)
    return make_record(spec, untraced, traced)


def make_record(spec: dict, untraced: dict,
                traced: dict | None = None) -> dict:
    """One workload's report entry from its workload results: metrics
    with units, checks and operation counts of both runs, and under
    tracing every per-layer metric of ``BENCHMARK.json`` (0 when the
    workload does not run the layer)."""
    units = metric_units(spec, "end_to_end")
    missing = sorted(set(units) - set(untraced["metrics"]))
    if missing:
        raise RuntimeError(
            f"{untraced['workload']} reported no {', '.join(missing)}"
        )
    record = {
        "workload": untraced["workload"],
        "seed": untraced["seed"],
        "seconds": untraced["seconds"],
        "metrics": {
            name: {**untraced["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
        "detail": untraced["detail"],
        "checks": list(untraced["checks"]),
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
    }
    if traced is not None:
        record["checks"] += [
            {**check, "name": f"traced.{check['name']}"}
            for check in traced["checks"]
        ]
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        if "hashes" in untraced["detail"]:
            ours, theirs = (run["detail"]["hashes"]
                            for run in (untraced, traced))
            record["checks"].append({
                "name": "fit.traced_agrees", "ok": ours == theirs,
                "detail": f"untraced {ours}, traced {theirs}",
            })
            record["attempted"] += 1
            record["failed"] += ours != theirs
        values = dict(traced["layers"])
        values["trace.overhead"] = (
            traced["metrics"]["latency_p50_ms"]["value"]
            / untraced["metrics"]["latency_p50_ms"]["value"] - 1.0
        )
        values["trace.absent_targets"] = len(traced["absent"])
        record["layers"] = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in metric_units(spec, "per_layer").items()
        }
        record["absent"] = traced["absent"]
    record["fail_ratio"] = record["failed"] / record["attempted"]
    return record


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _baseline() -> dict:
    try:
        return json.loads(BASELINE_PATH.read_text())["workloads"]
    except (OSError, ValueError, KeyError):
        return {}


def render(record: dict, baseline: dict) -> str:
    lines = [f"{record['workload']} (seed {record['seed']}, "
             f"{record['seconds']:g} s)"]
    reference = baseline.get(record["workload"], {})
    for name, metric in record["metrics"].items():
        line = (f"  {name:<18} {metric['value']:>14.6g} "
                f"{metric['unit']:<5} n={metric['n']}")
        base = reference.get(name)
        if base:
            change = (metric["value"] - base) / base
            line += f"  (seed baseline {base:.6g}, {change:+.1%})"
        lines.append(line)
    detail = record["detail"]
    shown = {key: detail[key] for key in (
        "fit_s", "region_error", "rules", "predict_p99_ms", "watch_s",
        "refits", "publishes", "swaps", "batch_points_per_s",
        "loadgen.late_p99_ms", "drain_s_max",
    ) if key in detail}
    lines.append("  " + "  ".join(
        f"{key}={value:.6g}" if isinstance(value, float)
        else f"{key}={value}" for key, value in shown.items()
    ))
    failed = [check for check in record["checks"] if not check["ok"]]
    lines.append(
        f"  fail_ratio={record['fail_ratio']:.6g} "
        f"({record['failed']}/{record['attempted']} operations); "
        f"{len(record['checks']) - len(failed)}/{len(record['checks'])} "
        f"checks passed"
    )
    for check in failed:
        lines.append(f"  FAILED {check['name']}: {check['detail']}")
    if "layers" in record:
        lines.append(f"  {'per-layer (traced run)':<40} value")
        for name, metric in record["layers"].items():
            lines.append(f"    {name:<38} {metric['value']:>14.6g} "
                         f"{metric['unit']}")
        absent = ", ".join(record["absent"]) or "none"
        lines.append(f"    absent targets: {absent}")
    return "\n".join(lines)


def result_line(records: list[dict], trace: bool) -> dict:
    """The contract line: one workload's metrics flat, several nested
    per workload (the median over repeats when a workload repeats)."""
    key = "layers" if trace else "metrics"
    by_workload: dict[str, dict] = {}
    for record in records:
        for name, metric in record[key].items():
            entry = by_workload.setdefault(record["workload"], {})
            entry.setdefault(name, {"values": [], "unit": metric["unit"]})
            entry[name]["values"].append(metric["value"])
    metrics = {
        workload: {
            name: {"value": statistics.median(m["values"]),
                   "unit": m["unit"]}
            for name, m in entries.items()
        }
        for workload, entries in by_workload.items()
    }
    if len(metrics) == 1:
        metrics = next(iter(metrics.values()))
    failed = sum(record["failed"] for record in records)
    return {
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }


def write_report(path: Path, args, records: list[dict], status: str,
                 error: str | None = None) -> None:
    payload = {
        "format": "arcs-e2e-report",
        "version": 1,
        "generated_at": time.time(),  # wall-clock: ok (report stamp)
        "status": status,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeat": args.repeat,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
        },
        "runs": records,
    }
    if error is not None:
        payload["error"] = error
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="also run traced; print per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run everything K times, repeat r with "
                             "seed + r, each in fresh processes")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full JSON report here")
    args = parser.parse_args(argv)

    use_repo_source()
    # SIGTERM unwinds like an error, so the workload process group and
    # the run directory are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    baseline = _baseline()
    run_dir = RUN_ROOT / f"run-{os.getpid()}"
    records: list[dict] = []
    try:
        for repeat in range(args.repeat):
            for workload in workloads:
                record = run_workload(
                    spec, workload, args.seed + repeat, args.seconds,
                    bool(args.trace),
                    run_dir / f"{workload}-{repeat}",
                )
                records.append(record)
                sys.stdout.write(render(record, baseline) + "\n")
                sys.stdout.flush()
    except BaseException as error:
        if args.out is not None:
            write_report(args.out, args, records, "error",
                         f"{type(error).__name__}: {error}")
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    line = result_line(records, bool(args.trace))
    if args.out is not None:
        write_report(args.out, args, records,
                     "pass" if line["correct"] else "fail")
    sys.stdout.write(json.dumps(line) + "\n")
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
