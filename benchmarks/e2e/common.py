"""Paths, statistics and the metric schema shared by the e2e benchmark.

The benchmark runs from a plain checkout: it imports ``repro`` from the
checkout's ``src/`` directory (nothing is installed), and every file it
writes lives under :data:`RUN_ROOT` inside that checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
BASELINE_PATH = E2E_DIR / "baseline.json"
#: Scratch space for model directories, server logs and ``TMPDIR``;
#: ignored by git and removed when a run ends.
RUN_ROOT = REPO_ROOT / ".bench_run"


def use_repo_source() -> None:
    """Make the checkout's ``src/repro`` importable, or exit non-zero.

    A directory holding only the benchmark has no program to measure;
    that is an error, reported on stderr with no result line.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"e2e benchmark: no program source at {SRC_DIR / 'repro'}; "
            f"run from the root of a repository checkout\n"
        )
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env(run_dir: Path) -> dict:
    """Environment for every subprocess: the checkout's source first,
    and temporary files kept inside the run directory."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{inherited}" if inherited else str(SRC_DIR)
    )
    env["TMPDIR"] = str(tmp)
    return env


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units, bounds."""
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict, kind: str) -> dict[str, str]:
    """Metric name -> unit for ``kind`` ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def vm_hwm_mb(pid: int | str = "self") -> float:
    """A process's own peak resident set (``VmHWM``), in MB.

    ``getrusage`` is no use for exec'd children: Linux folds the forking
    parent's resident set into the child's peak at exec.  Returns 0 for
    a process that has already exited.
    """
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default), ``0 <= q <= 1``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``
    gives them (the quartile method the bounds are defined with)."""
    values = list(values)
    if len(values) == 1:
        only = values[0]
        return {"median": only, "q1": only, "q3": only, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}
