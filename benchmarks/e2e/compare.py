#!/usr/bin/env python
"""Compare two sets of e2e reports, one row per (workload, metric).

Usage::

    python benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [...]

Each argument is a ``run.py --out`` report; every run in it is one
sample.  A row shows both sides' median with its quartiles, the change
of B against A, the metric's bound from ``BENCHMARK.json`` and a
verdict:

* ``within bound`` - B's median is worse than A's by at most the bound;
* ``worse`` / ``better`` - worse or better by more than the bound;
* ``unresolved`` - either side's quartile spread exceeds the bound, so
  the runs cannot tell, unless every B run beats every A run.

``setup_s`` is judged by its median alone: one server launch varies by
+-20%, so its spread is not held to the bound.

``region_error`` and ``fail_ratio`` have an absolute bound of 0: any
increase is ``worse``.  ``region_error`` is fixed by the seed, so it is
compared run against run for the seeds both sides ran (``unpaired`` when
they share none).  Exit status 1 when a row is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import load_spec, summarize

#: Quality metrics compared exactly, both better when lower.
EXACT = ("region_error", "fail_ratio")


def samples(paths: list[Path]) -> dict[tuple[str, str], list[tuple]]:
    """(workload, metric) -> ``(seed, value)`` per run across reports."""
    out: dict[tuple[str, str], list[tuple]] = {}
    for path in paths:
        report = json.loads(path.read_text())
        for run in report["runs"]:
            values = {name: metric["value"]
                      for name, metric in run["metrics"].items()}
            values["fail_ratio"] = run["fail_ratio"]
            if "region_error" in run["detail"]:
                values["region_error"] = run["detail"]["region_error"]
            for name, value in values.items():
                out.setdefault((run["workload"], name), []).append(
                    (run["seed"], value)
                )
    return out


def exact_verdict(a: list[float], b: list[float]) -> tuple[str, float]:
    """Lower is better and any increase of B over A is worse."""
    change = statistics.median(b) - statistics.median(a)
    if any(y > x for x, y in zip(a, b)):
        return "worse", change
    if any(y < x for x, y in zip(a, b)):
        return "better", change
    return "within bound", change


def verdict(a: list[float], b: list[float], better: str, bound: float,
            spread_bound: bool = True) -> tuple[str, float]:
    """``(verdict, change)`` of B's median against A's; with
    ``spread_bound`` false a wide spread does not make it unresolved."""
    left, right = summarize(a), summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    change = (right["median"] - left["median"]) / left["median"]
    spread = max((side["q3"] - side["q1"]) / side["median"]
                 for side in (left, right))
    if spread_bound and spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", change
        return "unresolved", change
    if sign * change > bound:
        return "worse", change
    if sign * change < -bound:
        return "better", change
    return "within bound", change


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        argparse.ArgumentParser(usage=__doc__).error(
            "separate the two sides with --"
        )
    split = argv.index("--")
    side_a = [Path(arg) for arg in argv[:split]]
    side_b = [Path(arg) for arg in argv[split + 1:]]
    if not side_a or not side_b:
        argparse.ArgumentParser(usage=__doc__).error(
            "each side needs at least one report"
        )
    spec = load_spec()
    rules = {entry["name"]: (entry["better"], entry["bound"])
             for entry in spec["end_to_end"]}
    a, b = samples(side_a), samples(side_b)
    header = (f"{'workload':<15} {'metric':<17} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'change':>9} {'bound':>6}  "
              f"verdict")
    lines = [header, "-" * len(header)]
    failing = 0
    for key in sorted(set(a) & set(b)):
        workload, name = key
        left = [value for _, value in a[key]]
        right = [value for _, value in b[key]]
        if name == "region_error":
            seeds = {seed: value for seed, value in a[key]}
            pairs = [(seeds[seed], value) for seed, value in b[key]
                     if seed in seeds]
            outcome, change = (exact_verdict(*zip(*pairs)) if pairs
                               else ("unpaired", 0.0))
        elif name in EXACT:
            outcome, change = exact_verdict([statistics.median(left)],
                                            [statistics.median(right)])
        elif name in rules:
            outcome, change = verdict(left, right, *rules[name],
                                      spread_bound=name != "setup_s")
        else:
            continue
        failing += outcome in ("worse", "unresolved")
        cells = []
        for values in (left, right):
            s = summarize(values)
            cells.append(f"{s['median']:.5g} [{s['q1']:.5g}, "
                         f"{s['q3']:.5g}]")
        exact = name in EXACT
        shown = f"{change:+.5g}" if exact else f"{change:+.1%}"
        limit = "0" if exact else f"{rules[name][1]:.0%}"
        lines.append(f"{workload:<15} {name:<17} {cells[0]:>30} "
                     f"{cells[1]:>30} {shown:>9} {limit:>6}  {outcome}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
