"""Interactive-style threshold exploration on a resident BinArray.

The paper's systems claim: once the single pass has filled the BinArray,
"we can apply different support or confidence thresholds without
reexamining the data ... changing thresholds is nearly instantaneous."

This example sweeps a grid of threshold pairs over one BinArray, prints
a text heatmap of how many clustered rules each pair yields, and times
the whole sweep — dozens of re-minings in well under a second.  It also
persists the BinArray and re-mines from the file, the cross-session
version of the same workflow (``arcs remine`` exposes it on the CLI).
"""

import tempfile
import time
from pathlib import Path

import repro
from repro.binning import bin_table
from repro.core.clusterer import GridClusterer
from repro.core.optimizer import segmentation_from_outcome
from repro.mining.engine import rule_measures
from repro.persistence import load_bin_array, save_bin_array

SUPPORTS = [0.00005, 0.0001, 0.0002, 0.0005, 0.001, 0.002]
CONFIDENCES = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def main() -> None:
    table = repro.generate_synthetic(
        repro.SyntheticConfig(n_tuples=50_000, function_id=2,
                              perturbation=0.05, seed=42)
    )
    start = time.perf_counter()
    binner = bin_table(table, "age", "salary", "group", 50, 50)
    bin_seconds = time.perf_counter() - start
    print(f"one pass over {len(table):,} tuples: {bin_seconds:.2f}s")

    code = binner.rhs_encoding.code_of("A")
    clusterer = GridClusterer()

    start = time.perf_counter()
    measures = rule_measures(binner.bin_array, code)
    counts = {}
    for support in SUPPORTS:
        for confidence in CONFIDENCES:
            outcome = clusterer.cluster(measures, support, confidence)
            counts[(support, confidence)] = outcome.n_rules
    sweep_seconds = time.perf_counter() - start
    n_pairs = len(SUPPORTS) * len(CONFIDENCES)
    print(f"{n_pairs} re-minings: {sweep_seconds:.2f}s "
          f"({1000 * sweep_seconds / n_pairs:.1f} ms each) — "
          "no data pass, ever\n")

    header = "support \\ conf " + "".join(
        f"{confidence:>6.1f}" for confidence in CONFIDENCES
    )
    print("clustered rules per threshold pair:")
    print(header)
    for support in SUPPORTS:
        row = "".join(
            f"{counts[(support, confidence)]:>6d}"
            for confidence in CONFIDENCES
        )
        print(f"{support:>14.5f}{row}")

    # The cross-session version: persist, reload, re-mine.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "binarray.npz"
        save_bin_array(binner.bin_array, path)
        loaded = load_bin_array(path)
        outcome = clusterer.cluster(rule_measures(loaded, code), 0.0002,
                                    0.7)
        segmentation = segmentation_from_outcome(outcome, loaded, code)
        print(f"\nre-mined from {path.name} "
              f"({path.stat().st_size // 1024} KiB on disk):")
        print(segmentation.describe())


if __name__ == "__main__":
    main()
