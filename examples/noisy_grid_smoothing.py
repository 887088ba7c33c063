"""Watch the clustering pipeline work on a noisy grid (paper Figure 7).

Mines a rule grid from perturbed data with outliers, then shows each
pipeline stage as ASCII art: the raw grid (holes, jagged edges, outlier
specks), the low-pass-smoothed grid, and the BitOp clusters drawn on
top — with the pruning step removing the leftover slivers.

Run:  python examples/noisy_grid_smoothing.py
"""

import repro
from repro.binning import bin_table
from repro.core.bitop import BitOpClusterer
from repro.core.merging import merge_clusters
from repro.core.pruning import prune_clusters
from repro.core.smoothing import smooth_binary
from repro.mining.engine import rule_grid, rule_measures
from repro.viz.ascii import render_grid, render_side_by_side

N_BINS = 30


def main() -> None:
    table = repro.generate_synthetic(
        repro.SyntheticConfig(
            n_tuples=10_000, function_id=2, perturbation=0.05,
            outlier_fraction=0.05, seed=31,
        )
    )
    binner = bin_table(table, "age", "salary", "group",
                       n_bins_x=N_BINS, n_bins_y=N_BINS)
    code = binner.rhs_encoding.code_of("A")

    raw = rule_grid(rule_measures(binner.bin_array, code),
                    min_support=0.0004, min_confidence=0.5)
    smoothed = smooth_binary(raw)

    print("the mined grid, before and after the low-pass filter:\n")
    print(render_side_by_side(raw, smoothed, "(a) raw", "(b) smoothed"))
    print(f"\nset cells {raw.n_set} -> {smoothed.n_set}")

    clusters = BitOpClusterer().cluster(smoothed)
    merged = merge_clusters(clusters, smoothed)
    report = prune_clusters(merged, (N_BINS, N_BINS), fraction=0.01)
    print(f"\nBitOp found {len(clusters)} rectangles; merging "
          f"consolidated them to {len(merged)}; pruning kept "
          f"{len(report.kept)} (dropped {report.n_pruned} slivers)\n")

    print(render_grid(smoothed, report.kept,
                      x_label="age bins", y_label="salary bins"))
    print("\nlegend: '#' rule cell, '@' rule cell inside a cluster,")
    print("        'o' cluster cell the smoothing filled in")


if __name__ == "__main__":
    main()
