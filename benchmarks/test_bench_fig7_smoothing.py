"""E9 — Figure 7: a typical grid before and after smoothing.

The paper shows a real mined grid whose holes and jagged edges disappear
under the low-pass filter.  This bench mines a grid from noisy Function 2
data, renders the before/after pair as ASCII art, and quantifies the
improvement: the smoothed grid needs fewer BitOp clusters to cover.
"""

from conftest import emit, generate
from repro.binning import bin_table
from repro.core.bitop import BitOpClusterer
from repro.core.grid import RuleGrid
from repro.core.smoothing import smooth_binary
from repro.mining.engine import rule_grid, rule_measures
from repro.viz.ascii import render_side_by_side


def _mine_grid():
    table = generate(8_000, outlier_fraction=0.05, seed=31)
    binner = bin_table(table, "age", "salary", "group", 30, 30)
    code = binner.rhs_encoding.code_of("A")
    pairs = rule_grid(rule_measures(binner.bin_array, code),
                      min_support=0.0004, min_confidence=0.5).set_pairs()
    return RuleGrid.from_pairs(pairs, 30, 30)


def test_fig7_smoothing(benchmark):
    raw = _mine_grid()
    smoothed = benchmark(lambda: smooth_binary(raw))

    art = render_side_by_side(raw, smoothed,
                              "(a) before smoothing",
                              "(b) after smoothing")
    raw_clusters = BitOpClusterer().cluster(raw)
    smooth_clusters = BitOpClusterer().cluster(smoothed)
    summary = (
        f"set cells: {raw.n_set} -> {smoothed.n_set}; "
        f"BitOp clusters to cover: {len(raw_clusters)} -> "
        f"{len(smooth_clusters)}"
    )
    emit("e9_fig7_smoothing",
         "E9 / Figure 7: grid before/after smoothing",
         art + "\n\n" + summary)

    # Smoothing must consolidate: fewer rectangles needed afterwards.
    assert len(smooth_clusters) < len(raw_clusters)
