"""A2 — ablation: the specialised engine and BitOp vs naive baselines.

Two contrasts the paper's design rests on:

* **Re-mining cost** — the specialised engine re-mines new thresholds
  from the resident BinArray ("nearly instantaneous"), while a generic
  Apriori miner pays a data-proportional pass every time.
* **Cover quality** — BitOp's greedy exact-rectangle cover vs the
  connected-component bounding-box cover: boxes over concave rule masses
  include unset cells (false-positive area), which BitOp never does.
"""

import time

from conftest import emit, generate
from repro.binning import bin_table
from repro.core.bitop import (
    BitOpClusterer,
    component_bounding_boxes,
    single_cell_cover,
)
from repro.core.grid import RuleGrid
from repro.core.smoothing import smooth_binary
from repro.mining.apriori import AprioriMiner
from repro.mining.engine import rule_grid, rule_measures
from repro.viz.report import format_table

THRESHOLD_SCHEDULE = [
    (0.0005, 0.5), (0.001, 0.6), (0.002, 0.7), (0.004, 0.8),
]


def test_remining_cost_engine_vs_apriori(benchmark):
    table = generate(20_000, 0.0, seed=66)
    binner = bin_table(table, "age", "salary", "group", 30, 30)
    code = binner.rhs_encoding.code_of("A")

    # Engine: re-mine the whole schedule from the BinArray.
    def engine_schedule():
        measures = rule_measures(binner.bin_array, code)
        return [
            rule_grid(measures, s, c).n_set for s, c in THRESHOLD_SCHEDULE
        ]

    start = time.perf_counter()
    engine_counts = engine_schedule()
    engine_seconds = time.perf_counter() - start

    # Apriori: every threshold pair pays a fresh pass over the
    # transactions (support counting restarts).
    x_bins, y_bins = binner.assign_points(table)
    transactions = [
        frozenset([("X", int(i)), ("Y", int(j)), ("C", str(g))])
        for i, j, g in zip(x_bins, y_bins, table.column("group"))
    ]
    start = time.perf_counter()
    apriori_counts = []
    for s, c in THRESHOLD_SCHEDULE:
        miner = AprioriMiner.from_transactions(
            transactions, max_itemset_size=3
        )
        rules = [
            rule for rule in miner.mine_for_rhs(("C", "A"), s, c)
            if len(rule.lhs) == 2
        ]
        apriori_counts.append(len(rules))
    apriori_seconds = time.perf_counter() - start

    rows = [
        ["engine (BinArray re-scan)", round(engine_seconds, 4),
         str(engine_counts)],
        ["Apriori (re-count per pair)", round(apriori_seconds, 4),
         str(apriori_counts)],
    ]
    emit("a2_remine_engine_vs_apriori",
         "A2a: re-mining 4 threshold pairs, engine vs Apriori",
         format_table(["miner", "seconds", "rules per pair"], rows))

    benchmark(engine_schedule)

    # Identical rule sets and a large speed gap.
    assert engine_counts == apriori_counts
    assert engine_seconds * 10 < apriori_seconds


def test_cover_quality_bitop_vs_baselines(benchmark):
    table = generate(12_000, outlier_fraction=0.05, seed=67)
    binner = bin_table(table, "age", "salary", "group", 40, 40)
    code = binner.rhs_encoding.code_of("A")
    pairs = rule_grid(rule_measures(binner.bin_array, code),
                      0.0004, 0.5).set_pairs()
    grid = smooth_binary(RuleGrid.from_pairs(pairs, 40, 40))

    bitop = benchmark(lambda: BitOpClusterer().cluster(grid))
    boxes = component_bounding_boxes(grid)
    cells = single_cell_cover(grid)

    def overcover(rects):
        claimed = 0
        for rect in rects:
            claimed += rect.area
        return claimed - sum(
            int(grid.cells[r.x_lo:r.x_hi + 1, r.y_lo:r.y_hi + 1].sum())
            for r in rects
        )

    rows = [
        ["BitOp greedy", len(bitop), overcover(bitop)],
        ["component boxes", len(boxes), overcover(boxes)],
        ["single cells", len(cells), overcover(cells)],
    ]
    emit("a2_cover_quality",
         "A2b: cover quality, BitOp vs naive covers",
         format_table(["cover", "clusters", "unset cells claimed"],
                      rows))

    # BitOp never claims an unset cell; boxes can; single cells are
    # exact but need one rule per cell.
    assert overcover(bitop) == 0
    assert overcover(cells) == 0
    assert len(bitop) < len(cells)
