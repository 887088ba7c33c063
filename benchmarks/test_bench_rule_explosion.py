"""A4 — the motivating rule explosion (paper Section 1 / related work).

"When mining association rules from this type of non-transactional data
we may find hundreds or thousands of rules corresponding to specific
attribute values.  We therefore introduce a clustered association rule."

This bench quantifies that: on the same Function 2 data, count

* the raw per-cell association rules the specialised engine emits,
* the range rules a Srikant-Agrawal-style quantitative miner emits
  (with and without its interest measure),
* the clustered rules ARCS produces.

The orders-of-magnitude collapse is the paper's raison d'etre.
"""

from conftest import ARCS_SWEEP_CONFIG, emit, generate
from repro.binning import bin_table
from repro.core.arcs import ARCS
from repro.mining.engine import rule_grid, rule_measures
from repro.mining.quantitative import QuantitativeMiner
from repro.viz.report import format_table


def test_rule_explosion(benchmark):
    table = generate(20_000, 0.0, seed=90)

    # Raw cell rules at a permissive-but-sane threshold pair.
    binner = bin_table(table, "age", "salary", "group", 50, 50)
    code = binner.rhs_encoding.code_of("A")
    cell_rules = len(rule_grid(rule_measures(binner.bin_array, code),
                               0.0002, 0.6).set_pairs())

    # Srikant-Agrawal range rules.
    miner = QuantitativeMiner(
        table, ["age", "salary"], "group", n_bins=12
    )
    quant_all = len(
        miner.mine("A", min_support=0.01, min_confidence=0.6,
                   min_interest=None)
    )
    # Group A's base rate is ~0.385, so any rule already above 0.6
    # confidence has interest >= 1.56; pruning bites from 2.0 up.
    quant_interesting = benchmark.pedantic(
        lambda: len(
            miner.mine("A", min_support=0.01, min_confidence=0.6,
                       min_interest=2.0)
        ),
        rounds=1, iterations=1,
    )

    # ARCS clustered rules.
    arcs_rules = len(
        ARCS(ARCS_SWEEP_CONFIG)
        .fit(table, "age", "salary", "group", "A").segmentation
    )

    rows = [
        ["per-cell association rules (Fig 3 engine)", cell_rules],
        ["quantitative range rules (no interest)", quant_all],
        ["quantitative range rules (interest >= 2.0)",
         quant_interesting],
        ["ARCS clustered rules", arcs_rules],
    ]
    emit("a4_rule_explosion",
         "A4: rule counts — the explosion ARCS collapses",
         format_table(["rule form", "count"], rows))

    assert cell_rules > 100
    assert quant_all > 10 * arcs_rules
    assert quant_interesting < quant_all  # interest prunes
    assert arcs_rules <= 6
