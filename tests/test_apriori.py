"""Unit tests for the Apriori miner, including the engine cross-check."""

import pytest

from repro.binning import bin_table
from repro.mining.apriori import AprioriMiner, AssociationRule
from repro.mining.engine import rule_grid, rule_measures

BASKETS = [
    {"bread", "butter", "milk"},
    {"bread", "butter"},
    {"bread", "milk"},
    {"beer"},
    {"bread", "butter", "milk", "beer"},
]


class TestAssociationRule:
    def test_valid(self):
        rule = AssociationRule(
            frozenset(["a"]), frozenset(["b"]), 0.5, 0.8
        )
        assert "a => b" in str(rule)

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            AssociationRule(frozenset(), frozenset(["b"]), 0.5, 0.8)

    def test_rejects_overlapping_sides(self):
        with pytest.raises(ValueError):
            AssociationRule(
                frozenset(["a"]), frozenset(["a", "b"]), 0.5, 0.8
            )


class TestMine:
    def test_confidence_computed_from_supports(self):
        miner = AprioriMiner.from_transactions(BASKETS)
        rules = miner.mine(min_support=0.4, min_confidence=0.7)
        by_sides = {
            (tuple(sorted(rule.lhs)), tuple(sorted(rule.rhs))): rule
            for rule in rules
        }
        bread_to_butter = by_sides[(("bread",), ("butter",))]
        assert bread_to_butter.support == pytest.approx(3 / 5)
        assert bread_to_butter.confidence == pytest.approx(3 / 4)

    def test_min_confidence_filters(self):
        miner = AprioriMiner.from_transactions(BASKETS)
        strict = miner.mine(min_support=0.2, min_confidence=0.99)
        assert all(rule.confidence >= 0.99 for rule in strict)

    def test_rules_satisfy_thresholds(self):
        miner = AprioriMiner.from_transactions(BASKETS)
        rules = miner.mine(min_support=0.4, min_confidence=0.6)
        assert rules
        for rule in rules:
            assert rule.support >= 0.4
            assert rule.confidence >= 0.6

    def test_mine_for_rhs(self):
        miner = AprioriMiner.from_transactions(BASKETS)
        rules = miner.mine_for_rhs("milk", 0.2, 0.5)
        assert rules
        assert all(rule.rhs == frozenset(["milk"]) for rule in rules)

    def test_rejects_bad_confidence(self):
        miner = AprioriMiner.from_transactions(BASKETS)
        with pytest.raises(ValueError):
            miner.mine(0.1, 1.2)


class TestTableTransactions:
    """Record data as transactions: each tuple is the set of its
    ``(attribute, value)`` items (the paper's introduction)."""

    def test_items_are_attribute_value_pairs(self):
        transactions = [{("x", 1), ("g", "A")}, {("x", 2), ("g", "B")}]
        rules = AprioriMiner.from_transactions(transactions).mine_for_rhs(
            ("g", "A"), 0.5, 0.9
        )
        assert [rule.lhs for rule in rules] == [frozenset([("x", 1)])]

    def test_empty(self):
        assert AprioriMiner.from_transactions([]).mine(0.1, 0.5) == []


class TestEngineCrossCheck:
    """The paper says any existing miner could replace the specialised
    engine; on binned two-attribute data both must emit identical rules."""

    @pytest.mark.parametrize("min_support,min_confidence", [
        (0.002, 0.5), (0.01, 0.7), (0.005, 0.9),
    ])
    def test_identical_rule_sets(self, f2_clean_table, min_support,
                                 min_confidence):
        sample = f2_clean_table.head(3000)
        binner = bin_table(sample, "age", "salary", "group",
                           n_bins_x=8, n_bins_y=8)
        code = binner.rhs_encoding.code_of("A")

        engine_cells = set(rule_grid(
            rule_measures(binner.bin_array, code), min_support,
            min_confidence,
        ).set_pairs())

        x_bins, y_bins = binner.assign_points(sample)
        transactions = [
            frozenset([("X", int(i)), ("Y", int(j)), ("C", str(g))])
            for i, j, g in zip(
                x_bins, y_bins, sample.column("group")
            )
        ]
        miner = AprioriMiner.from_transactions(
            transactions, max_itemset_size=3
        )
        apriori_cells = set()
        for rule in miner.mine_for_rhs(
            ("C", "A"), min_support, min_confidence
        ):
            if len(rule.lhs) != 2:
                continue
            lhs = dict(rule.lhs)
            if set(lhs) == {"X", "Y"}:
                apriori_cells.add((lhs["X"], lhs["Y"]))

        assert engine_cells == apriori_cells

    def test_measures_agree(self, f2_clean_table):
        sample = f2_clean_table.head(2000)
        binner = bin_table(sample, "age", "salary", "group",
                           n_bins_x=5, n_bins_y=5)
        code = binner.rhs_encoding.code_of("A")
        measures = rule_measures(binner.bin_array, code)
        engine_cells = set(rule_grid(measures, 0.01, 0.5).set_pairs())

        x_bins, y_bins = binner.assign_points(sample)
        transactions = [
            frozenset([("X", int(i)), ("Y", int(j)), ("C", str(g))])
            for i, j, g in zip(x_bins, y_bins, sample.column("group"))
        ]
        miner = AprioriMiner.from_transactions(
            transactions, max_itemset_size=3
        )
        for rule in miner.mine_for_rhs(("C", "A"), 0.01, 0.5):
            if len(rule.lhs) != 2:
                continue
            lhs = dict(rule.lhs)
            if set(lhs) != {"X", "Y"}:
                continue
            cell = (lhs["X"], lhs["Y"])
            assert cell in engine_cells
            assert rule.support == pytest.approx(measures.support[cell])
            assert rule.confidence == pytest.approx(
                measures.confidence[cell]
            )
