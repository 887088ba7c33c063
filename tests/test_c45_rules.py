"""Unit tests for the C4.5RULES-style rule extractor."""

import numpy as np
import pytest

from repro.baselines.c45_rules import (
    C45Rules,
    Condition,
    ExtractedRule,
    _paths_to_leaves,
)
from repro.baselines.decision_tree import C45Tree, TreeConfig
from repro.data.schema import Table, categorical, quantitative


def band_table(n=2000, seed=0):
    """One salary band defines the positive class."""
    rng = np.random.default_rng(seed)
    salary = rng.uniform(0, 100, n)
    labels = np.where((salary >= 40) & (salary <= 60), "A", "other")
    return Table.from_columns(
        [quantitative("salary", 0, 100),
         categorical("group", ("A", "other"))],
        {"salary": salary, "group": labels.tolist()},
    )


@pytest.fixture(scope="module")
def fitted_rules():
    table = band_table()
    tree = C45Tree().fit(table, ["salary"], "group")
    return table, tree, C45Rules.from_tree(tree, table)


class TestCondition:
    def test_le(self, tiny_table):
        condition = Condition("age", "<=", 40)
        assert list(condition.holds(tiny_table)) == [
            True, True, True, False, False, False
        ]

    def test_gt(self, tiny_table):
        condition = Condition("age", ">", 40)
        assert condition.holds(tiny_table).sum() == 3

    def test_eq(self, tiny_table):
        condition = Condition("group", "==", "A")
        assert condition.holds(tiny_table).sum() == 4

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Condition("age", "!=", 40)


class TestExtractedRule:
    def test_accuracy(self):
        rule = ExtractedRule(
            conditions=(Condition("age", "<=", 40),),
            label="A", coverage=10, errors=2, pessimistic=3.0,
        )
        assert rule.accuracy == pytest.approx(0.8)

    def test_empty_antecedent_matches_all(self, tiny_table):
        rule = ExtractedRule((), "A", 6, 2, 3.0)
        assert rule.matches(tiny_table).all()
        assert "TRUE" in str(rule)


class TestPathExtraction:
    def test_paths_cover_all_leaves(self, fitted_rules):
        _, tree, _ = fitted_rules
        paths = _paths_to_leaves(tree.root)
        assert len(paths) == tree.n_leaves

    def test_path_conditions_route_to_leaf_label(self):
        table = band_table(500, seed=3)
        tree = C45Tree().fit(table, ["salary"], "group")
        for conditions, label in _paths_to_leaves(tree.root):
            mask = np.ones(len(table), dtype=bool)
            for condition in conditions:
                mask &= condition.holds(table)
            if mask.any():
                predicted = tree.predict(table.take(np.flatnonzero(mask)))
                assert (predicted == label).all()


class TestFromTree:
    def test_rule_set_smaller_than_leaf_count(self, fitted_rules):
        _, tree, rules = fitted_rules
        assert 0 < len(rules) <= tree.n_leaves

    def test_band_recovered(self, fitted_rules):
        """Some A-rule's conditions should reconstruct the 40..60 band."""
        _, _, rules = fitted_rules
        a_rules = rules.rules_for("A")
        assert a_rules
        best = max(a_rules, key=lambda rule: rule.coverage)
        assert best.accuracy > 0.9

    def test_predict_accuracy(self, fitted_rules):
        table, _, rules = fitted_rules
        predicted = rules.predict(table)
        accuracy = float(np.mean(predicted == table.column("group")))
        assert accuracy > 0.95

    def test_default_label_is_valid_group(self, fitted_rules):
        _, _, rules = fitted_rules
        assert rules.default_label in ("A", "other")

    def test_describe_mentions_default(self, fitted_rules):
        _, _, rules = fitted_rules
        assert "DEFAULT" in rules.describe()

    def test_unfitted_tree_rejected(self, fitted_rules):
        table, _, _ = fitted_rules
        with pytest.raises(ValueError):
            C45Rules.from_tree(C45Tree(), table)

    def test_simplification_drops_conditions(self):
        """Deep noisy paths must come out shorter after generalisation."""
        table = band_table(3000, seed=5)
        tree = C45Tree(TreeConfig(prune=False)).fit(
            table, ["salary"], "group"
        )
        rules = C45Rules.from_tree(tree, table)
        raw_lengths = [
            len(conditions)
            for conditions, _ in _paths_to_leaves(tree.root)
        ]
        kept_lengths = [len(rule.conditions) for rule in rules.rules]
        assert max(kept_lengths, default=0) <= max(raw_lengths)
        assert np.mean(kept_lengths) < np.mean(raw_lengths)

    def test_rule_count_far_below_path_count_on_noisy_data(self, f2_table):
        """The MDL subset-selection step is what keeps the rule count in
        the dozens (paper Figures 13/14)."""
        sample = f2_table.head(5000)
        tree = C45Tree().fit(sample, ["age", "salary"], "group")
        rules = C45Rules.from_tree(tree, sample)
        assert len(rules) < tree.n_leaves / 2
        assert len(rules) < 60
