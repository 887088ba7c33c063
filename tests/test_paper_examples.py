"""The paper's own worked micro-examples, as executable tests.

Each test reconstructs an example the paper walks through by hand and
asserts the system reproduces its outcome: the four Section 3.3 rules
that cluster into one, the Figure 1/5 grid-and-clusters pictures, and
the clustered-rule semantics of Section 2.1.
"""

import numpy as np
import pytest

from repro.binning import bin_table
from repro.core.bitop import BitOpClusterer
from repro.core.clusterer import GridClusterer, clustered_rule_from_rect
from repro.core.grid import RuleGrid
from repro.core.rules import GridRect
from repro.data.schema import Table, categorical, quantitative
from repro.mining.engine import rule_grid, rule_measures


class TestSection33FourRules:
    """Section 3.3: four adjacent binned rules

        Age = a3 AND Salary = s5 => Group = A
        Age = a4 AND Salary = s6 => Group = A
        Age = a4 AND Salary = s5 => Group = A
        Age = a3 AND Salary = s6 => Group = A

    are subsumed by the single clustered rule
    ``a3 <= Age < a5 AND s5 <= Salary < s7 => Group = A``; with the
    paper's bin mappings that reads
    ``40 <= Age < 42 AND 40000 <= Salary < 60000 => Group = A``.
    """

    def build_table(self):
        # Age bins of width 1 starting at 38 (a3 = 40 is bin index 2);
        # salary bins of width 10k starting at 0 (s5 = 40k is index 4).
        # Populate the four example cells with Group A tuples, plus some
        # far-away 'other' mass so thresholds are meaningful.
        ages = [40.2, 41.5, 41.3, 40.7] * 5
        salaries = [42_350, 57_000, 48_750, 52_600] * 5
        groups = ["A"] * 20
        ages += [45.5] * 10
        salaries += [95_000] * 10
        groups += ["other"] * 10
        return Table.from_columns(
            [quantitative("age", 38, 48),
             quantitative("salary", 0, 100_000),
             categorical("group", ("A", "other"))],
            {"age": ages, "salary": salaries, "group": groups},
        )

    # The Section 3.3 example is about the clustering step alone; the
    # low-pass filter would (correctly) treat an isolated 2x2 block on
    # an otherwise empty grid as noise, so it stays off here.

    @staticmethod
    def _clusterer():
        from repro.core.clusterer import ClustererConfig
        return GridClusterer(ClustererConfig(smoothing=False))

    def test_four_cells_become_one_clustered_rule(self):
        table = self.build_table()
        binner = bin_table(table, "age", "salary", "group",
                           n_bins_x=10, n_bins_y=10)
        code = binner.rhs_encoding.code_of("A")
        outcome = self._clusterer().cluster(
            rule_measures(binner.bin_array, code), min_support=0.01,
            min_confidence=0.5,
        )
        assert outcome.n_rules == 1
        rule = outcome.rules[0]
        assert rule.x_interval.low == pytest.approx(40.0)
        assert rule.x_interval.high == pytest.approx(42.0)
        assert rule.y_interval.low == pytest.approx(40_000.0)
        assert rule.y_interval.high == pytest.approx(60_000.0)
        assert rule.rhs_value == "A"

    def test_clustered_rule_subsumes_the_four_originals(self):
        table = self.build_table()
        binner = bin_table(table, "age", "salary", "group",
                           n_bins_x=10, n_bins_y=10)
        code = binner.rhs_encoding.code_of("A")
        outcome = self._clusterer().cluster(
            rule_measures(binner.bin_array, code), 0.01, 0.5
        )
        rule = outcome.rules[0]
        originals = [
            (40, 42_350), (41, 57_000), (41, 48_750), (40, 52_600),
        ]
        for age, salary in originals:
            assert rule.matches([age], [salary])[0]


class TestFigure5TwoClusters:
    """Figure 5 shows a grid whose rule mass is best covered by two
    rectangles.  We reconstruct an equivalent grid (two disjoint dense
    blocks plus their ragged contact) and check the greedy cover plus
    merging lands on exactly two clusters."""

    def test_two_cluster_cover(self):
        grid = RuleGrid.empty(8, 6)
        grid.set_rect(GridRect(0, 3, 0, 2))   # lower-left block
        grid.set_rect(GridRect(4, 7, 3, 5))   # upper-right block
        clusters = BitOpClusterer().cluster(grid)
        assert sorted(clusters) == [
            GridRect(0, 3, 0, 2), GridRect(4, 7, 3, 5)
        ]


class TestSection21Guarantee:
    """Section 2.1: "Clustered association rules will always have a
    support and confidence of at least that of the minimum threshold
    levels" — exact when the grid is used as mined (no smoothing)."""

    @pytest.mark.parametrize("min_support,min_confidence",
                             [(0.001, 0.5), (0.005, 0.8)])
    def test_guarantee_without_smoothing(self, f2_binner, min_support,
                                         min_confidence):
        from repro.core.clusterer import ClustererConfig
        code = f2_binner.rhs_encoding.code_of("A")
        config = ClustererConfig(smoothing=False, merge_clusters=False,
                                 prune_fraction=0.0)
        outcome = GridClusterer(config).cluster(
            rule_measures(f2_binner.bin_array, code), min_support,
            min_confidence,
        )
        for rule in outcome.rules:
            assert rule.support >= min_support - 1e-12
            assert rule.confidence >= min_confidence - 1e-12


class TestFigure1Rendering:
    """Figure 1's presentation: a grid over age x salary with clusters
    drawn as outlines.  We assert the renderer produces the figure's
    structural elements."""

    def test_render_contains_axes_and_clusters(self, f2_binner):
        from repro.viz.ascii import render_grid
        code = f2_binner.rhs_encoding.code_of("A")
        pairs = rule_grid(rule_measures(f2_binner.bin_array, code),
                          0.0005, 0.6).set_pairs()
        grid = RuleGrid.from_pairs(
            pairs, f2_binner.bin_array.n_x, f2_binner.bin_array.n_y
        )
        clusters = BitOpClusterer().cluster(grid)
        art = render_grid(grid, clusters[:3], x_label="Age",
                          y_label="Salary")
        assert "Age" in art and "Salary" in art
        assert "@" in art  # rule cells inside clusters
