"""Unit tests for the single-pass 2-D rule engine (paper Figure 3)."""

import pytest

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import equi_width_layout
from repro.mining.engine import EMPTY_CELL, rule_grid, rule_measures


def make_array():
    array = BinArray(
        x_layout=equi_width_layout("x", 0, 4, 4),
        y_layout=equi_width_layout("y", 0, 4, 4),
        rhs_encoding=CategoricalEncoding("g", ("A", "other")),
    )
    # Cell (0,0): 4 A of 5.  Cell (1,1): 1 A of 4.  Cell (2,2): 2 other.
    array.add_chunk(
        [0] * 5 + [1] * 4 + [2] * 2,
        [0] * 5 + [1] * 4 + [2] * 2,
        [0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1],
    )
    return array  # N = 11


def rule_pairs(array, rhs_code, min_support, min_confidence):
    """The engine's qualifying cells as ``(i, j)`` pairs."""
    return rule_grid(rule_measures(array, rhs_code), min_support,
                     min_confidence).set_pairs()


class TestSupportLevel:
    """A support threshold of exactly ``c / N``, as the optimizer's
    lattice visits it, admits the cells of count ``c``.  In float64
    ``400000 * (51 / 400000)`` is ``51.00000000000001``, so a count test
    against ``N * min_support`` dropped such a cell."""

    def test_level_admits_its_own_cells(self):
        n_total, count = 400_000, 51
        array = BinArray(
            x_layout=equi_width_layout("x", 0, 2, 2),
            y_layout=equi_width_layout("y", 0, 2, 2),
            rhs_encoding=CategoricalEncoding("g", ("A", "other")),
        )
        array.counts[0, 0, 0] = count
        array.counts[1, 1, 1] = n_total - count
        array.totals[0, 0] = count
        array.totals[1, 1] = n_total - count
        array.n_total = n_total
        assert n_total * (count / n_total) > count
        measures = rule_measures(array, 0)
        grid = rule_grid(measures, count / n_total, 0.0)
        assert grid.cells.tolist() == [[True, False], [False, False]]
        assert rule_pairs(array, 0, count / n_total, 0.0) == [(0, 0)]
        assert rule_grid(measures, (count + 1) / n_total, 0.0).n_set == 0


class TestRulePairs:
    def test_support_and_confidence_thresholds(self):
        array = make_array()
        # support >= 2/11 keeps (0,0) only among A-cells; conf 0.5 passes.
        got = rule_pairs(array, 0, min_support=2 / 11, min_confidence=0.5)
        assert got == [(0, 0)]

    def test_low_thresholds_keep_all_occupied_target_cells(self):
        array = make_array()
        got = rule_pairs(array, 0, min_support=0.0, min_confidence=0.0)
        assert got == [(0, 0), (1, 1)]

    def test_confidence_filters_weak_cells(self):
        array = make_array()
        got = rule_pairs(array, 0, min_support=0.0, min_confidence=0.5)
        assert got == [(0, 0)]  # (1,1) has confidence 0.25

    def test_empty_cells_never_qualify(self):
        array = make_array()
        got = rule_pairs(array, 0, 0.0, 0.0)
        assert (3, 3) not in got

    def test_other_group_cells(self):
        array = make_array()
        got = rule_pairs(array, 1, min_support=0.0, min_confidence=0.9)
        assert (2, 2) in got
        assert (0, 0) not in got

    def test_support_tie_is_inclusive(self):
        """The paper's >= min_support_count comparison."""
        array = make_array()
        got = rule_pairs(array, 0, min_support=4 / 11, min_confidence=0.0)
        assert got == [(0, 0)]

    @pytest.mark.parametrize("support,confidence",
                             [(-0.1, 0.5), (0.5, 1.5)])
    def test_rejects_bad_thresholds(self, support, confidence):
        with pytest.raises(ValueError):
            rule_pairs(make_array(), 0, support, confidence)


class TestMineBinnedRules:
    def test_rules_carry_measures(self):
        array = make_array()
        measures = rule_measures(array, 0)
        assert rule_grid(measures, 0.0, 0.5).set_pairs() == [(0, 0)]
        assert measures.support[0, 0] == pytest.approx(4 / 11)
        assert measures.confidence[0, 0] == pytest.approx(4 / 5)
        assert measures.support[1, 1] == pytest.approx(1 / 11)
        assert measures.confidence[1, 1] == pytest.approx(1 / 4)
        # Empty cells, and cells without the RHS value, rank below any
        # threshold.
        assert measures.support[2, 2] == measures.support[3, 3] == (
            EMPTY_CELL
        )
        assert measures.confidence[2, 2] == measures.confidence[3, 3] == (
            EMPTY_CELL
        )
        assert array.rhs_encoding.values[measures.rhs_code] == "A"

    def test_remining_with_new_thresholds_needs_no_data(self):
        """The BinArray is the only input — re-mining is a pure re-scan."""
        array = make_array()
        measures = rule_measures(array, 0)
        loose = rule_grid(measures, 0.0, 0.0)
        tight = rule_grid(measures, 0.3, 0.5)
        assert loose.n_set > tight.n_set
        assert array.n_total == 11  # untouched
