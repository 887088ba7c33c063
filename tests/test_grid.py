"""Unit tests for the rule grid bitmap."""

import numpy as np
import pytest

from repro.core.bitop import _clear_rows
from repro.core.grid import RuleGrid
from repro.core.merging import hull_cover_fraction
from repro.core.rules import BinnedRule, GridRect
from repro.perf import reference


class TestConstruction:
    def test_empty(self):
        grid = RuleGrid.empty(4, 3)
        assert grid.n_x == 4 and grid.n_y == 3
        assert grid.n_set == 0

    def test_from_pairs(self):
        grid = RuleGrid.from_pairs([(0, 0), (2, 1)], 3, 2)
        assert grid.n_set == 2
        assert grid.cells[0, 0] and grid.cells[2, 1]

    def test_from_rules(self):
        """Binned rules plot onto the grid through their cells."""
        rules = [BinnedRule(1, 1, "A", 0.1, 0.9)]
        grid = RuleGrid.from_pairs(
            [(rule.x_bin, rule.y_bin) for rule in rules], 3, 3
        )
        assert grid.set_pairs() == [(1, 1)]

    def test_from_rules_out_of_range(self):
        rules = [BinnedRule(5, 0, "A", 0.1, 0.9)]
        with pytest.raises(ValueError):
            RuleGrid.from_pairs(
                [(rule.x_bin, rule.y_bin) for rule in rules], 3, 3
            )

    def test_from_pairs_empty(self):
        assert RuleGrid.from_pairs([], 3, 2).n_set == 0

    def test_from_pairs_accepts_any_iterable(self):
        grid = RuleGrid.from_pairs(iter([(1, 1), (1, 1)]), 2, 2)
        assert grid.set_pairs() == [(1, 1)]

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_from_pairs_out_of_range(self, pair):
        """Negative indices do not wrap round and too-large ones do not
        leak a bare IndexError: both are the from_rules error."""
        message = rf"rule cell \({pair[0]}, {pair[1]}\) outside 3x3 grid"
        with pytest.raises(ValueError, match=message):
            RuleGrid.from_pairs([(1, 1), pair], 3, 3)

    def test_from_pairs_names_first_bad_pair(self):
        with pytest.raises(ValueError, match=r"\(5, 0\)"):
            RuleGrid.from_pairs([(0, 0), (5, 0), (-1, 0)], 3, 3)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            RuleGrid(np.zeros(5, dtype=bool))


class TestBitmaps:
    def test_row_bitmaps(self):
        grid = RuleGrid.from_pairs([(0, 0), (0, 2), (1, 1)], 2, 3)
        rows = grid.row_bitmaps()
        assert rows == [0b101, 0b010]

    def test_round_trip(self):
        grid = RuleGrid.from_pairs([(0, 0), (1, 2), (2, 1)], 3, 3)
        assert grid.row_bitmaps() == reference.row_bitmaps_scalar(
            grid.cells
        )

    def test_empty_rows_are_zero(self):
        grid = RuleGrid.empty(3, 4)
        assert grid.row_bitmaps() == [0, 0, 0]


class TestRectOperations:
    def test_covers(self):
        grid = RuleGrid.empty(4, 4)
        grid.set_rect(GridRect(1, 2, 1, 2))
        assert reference.covers(grid, GridRect(1, 2, 1, 2))
        assert reference.covers(grid, GridRect(1, 1, 1, 1))
        assert not reference.covers(grid, GridRect(0, 2, 1, 2))

    def test_clear_rect(self):
        """BitOp's greedy cover clears a taken rectangle from the row
        bitmaps."""
        grid = RuleGrid.empty(4, 4)
        grid.set_rect(GridRect(0, 3, 0, 3))
        rows = grid.row_bitmaps()
        _clear_rows(rows, GridRect(1, 2, 1, 2))
        assert rows == [0b1111, 0b1001, 0b1001, 0b1111]

    def test_copy_is_independent(self):
        grid = RuleGrid.empty(2, 2)
        clone = grid.copy()
        clone.set_rect(GridRect(0, 0, 0, 0))
        assert grid.n_set == 0
        assert clone.n_set == 1

    def test_fraction_covered_by(self):
        """The share of a merge hull's cells that are set."""
        grid = RuleGrid.empty(4, 1)
        grid.set_rect(GridRect(0, 1, 0, 0))
        assert hull_cover_fraction(grid, GridRect(0, 3, 0, 0)) == 0.5
        assert hull_cover_fraction(grid, GridRect(0, 1, 0, 0)) == 1.0

    def test_fraction_covered_by_empty_grid(self):
        assert hull_cover_fraction(RuleGrid.empty(2, 2),
                                   GridRect(0, 1, 0, 1)) == 0.0
