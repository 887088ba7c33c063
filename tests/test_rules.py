"""Unit tests for the rule data model."""

import numpy as np
import pytest

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import equi_width_layout
from repro.core.clusterer import clustered_rule_from_rect
from repro.core.grid import RuleGrid
from repro.core.rules import BinnedRule, ClusteredRule, GridRect, Interval


def rule_over(rect):
    """The clustered rule a rectangle on a 4 x 4 grid over
    ``[0, 4] x [0, 4]`` translates to."""
    bin_array = BinArray(equi_width_layout("x", 0.0, 4.0, 4),
                         equi_width_layout("y", 0.0, 4.0, 4),
                         CategoricalEncoding("g", ("A", "B")))
    return clustered_rule_from_rect(rect, bin_array, 0)


class TestInterval:
    def test_contains_half_open(self):
        interval = Interval(1.0, 2.0)
        assert list(interval.contains([0.9, 1.0, 1.9, 2.0])) == [
            False, True, True, False
        ]

    def test_contains_closed_high(self):
        interval = Interval(1.0, 2.0, closed_high=True)
        assert interval.contains([2.0])[0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(2.0, 2.0)

    def test_width(self):
        """A bin span's interval is as wide as its bins."""
        layout = equi_width_layout("x", 0.0, 10.0, 4)
        assert layout.span_interval(1, 2) == (2.5, 7.5)

    def test_overlaps_basic(self):
        assert Interval(0, 2).intersect(Interval(1, 3)) is not None
        assert Interval(0, 1).intersect(Interval(2, 3)) is None

    def test_overlaps_shared_endpoint_half_open(self):
        """Adjacent half-open intervals share no point; a closed upper
        end shares the endpoint."""
        assert not Interval(0, 1).contains([1.0])[0]
        assert Interval(1, 2).contains([1.0])[0]
        assert Interval(0, 1, closed_high=True).contains([1.0])[0]

    def test_intersect(self):
        got = Interval(0, 5).intersect(Interval(3, 8))
        assert got == Interval(3, 5)
        assert Interval(0, 1).intersect(Interval(2, 3)) is None

    def test_intersect_preserves_closure(self):
        closed = Interval(0, 5, closed_high=True)
        got = closed.intersect(Interval(3, 8))
        assert got is not None and got.closed_high

    def test_hull(self):
        """A rectangle's rule spans its first bin's low edge to its last
        bin's high edge."""
        rule = rule_over(GridRect(0, 1, 1, 2))
        assert rule.x_interval == Interval(0, 2)
        assert rule.y_interval == Interval(1, 3)

    def test_hull_closure_follows_upper_interval(self):
        """Only a span that reaches the layout's last, closed bin is
        closed above."""
        rule = rule_over(GridRect(0, 3, 0, 2))
        assert rule.x_interval == Interval(0, 4, closed_high=True)
        assert not rule.y_interval.closed_high

    def test_describe(self):
        assert Interval(40, 42).describe("age") == "40 <= age < 42"
        closed = Interval(40, 42, closed_high=True)
        assert closed.describe("age") == "40 <= age <= 42"


class TestBinnedRule:
    def test_valid_rule(self):
        rule = BinnedRule(2, 3, "A", support=0.1, confidence=0.9)
        assert rule.x_bin == 2

    def test_rejects_negative_bins(self):
        with pytest.raises(ValueError):
            BinnedRule(-1, 0, "A", 0.1, 0.5)

    @pytest.mark.parametrize("support,confidence",
                             [(1.5, 0.5), (0.5, -0.1)])
    def test_rejects_bad_measures(self, support, confidence):
        with pytest.raises(ValueError):
            BinnedRule(0, 0, "A", support, confidence)


class TestGridRect:
    def test_geometry(self):
        rect = GridRect(1, 3, 2, 4)
        assert rect.width == 3
        assert rect.height == 3
        assert rect.area == 9

    def test_single_cell(self):
        rect = GridRect(2, 2, 5, 5)
        assert rect.area == 1

    def test_rejects_inverted_ranges(self):
        with pytest.raises(ValueError):
            GridRect(3, 1, 0, 0)
        with pytest.raises(ValueError):
            GridRect(0, 0, 3, 1)

    def test_contains_cell(self):
        rect = GridRect(1, 2, 1, 2)
        assert rect.contains_cell(1, 1)
        assert rect.contains_cell(2, 2)
        assert not rect.contains_cell(0, 1)
        assert not rect.contains_cell(1, 3)

    def test_cells_enumeration(self):
        grid = RuleGrid.empty(3, 3)
        grid.set_rect(GridRect(0, 1, 0, 1))
        assert grid.set_pairs() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_overlaps(self):
        """Rectangles sharing a corner cell both contain it."""
        a, b = GridRect(0, 2, 0, 2), GridRect(2, 4, 2, 4)
        assert a.contains_cell(2, 2) and b.contains_cell(2, 2)

    def test_intersect(self):
        """The cells two rectangles share form their overlap."""
        def cells(rect):
            grid = RuleGrid.empty(6, 6)
            grid.set_rect(rect)
            return grid.cells

        shared = cells(GridRect(0, 3, 0, 3)) & cells(GridRect(2, 5, 1, 2))
        assert np.array_equal(shared, cells(GridRect(2, 3, 1, 2)))
        assert not (cells(GridRect(0, 0, 0, 0))
                    & cells(GridRect(1, 1, 1, 1))).any()

    def test_union_bounding(self):
        got = GridRect(0, 1, 0, 1).union_bounding(GridRect(3, 4, 2, 5))
        assert got == GridRect(0, 4, 0, 5)


class TestClusteredRule:
    def make_rule(self):
        return ClusteredRule(
            x_attribute="age",
            y_attribute="salary",
            x_interval=Interval(40, 42),
            y_interval=Interval(40_000, 60_000),
            rhs_attribute="group",
            rhs_value="A",
            support=0.1,
            confidence=0.92,
        )

    def test_matches(self):
        rule = self.make_rule()
        got = rule.matches([41, 41, 39], [50_000, 70_000, 50_000])
        assert list(got) == [True, False, False]

    def test_str_renders_like_paper(self):
        text = str(self.make_rule())
        assert "40 <= age < 42" in text
        assert "40000 <= salary < 60000" in text
        assert "group = A" in text

    def test_rejects_bad_measures(self):
        with pytest.raises(ValueError):
            ClusteredRule(
                "age", "salary", Interval(0, 1), Interval(0, 1),
                "group", "A", support=2.0, confidence=0.5,
            )
