"""Unit tests for cluster hull-merging."""

import pytest

from repro.core.grid import RuleGrid
from repro.core.merging import hull_cover_fraction, merge_clusters
from repro.core.rules import GridRect


def grid_with(*rects, shape=(10, 10)):
    grid = RuleGrid.empty(*shape)
    for rect in rects:
        grid.set_rect(rect)
    return grid


class TestHullCoverFraction:
    def test_fully_set(self):
        grid = grid_with(GridRect(0, 1, 0, 1))
        assert hull_cover_fraction(grid, GridRect(0, 1, 0, 1)) == 1.0

    def test_half_set(self):
        grid = grid_with(GridRect(0, 0, 0, 1))
        assert hull_cover_fraction(grid, GridRect(0, 1, 0, 1)) == 0.5

    def test_empty(self):
        grid = RuleGrid.empty(4, 4)
        assert hull_cover_fraction(grid, GridRect(0, 1, 0, 1)) == 0.0


class TestMergeClusters:
    def test_flush_fragments_merge_losslessly(self):
        """Two fragments of one rectangle merge back into it."""
        left = GridRect(0, 4, 0, 2)
        right = GridRect(0, 4, 3, 5)
        grid = grid_with(left, right)
        merged = merge_clusters([left, right], grid, cover_fraction=1.0)
        assert merged == [GridRect(0, 4, 0, 5)]

    def test_sliver_absorbed_into_main_rectangle(self):
        """The jagged-boundary case: a big rectangle plus a thin adjacent
        sliver consolidates when the hull is dense enough."""
        main = GridRect(0, 9, 0, 6)
        sliver = GridRect(0, 7, 7, 7)
        grid = grid_with(main, sliver)
        merged = merge_clusters([main, sliver], grid, cover_fraction=0.8)
        assert len(merged) == 1
        assert merged[0] == GridRect(0, 9, 0, 7)

    def test_distant_clusters_stay_apart(self):
        a = GridRect(0, 1, 0, 1)
        b = GridRect(8, 9, 8, 9)
        grid = grid_with(a, b)
        merged = merge_clusters([a, b], grid, cover_fraction=0.8)
        assert sorted(merged) == [a, b]

    def test_cover_fraction_gate(self):
        """The same pair merges at a loose threshold and not at a strict
        one."""
        a = GridRect(0, 4, 0, 1)
        b = GridRect(0, 4, 3, 4)
        grid = grid_with(a, b)  # hull is 4/5 covered
        assert len(merge_clusters([a, b], grid, 0.75)) == 1
        assert len(merge_clusters([a, b], grid, 0.9)) == 2

    def test_hull_trimmed_to_content(self):
        """A merge never stretches into fully empty border bands."""
        a = GridRect(0, 4, 0, 1)
        b = GridRect(0, 4, 2, 3)
        grid = grid_with(a, b)
        merged = merge_clusters([a, b], grid, cover_fraction=0.5)
        assert merged == [GridRect(0, 4, 0, 3)]

    def test_empty_rectangle_dropped(self):
        ghost = GridRect(5, 6, 5, 6)  # nothing set underneath
        grid = RuleGrid.empty(10, 10)
        assert merge_clusters([ghost], grid) == []

    def test_partly_set_inputs_are_trimmed(self):
        """Only inputs that are not fully set go through trimming; a
        rectangle reaching past the grid is trimmed back into it."""
        grid = grid_with(GridRect(0, 2, 0, 2), shape=(3, 3))
        loose = GridRect(1, 7, 1, 7)
        assert merge_clusters([loose], grid) == [GridRect(1, 2, 1, 2)]
        assert merge_clusters([GridRect(3, 4, 0, 1)], grid) == []

    def test_single_cluster_passthrough(self):
        a = GridRect(1, 2, 1, 2)
        grid = grid_with(a)
        assert merge_clusters([a], grid) == [a]

    def test_chain_of_three_merges(self):
        parts = [
            GridRect(0, 4, 0, 1),
            GridRect(0, 4, 2, 3),
            GridRect(0, 4, 4, 5),
        ]
        grid = grid_with(*parts)
        merged = merge_clusters(parts, grid, cover_fraction=1.0)
        assert merged == [GridRect(0, 4, 0, 5)]

    def test_rejects_bad_cover_fraction(self):
        with pytest.raises(ValueError):
            merge_clusters([], RuleGrid.empty(2, 2), cover_fraction=0.0)
