"""Unit tests for the BitOp algorithm (paper Section 3.3.1)."""

import numpy as np
import pytest

from repro.core.bitop import (
    BitOpClusterer,
    component_bounding_boxes,
    single_cell_cover,
)
from repro.core.grid import RuleGrid
from repro.core.rules import GridRect
from repro.perf.reference import (
    brute_force_maximal_rectangles,
    covers,
    enumerate_rectangles,
    largest_rectangle,
    runs_of_set_bits,
)


def grid_of(rows, n_y):
    """The grid whose row bitmaps are ``rows``."""
    return RuleGrid(np.array([[row >> j & 1 for j in range(n_y)]
                              for row in rows], dtype=bool))


class TestRunsOfSetBits:
    def test_empty(self):
        assert runs_of_set_bits(0) == []

    def test_single_bit(self):
        assert runs_of_set_bits(0b1) == [(0, 1)]
        assert runs_of_set_bits(0b1000) == [(3, 1)]

    def test_single_run(self):
        assert runs_of_set_bits(0b1110) == [(1, 3)]

    def test_multiple_runs(self):
        assert runs_of_set_bits(0b1011011) == [(0, 2), (3, 2), (6, 1)]

    def test_all_ones(self):
        assert runs_of_set_bits((1 << 10) - 1) == [(0, 10)]

    def test_alternating(self):
        assert runs_of_set_bits(0b10101) == [(0, 1), (2, 1), (4, 1)]


class TestPaperExample:
    """The worked bitmap of paper Section 3.3.1:

        row3  1 0 0
        row2  1 1 0
        row1  0 1 1

    (rows listed top-down in the paper; our row index 0 is row 1).
    The paper's pass over it finds a 2x1 cluster in row 1 and clusters
    extending two rows in the shared column.
    """

    ROWS = [0b110, 0b011, 0b001]  # bit j = column j: row1=cols{1,2}...

    def test_enumeration_contains_paper_clusters(self):
        rects = enumerate_rectangles(self.ROWS)
        # Row 0 alone: the run cols 1..2 (the paper's "2-by-1" cluster).
        assert GridRect(0, 0, 1, 2) in rects
        # Column 1 extends rows 0..1 (the paper's dashed "1-by-2").
        assert GridRect(0, 1, 1, 1) in rects
        # Column 0 extends rows 1..2.
        assert GridRect(1, 2, 0, 0) in rects

    def test_no_rectangle_contains_an_unset_cell(self):
        grid = grid_of(self.ROWS, 3)
        for rect in enumerate_rectangles(self.ROWS):
            assert covers(grid, rect)


class TestEnumerateRectangles:
    def test_empty_bitmap(self):
        assert enumerate_rectangles([0, 0]) == []

    def test_full_bitmap_yields_whole_grid(self):
        rows = [0b111, 0b111]
        rects = enumerate_rectangles(rows)
        assert GridRect(0, 1, 0, 2) in rects

    def test_single_cell(self):
        assert enumerate_rectangles([0b1]) == [GridRect(0, 0, 0, 0)]

    def test_l_shape(self):
        # ##.
        # #..
        rows = [0b011, 0b001]
        rects = set(enumerate_rectangles(rows))
        assert GridRect(0, 0, 0, 1) in rects  # top bar
        assert GridRect(0, 1, 0, 0) in rects  # left column
        grid = grid_of(rows, 2)
        assert all(covers(grid, rect) for rect in rects)

    def test_all_rectangles_valid(self):
        rows = [0b1101, 0b1111, 0b0111, 0b0110]
        grid = grid_of(rows, 4)
        for rect in enumerate_rectangles(rows):
            assert covers(grid, rect)

    def test_maximal_height_rectangles_found(self):
        """Every brute-force maximal rectangle appears in the
        enumeration (the enumeration may contain more, non-maximal-width
        candidates from later start rows)."""
        rows = [0b0110, 0b1111, 0b1111, 0b0011]
        grid = grid_of(rows, 4)
        enumerated = set(enumerate_rectangles(rows))
        for rect in brute_force_maximal_rectangles(grid):
            assert rect in enumerated


class TestLargestRectangle:
    def test_none_on_empty(self):
        assert largest_rectangle([0, 0]) is None

    def test_picks_largest_area(self):
        # A 2-row x 3-col block (area 6) beats a 1-row x 4-col bar.
        rows = [0b0001111, 0b1110000, 0b1110000]
        got = largest_rectangle(rows)
        assert got is not None
        assert got.area == 6
        assert got == GridRect(1, 2, 4, 6)

    def test_deterministic_tiebreak(self):
        rows = [0b0101, 0b0101]
        first = largest_rectangle(rows)
        second = largest_rectangle(rows)
        assert first == second


class TestBitOpClusterer:
    def test_exact_cover_of_disjoint_blocks(self):
        grid = RuleGrid.empty(8, 8)
        blocks = [GridRect(0, 2, 0, 2), GridRect(5, 7, 5, 7)]
        for block in blocks:
            grid.set_rect(block)
        clusters = BitOpClusterer().cluster(grid)
        assert sorted(clusters) == sorted(blocks)

    def test_cover_is_complete(self):
        grid = RuleGrid.empty(6, 6)
        grid.set_rect(GridRect(0, 3, 0, 1))
        grid.set_rect(GridRect(2, 5, 3, 5))
        grid.cells[0, 5] = True
        covered = RuleGrid.empty(6, 6)
        for rect in BitOpClusterer().cluster(grid):
            covered.set_rect(rect)
        assert np.array_equal(covered.cells, grid.cells)

    def test_clusters_only_cover_set_cells(self):
        grid = RuleGrid.empty(5, 5)
        grid.set_rect(GridRect(0, 1, 0, 4))
        grid.set_rect(GridRect(3, 4, 0, 4))
        for rect in BitOpClusterer().cluster(grid):
            assert covers(grid, rect)

    def test_input_grid_unmodified(self):
        grid = RuleGrid.empty(4, 4)
        grid.set_rect(GridRect(0, 3, 0, 3))
        BitOpClusterer().cluster(grid)
        assert grid.n_set == 16

    def test_min_cells_terminates_early(self):
        grid = RuleGrid.empty(10, 10)
        grid.set_rect(GridRect(0, 4, 0, 4))  # 25 cells
        grid.cells[9, 9] = True  # isolated outlier
        clusters = BitOpClusterer(min_cells=2).cluster(grid)
        assert GridRect(0, 4, 0, 4) in clusters
        assert GridRect(9, 9, 9, 9) not in clusters

    def test_empty_grid(self):
        assert BitOpClusterer().cluster(RuleGrid.empty(3, 3)) == []

    def test_rejects_bad_min_cells(self):
        with pytest.raises(ValueError, match="min_cells must be at least 1"):
            BitOpClusterer(min_cells=0)

    def test_greedy_takes_big_rectangle_first(self):
        grid = RuleGrid.empty(8, 8)
        grid.set_rect(GridRect(0, 5, 0, 5))  # 36 cells
        grid.cells[7, 7] = True
        clusters = BitOpClusterer().cluster(grid)
        assert clusters[0] == GridRect(0, 5, 0, 5)


class TestCoverBaselines:
    def test_single_cell_cover(self):
        grid = RuleGrid.from_pairs([(0, 0), (2, 3)], 4, 4)
        cover = single_cell_cover(grid)
        assert sorted(cover) == [
            GridRect(0, 0, 0, 0), GridRect(2, 2, 3, 3)
        ]

    def test_component_bounding_boxes_merges_connected(self):
        grid = RuleGrid.empty(6, 6)
        grid.set_rect(GridRect(0, 1, 0, 1))
        grid.cells[2, 1] = True  # touches the block (4-connected)
        boxes = component_bounding_boxes(grid)
        assert boxes == [GridRect(0, 2, 0, 1)]

    def test_component_bounding_boxes_separates_disjoint(self):
        grid = RuleGrid.empty(6, 6)
        grid.set_rect(GridRect(0, 0, 0, 0))
        grid.set_rect(GridRect(4, 5, 4, 5))
        boxes = component_bounding_boxes(grid)
        assert len(boxes) == 2

    def test_component_boxes_can_overcover(self):
        """A concave component's box contains unset cells — the false
        positives BitOp avoids (the ablation's point)."""
        grid = RuleGrid.empty(3, 3)
        grid.cells[0, 0] = grid.cells[0, 1] = True
        grid.cells[1, 1] = True
        grid.cells[2, 1] = grid.cells[2, 2] = True
        boxes = component_bounding_boxes(grid)
        assert len(boxes) == 1
        assert not covers(grid, boxes[0])


class TestBruteForceOracle:
    def test_maximal_rectangles_small_grid(self):
        grid = RuleGrid.empty(3, 3)
        grid.set_rect(GridRect(0, 1, 0, 1))
        maximal = brute_force_maximal_rectangles(grid)
        assert maximal == [GridRect(0, 1, 0, 1)]

    def test_cross_shape(self):
        grid = RuleGrid.empty(3, 3)
        grid.set_rect(GridRect(1, 1, 0, 2))
        grid.set_rect(GridRect(0, 2, 1, 1))
        maximal = set(brute_force_maximal_rectangles(grid))
        assert maximal == {GridRect(1, 1, 0, 2), GridRect(0, 2, 1, 1)}
