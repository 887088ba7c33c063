"""Property-based tests on pipeline invariants: engine monotonicity,
merging soundness, cover/segmentation consistency."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import equi_width_layout
from repro.core.bitop import BitOpClusterer
from repro.core.grid import RuleGrid
from repro.core.merging import hull_cover_fraction, merge_clusters
from repro.mining.engine import rule_grid, rule_measures


def rule_pairs(array, rhs_code, min_support, min_confidence):
    """The engine's qualifying cells as ``(i, j)`` pairs."""
    return rule_grid(rule_measures(array, rhs_code), min_support,
                     min_confidence).set_pairs()


@st.composite
def populated_bin_arrays(draw, max_bins=6, max_tuples=120):
    n_x = draw(st.integers(2, max_bins))
    n_y = draw(st.integers(2, max_bins))
    n_tuples = draw(st.integers(1, max_tuples))
    array = BinArray(
        x_layout=equi_width_layout("x", 0, n_x, n_x),
        y_layout=equi_width_layout("y", 0, n_y, n_y),
        rhs_encoding=CategoricalEncoding("g", ("A", "other")),
    )
    x_bins = draw(st.lists(st.integers(0, n_x - 1), min_size=n_tuples,
                           max_size=n_tuples))
    y_bins = draw(st.lists(st.integers(0, n_y - 1), min_size=n_tuples,
                           max_size=n_tuples))
    codes = draw(st.lists(st.integers(0, 1), min_size=n_tuples,
                          max_size=n_tuples))
    array.add_chunk(x_bins, y_bins, codes)
    return array


@st.composite
def small_grids(draw, max_side=8):
    n_x = draw(st.integers(1, max_side))
    n_y = draw(st.integers(1, max_side))
    bits = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n_y, max_size=n_y),
            min_size=n_x, max_size=n_x,
        )
    )
    return RuleGrid(np.array(bits, dtype=bool))


class TestEngineMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(populated_bin_arrays(),
           st.floats(0.0, 0.3), st.floats(0.0, 0.3),
           st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_tighter_thresholds_shrink_rule_set(self, array, s1, s2,
                                                c1, c2):
        """Raising either threshold can only remove rules."""
        loose = set(rule_pairs(array, 0, min(s1, s2), min(c1, c2)))
        tight = set(rule_pairs(array, 0, max(s1, s2), max(c1, c2)))
        assert tight <= loose

    @settings(max_examples=40, deadline=None)
    @given(populated_bin_arrays())
    def test_zero_thresholds_emit_every_occupied_cell(self, array):
        pairs = set(rule_pairs(array, 0, 0.0, 0.0))
        occupied = {
            (int(i), int(j))
            for i, j in np.argwhere(array.count_grid(0) > 0)
        }
        assert pairs == occupied

    @settings(max_examples=40, deadline=None)
    @given(populated_bin_arrays())
    def test_emitted_cells_meet_their_thresholds(self, array):
        min_support, min_confidence = 0.05, 0.5
        counts = array.count_grid(0)
        for i, j in rule_pairs(array, 0, min_support, min_confidence):
            count = int(counts[i, j])
            assert count / array.n_total >= min_support - 1e-12
            assert count / int(array.totals[i, j]) >= (
                min_confidence - 1e-12
            )


class TestMergingProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_grids(), st.floats(0.5, 1.0))
    def test_merged_rectangles_meet_cover_threshold(self, grid,
                                                    cover_fraction):
        clusters = BitOpClusterer().cluster(grid)
        merged = merge_clusters(clusters, grid, cover_fraction)
        for rect in merged:
            assert hull_cover_fraction(grid, rect) >= min(
                cover_fraction, 1.0
            ) - 1e-9 or rect in clusters

    @settings(max_examples=60, deadline=None)
    @given(small_grids())
    def test_lossless_merge_preserves_covered_cells(self, grid):
        """At cover_fraction=1.0 merging never claims an unset cell and
        never loses a set cell."""
        clusters = BitOpClusterer().cluster(grid)
        merged = merge_clusters(clusters, grid, cover_fraction=1.0)
        covered = np.zeros_like(grid.cells)
        for rect in merged:
            block = grid.cells[
                rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1
            ]
            assert block.all()  # nothing unset claimed
            covered[rect.x_lo:rect.x_hi + 1,
                    rect.y_lo:rect.y_hi + 1] = True
        assert np.array_equal(covered, grid.cells)

    @settings(max_examples=60, deadline=None)
    @given(small_grids(), st.floats(0.5, 1.0))
    def test_merging_never_increases_cluster_count(self, grid,
                                                   cover_fraction):
        clusters = BitOpClusterer().cluster(grid)
        merged = merge_clusters(clusters, grid, cover_fraction)
        assert len(merged) <= len(clusters)

    @settings(max_examples=60, deadline=None)
    @given(small_grids(), st.floats(0.5, 1.0))
    def test_merging_preserves_total_coverage(self, grid,
                                              cover_fraction):
        """Every set cell a cluster covered stays covered after
        merging (hulls only grow, trimming only sheds empty bands)."""
        clusters = BitOpClusterer().cluster(grid)
        merged = merge_clusters(clusters, grid, cover_fraction)
        def covered(rects):
            cells = RuleGrid.empty(grid.n_x, grid.n_y)
            for rect in rects:
                cells.set_rect(rect)
            return grid.cells & cells.cells

        assert (covered(merged) >= covered(clusters)).all()
