"""Unit tests for the BinArray count cube."""

import numpy as np
import pytest

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import equi_width_layout
from repro.mining.engine import EMPTY_CELL, rule_measures


def make_bin_array(n_x=4, n_y=3, target=None):
    return BinArray(
        x_layout=equi_width_layout("x", 0, 4, n_x),
        y_layout=equi_width_layout("y", 0, 3, n_y),
        rhs_encoding=CategoricalEncoding("g", ("A", "other")),
        target_code=target,
    )


class TestShapeAndModes:
    def test_full_mode_shape(self):
        array = make_bin_array()
        assert array.counts.shape == (4, 3, 2)
        assert array.totals.shape == (4, 3)
        assert not array.single_target

    def test_single_target_mode_shape(self):
        array = make_bin_array(target=0)
        assert array.counts.shape == (4, 3, 1)
        assert array.single_target

    def test_memory_cells_smaller_in_single_target_mode(self):
        full = make_bin_array()
        single = make_bin_array(target=0)
        assert single.counts.size < full.counts.size


class TestAccumulation:
    def test_add_chunk_counts(self):
        array = make_bin_array()
        array.add_chunk([0, 0, 1], [0, 0, 2], [0, 1, 0])
        assert array.n_total == 3
        assert array.totals[0, 0] == 2
        assert array.count_grid(0)[0, 0] == 1
        assert array.count_grid(1)[0, 0] == 1
        assert array.count_grid(0)[1, 2] == 1

    def test_multiple_chunks_accumulate(self):
        array = make_bin_array()
        array.add_chunk([0], [0], [0])
        array.add_chunk([0], [0], [0])
        assert array.count_grid(0)[0, 0] == 2
        assert array.n_total == 2

    def test_repeated_cells_in_one_chunk(self):
        """np.add.at semantics: duplicates within a chunk all count."""
        array = make_bin_array()
        array.add_chunk([2, 2, 2], [1, 1, 1], [0, 0, 1])
        assert array.totals[2, 1] == 3
        assert array.count_grid(0)[2, 1] == 2

    def test_length_mismatch_rejected(self):
        array = make_bin_array()
        with pytest.raises(ValueError):
            array.add_chunk([0, 1], [0], [0])

    def test_single_target_mode_counts_only_target(self):
        array = make_bin_array(target=0)
        array.add_chunk([0, 0], [0, 0], [0, 1])
        assert array.totals[0, 0] == 2
        assert array.count_grid(0)[0, 0] == 1

    def test_single_target_mode_rejects_other_code(self):
        array = make_bin_array(target=0)
        array.add_chunk([0], [0], [0])
        with pytest.raises(ValueError):
            array.count_grid(1)


class TestChunkValidation:
    """Out-of-range indices would alias into neighbouring cells through
    the flattened bincount arithmetic; both scatter paths reject them."""

    @pytest.mark.parametrize("x, y, code, label", [
        ([4], [0], [0], "x_bins"),     # n_x == 4
        ([-1], [0], [0], "x_bins"),
        ([0], [3], [0], "y_bins"),     # n_y == 3
        ([0], [-2], [0], "y_bins"),
        ([0], [0], [2], "rhs_codes"),  # cardinality == 2
        ([0], [0], [-1], "rhs_codes"),
    ])
    def test_add_chunk_rejects_out_of_range(self, x, y, code, label):
        array = make_bin_array()
        with pytest.raises(ValueError, match=label):
            array.add_chunk(x, y, code)
        # Validation happened before any counter was touched.
        assert array.n_total == 0
        assert not array.totals.any()

    def test_remove_chunk_shares_the_validation(self):
        array = make_bin_array()
        array.add_chunk([0], [0], [0])
        with pytest.raises(ValueError, match="x_bins"):
            array.remove_chunk([4], [0], [0])
        assert array.n_total == 1

    def test_empty_chunks_are_fine(self):
        array = make_bin_array()
        array.add_chunk([], [], [])
        array.remove_chunk([], [], [])
        assert array.n_total == 0


class TestRemoveChunk:
    def test_remove_inverts_add(self):
        array = make_bin_array()
        array.add_chunk([0, 0, 1], [0, 0, 2], [0, 1, 0])
        array.add_chunk([2, 3], [1, 2], [1, 0])
        array.remove_chunk([0, 0, 1], [0, 0, 2], [0, 1, 0])
        assert array.n_total == 2
        assert array.totals[0, 0] == 0
        assert array.count_grid(1)[2, 1] == 1
        array.remove_chunk([2, 3], [1, 2], [1, 0])
        assert array.n_total == 0
        assert not array.counts.any()
        assert not array.totals.any()

    def test_partial_chunk_removal(self):
        """A chunk can expire in pieces — the sliding window's split."""
        array = make_bin_array()
        array.add_chunk([0, 1, 2, 3], [0, 1, 2, 0], [0, 1, 0, 1])
        array.remove_chunk([0, 1], [0, 1], [0, 1])
        assert array.n_total == 2
        assert array.totals[2, 2] == 1
        assert array.totals[0, 0] == 0

    def test_underflow_rejected_and_array_untouched(self):
        array = make_bin_array()
        array.add_chunk([0, 1], [0, 1], [0, 1])
        before_counts = array.counts.copy()
        before_totals = array.totals.copy()
        # Cell (2, 2) was never accumulated: check-then-apply must
        # leave every counter exactly as it was.
        with pytest.raises(ValueError, match="negative"):
            array.remove_chunk([0, 2], [0, 2], [0, 0])
        assert np.array_equal(array.counts, before_counts)
        assert np.array_equal(array.totals, before_totals)
        assert array.n_total == 2

    def test_code_mismatch_in_occupied_cell_rejected(self):
        """The cell total would survive, but the per-code count would
        not — the check covers both grids."""
        array = make_bin_array()
        array.add_chunk([0], [0], [0])
        with pytest.raises(ValueError, match="negative"):
            array.remove_chunk([0], [0], [1])

    def test_single_target_mode_removal(self):
        array = make_bin_array(target=0)
        array.add_chunk([0, 0], [0, 0], [0, 1])
        array.remove_chunk([0], [0], [1])  # non-target tuple
        assert array.totals[0, 0] == 1
        assert array.count_grid(0)[0, 0] == 1
        array.remove_chunk([0], [0], [0])
        assert array.totals[0, 0] == 0
        assert array.count_grid(0)[0, 0] == 0

    def test_single_target_mode_underflow_on_target_count(self):
        array = make_bin_array(target=0)
        array.add_chunk([0, 0], [0, 0], [1, 1])
        # Two tuples in the cell, but neither was the target: removing
        # a "target" tuple must fail even though totals could bear it.
        with pytest.raises(ValueError, match="negative"):
            array.remove_chunk([0], [0], [0])


class TestQueries:
    @pytest.fixture()
    def filled(self):
        array = make_bin_array()
        # Cell (0,0): 3 of A + 1 other; cell (1,1): 2 other.
        array.add_chunk(
            [0, 0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1],
        )
        return array

    def test_cell_support(self, filled):
        support = rule_measures(filled, 0).support
        assert support[0, 0] == pytest.approx(3 / 6)
        assert support[1, 1] == EMPTY_CELL  # no tuple of A

    def test_cell_confidence(self, filled):
        confidence = rule_measures(filled, 0).confidence
        assert confidence[0, 0] == pytest.approx(3 / 4)
        assert confidence[1, 1] == EMPTY_CELL  # no tuple of A
        assert confidence[3, 2] == EMPTY_CELL  # empty cell

    def test_support_grid_matches_cell_support(self, filled):
        support = rule_measures(filled, 0).support
        occupied = filled.count_grid(0) > 0
        assert np.array_equal(filled.support_grid(0)[occupied],
                              support[occupied])

    def test_confidence_grid_zero_on_empty_cells(self, filled):
        confidence = rule_measures(filled, 1).confidence
        assert confidence[3, 2] == EMPTY_CELL
        assert confidence[0, 0] == pytest.approx(0.25)

    def test_occupied_cells(self, filled):
        assert np.count_nonzero(filled.count_grid(0)) == 1
        assert np.count_nonzero(filled.count_grid(1)) == 2

    def test_empty_array_supports(self):
        array = make_bin_array()
        assert array.support_grid(0).sum() == 0.0
        assert (rule_measures(array, 0).support == EMPTY_CELL).all()


class TestThresholdEnumeration:
    def test_unique_support_counts(self):
        array = make_bin_array()
        array.add_chunk(
            [0, 0, 1, 1, 1, 2],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        )
        assert list(array.unique_support_counts(0)) == [1, 2, 3]

    def test_unique_confidences_filters_by_count(self):
        array = make_bin_array()
        # Cell (0,0): 2 A of 4 (conf 0.5); cell (1,0): 1 A of 1 (conf 1.0).
        array.add_chunk(
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 1, 1, 0],
        )
        all_confs = array.unique_confidences(0, min_count=1)
        assert list(all_confs) == [0.5, 1.0]
        high_only = array.unique_confidences(0, min_count=2)
        assert list(high_only) == [0.5]

    def test_unique_confidences_empty(self):
        array = make_bin_array()
        assert len(array.unique_confidences(0)) == 0


class TestRegionCounts:
    def test_rectangle_aggregation(self):
        array = make_bin_array()
        array.add_chunk(
            [0, 0, 1, 1, 3],
            [0, 1, 0, 1, 2],
            [0, 0, 0, 1, 0],
        )
        target, total = array.region_counts(0, 1, 0, 1, 0)
        assert target == 3
        assert total == 4

    def test_out_of_bounds_rejected(self):
        array = make_bin_array()
        with pytest.raises(ValueError):
            array.region_counts(0, 4, 0, 0, 0)
        with pytest.raises(ValueError):
            array.region_counts(1, 0, 0, 0, 0)
