"""Property-based tests of BitOp against the brute-force oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitop import BitOpClusterer, _longest_run
from repro.core.grid import RuleGrid
from repro.obs import metrics
from repro.perf.reference import (
    brute_force_maximal_rectangles,
    covers,
    enumerate_rectangles,
    runs_of_set_bits,
)


@st.composite
def small_grids(draw, max_rows=7, max_cols=7):
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    bits = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows,
        )
    )
    return RuleGrid(np.array(bits, dtype=bool))


@given(st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_runs_reconstruct_mask(mask):
    """Runs are a lossless decomposition of the mask."""
    rebuilt = 0
    previous_end = -1
    for start, length in runs_of_set_bits(mask):
        assert length >= 1
        assert start > previous_end  # runs are disjoint and ordered
        rebuilt |= ((1 << length) - 1) << start
        previous_end = start + length - 1
    assert rebuilt == mask


@given(st.integers(min_value=1, max_value=(1 << 24) - 1))
def test_runs_are_maximal(mask):
    """No run can be extended by one bit on either side."""
    for start, length in runs_of_set_bits(mask):
        if start > 0:
            assert not (mask >> (start - 1)) & 1
        assert not (mask >> (start + length)) & 1


@st.composite
def seeded_grids(draw, max_rows=10, max_cols=130):
    """Grids up to ``max_cols`` wide (rows past one 64-bit word) at any
    set-cell density."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return RuleGrid(rng.random((n_rows, n_cols)) < density)


@given(st.integers(min_value=1, max_value=1 << 200))
def test_longest_run_is_the_lowest_longest_run(mask):
    runs = runs_of_set_bits(mask)
    longest = max(length for _, length in runs)
    assert _longest_run(mask) == next(
        run for run in runs if run[1] == longest
    )


@settings(max_examples=100, deadline=None)
@given(seeded_grids())
def test_cover_counts_every_candidate_of_its_first_scan(grid):
    """With no cluster taken, the cover's count of enumerated candidates
    is exactly the enumeration's, though it builds none of them.  No
    candidate reaches ``min_cells`` when it exceeds the grid's size."""
    expected = len(enumerate_rectangles(grid.row_bitmaps()))
    registry = metrics.MetricsRegistry()
    previous = metrics.swap_registry(registry)
    try:
        too_large = grid.cells.size + 1
        assert BitOpClusterer(min_cells=too_large).cluster(grid) == []
    finally:
        metrics.swap_registry(previous)
    counters = registry.snapshot()["counters"]
    assert counters.get("bitop.rectangles_enumerated", 0) == expected


@settings(max_examples=150, deadline=None)
@given(small_grids())
def test_enumeration_rectangles_are_fully_set(grid):
    rows = grid.row_bitmaps()
    for rect in enumerate_rectangles(rows):
        assert covers(grid, rect)


@settings(max_examples=100, deadline=None)
@given(small_grids())
def test_enumeration_superset_of_maximal_rectangles(grid):
    """Every maximal all-set rectangle appears among BitOp's candidates."""
    enumerated = set(enumerate_rectangles(grid.row_bitmaps()))
    for rect in brute_force_maximal_rectangles(grid):
        assert rect in enumerated


@settings(max_examples=150, deadline=None)
@given(small_grids())
def test_greedy_cover_is_exact_partition_of_set_cells(grid):
    """The greedy cover covers every set cell, covers no unset cell, and
    its rectangles are pairwise disjoint (each iteration clears what it
    claimed)."""
    clusters = BitOpClusterer().cluster(grid)
    covered = np.zeros_like(grid.cells)
    for rect in clusters:
        block = covered[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1]
        assert not block.any()  # disjoint
        covered[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1] = True
    assert np.array_equal(covered, grid.cells)


@settings(max_examples=100, deadline=None)
@given(small_grids())
def test_greedy_cover_sizes_are_non_increasing(grid):
    clusters = BitOpClusterer().cluster(grid)
    areas = [rect.area for rect in clusters]
    assert areas == sorted(areas, reverse=True)


@settings(max_examples=100, deadline=None)
@given(small_grids(), st.integers(2, 6))
def test_min_cells_floor_respected(grid, min_cells):
    clusters = BitOpClusterer(min_cells=min_cells).cluster(grid)
    assert all(rect.area >= min_cells for rect in clusters)
