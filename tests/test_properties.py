"""Property-based tests on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning.strategies import equi_width_layout
from repro.core.grid import RuleGrid
from repro.core.mdl import mdl_cost
from repro.core.rules import GridRect, Interval
from repro.core.smoothing import neighbourhood_mean, smooth_binary

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    low = draw(finite_floats)
    width = draw(st.floats(min_value=1e-3, max_value=1e6,
                           allow_nan=False))
    closed = draw(st.booleans())
    return Interval(low, low + width, closed_high=closed)


@st.composite
def rects(draw, max_coord=12):
    x_lo = draw(st.integers(0, max_coord))
    x_hi = draw(st.integers(x_lo, max_coord))
    y_lo = draw(st.integers(0, max_coord))
    y_hi = draw(st.integers(y_lo, max_coord))
    return GridRect(x_lo, x_hi, y_lo, y_hi)


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_intersection_within_both(self, a, b):
        got = a.intersect(b)
        if got is not None:
            assert got.low >= a.low and got.low >= b.low
            assert got.high <= a.high and got.high <= b.high

    @given(intervals(), intervals())
    def test_intersection_symmetric_bounds(self, a, b):
        ab = a.intersect(b)
        ba = b.intersect(a)
        if ab is None:
            assert ba is None
        else:
            assert (ab.low, ab.high) == (ba.low, ba.high)

    @given(st.integers(1, 20), st.data())
    def test_hull_contains_both(self, n_bins, data):
        """A bin span's interval holds each bin's interval in the span."""
        layout = equi_width_layout("x", 0.0, 100.0, n_bins)
        first = data.draw(st.integers(0, n_bins - 1))
        last = data.draw(st.integers(first, n_bins - 1))
        low, high = layout.span_interval(first, last)
        for index in (first, last):
            bin_low, bin_high = layout.bin_interval(index)
            assert low <= bin_low and bin_high <= high

    @given(intervals(), finite_floats)
    def test_membership_consistent_with_bounds(self, interval, x):
        inside = bool(interval.contains([x])[0])
        if inside:
            assert interval.low <= x
            assert x < interval.high or (
                interval.closed_high and x == interval.high
            )

    @given(intervals(), intervals())
    def test_overlap_iff_intersection(self, a, b):
        # Half-open semantics: a nonempty intersection's low end lies
        # in both intervals.
        got = a.intersect(b)
        if got is not None:
            assert a.contains([got.low])[0] and b.contains([got.low])[0]


class TestRectProperties:
    @given(rects(), rects())
    def test_intersection_consistent_with_overlap(self, a, b):
        """A cell lies in both rectangles' grids exactly when both
        rectangles contain it."""
        grids = [RuleGrid.empty(13, 13) for _ in range(2)]
        for grid, rect in zip(grids, (a, b)):
            grid.set_rect(rect)
        shared = grids[0].cells & grids[1].cells
        for x, y in np.ndindex(shared.shape):
            assert shared[x, y] == (a.contains_cell(x, y)
                                    and b.contains_cell(x, y))

    @given(rects(), rects())
    def test_bounding_union_contains_both(self, a, b):
        hull = a.union_bounding(b)
        assert hull.area >= max(a.area, b.area)
        for rect in (a, b):
            assert hull.contains_cell(rect.x_lo, rect.y_lo)
            assert hull.contains_cell(rect.x_hi, rect.y_hi)

    @given(rects())
    def test_area_equals_cell_count(self, rect):
        grid = RuleGrid.empty(13, 13)
        grid.set_rect(rect)
        assert rect.area == grid.n_set


class TestBinningProperties:
    @given(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        st.floats(min_value=1e-2, max_value=1e5, allow_nan=False),
        st.integers(1, 200),
        st.lists(st.floats(0, 1), min_size=1, max_size=50),
    )
    def test_assignment_respects_bin_bounds(self, low, width, n_bins,
                                            fractions):
        layout = equi_width_layout("x", low, low + width, n_bins)
        values = np.array([low + f * width for f in fractions])
        bins = layout.assign(values)
        for value, index in zip(values, bins):
            bin_low, bin_high = layout.bin_interval(int(index))
            is_last = index == n_bins - 1
            assert bin_low <= value + 1e-9
            if not is_last:
                assert value < bin_high + 1e-9

    @given(st.integers(1, 100))
    def test_edges_cover_range_exactly(self, n_bins):
        layout = equi_width_layout("x", 0.0, 1.0, n_bins)
        assert layout.edges[0] == 0.0
        assert layout.edges[-1] == 1.0
        assert layout.n_bins == n_bins


class TestSmoothingProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 10), st.integers(2, 10), st.data())
    def test_mean_preserves_total_range(self, n_x, n_y, data):
        values = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(0, 1), min_size=n_y,
                             max_size=n_y),
                    min_size=n_x, max_size=n_x,
                )
            )
        )
        smoothed = neighbourhood_mean(values)
        assert smoothed.min() >= values.min() - 1e-12
        assert smoothed.max() <= values.max() + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 8), st.integers(3, 8))
    def test_full_and_empty_grids_are_fixed_points(self, n_x, n_y):
        empty = RuleGrid.empty(n_x, n_y)
        assert smooth_binary(empty).n_set == 0
        full = RuleGrid(np.ones((n_x, n_y), dtype=bool))
        assert smooth_binary(full).cells.all()


class TestMdlProperties:
    @given(st.integers(1, 10_000), st.integers(0, 10_000))
    def test_cost_finite_and_nonnegative(self, clusters, errors):
        cost = mdl_cost(clusters, errors)
        assert math.isfinite(cost)
        assert cost >= 0.0

    @given(st.integers(1, 1000), st.integers(0, 1000),
           st.integers(0, 1000), st.integers(0, 1000))
    def test_dominance(self, clusters, errors, extra_clusters,
                       extra_errors):
        """Fewer clusters AND fewer errors never cost more."""
        better = mdl_cost(clusters, errors)
        worse = mdl_cost(clusters + extra_clusters, errors + extra_errors)
        assert better <= worse

    @given(st.integers(1, 1000), st.integers(0, 1000),
           st.floats(0.1, 10), st.floats(0.1, 10))
    def test_weights_scale_linearly(self, clusters, errors, wc, we):
        base_model = mdl_cost(clusters, 0, cluster_weight=1.0,
                              error_weight=0.0)
        base_data = mdl_cost(clusters, errors, cluster_weight=0.0,
                             error_weight=1.0)
        combined = mdl_cost(clusters, errors, cluster_weight=wc,
                            error_weight=we)
        assert combined == (
            wc * base_model + we * base_data
        ) or abs(combined - (wc * base_model + we * base_data)) < 1e-9
