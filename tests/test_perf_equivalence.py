"""Equivalence tests: vectorised hot-path kernels vs scalar references.

The fast kernels (bincount binner scatter, the sampled-once verifier
and its plain-Python report, separable window sums, word-packed row
masks, bulk rule-pair extraction, the rule grid over rule measures
divided once, integer binary smoothing, BitOp's chained start-row
scans, the heap hull merge and the incremental BitOp cover) must
produce *bit-identical* results to the straightforward scalar
implementations kept in
:mod:`repro.perf.reference` — including edge bins, empty inputs and
empty grids.  The perf-budget harness relies on these pairs agreeing
before it times them.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.binning import bin_table
from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import (
    BinLayout,
    equi_depth_layout,
    equi_width_layout,
)
from repro.core import clusterer, optimizer, search_helper
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.bitop import BitOpClusterer, StartRowChains
from repro.core.grid import RuleGrid
from repro.core.merging import _trim_to_content, merge_clusters
from repro.core.optimizer import OptimizerConfig, ThresholdLattice
from repro.core.rules import GridRect
from repro.core.segmentation import Segmentation
from repro.core.smoothing import (
    neighbourhood_mean,
    smooth_binary,
    window_sums,
)
from repro.core.verifier import Verifier, _numpy_sum
from repro.data.perturbation import inject_outliers
from repro.data.schema import Table, categorical, equal_mask, quantitative
from repro.mining.engine import rule_grid, rule_measures
from repro.obs import metrics
from repro.perf import reference


#: The shared knobs of the e2e fit workloads: a 32x32 grid, and the whole
#: 6 x 10 threshold lattice (patience covers every support level).
E2E_FIT_CONFIG = {
    "n_bins_x": 32, "n_bins_y": 32,
    "optimizer": OptimizerConfig(max_support_levels=6,
                                 max_confidence_levels=10, patience=6),
}


def make_layouts(n_bins=10):
    return (
        equi_width_layout("x", 0.0, 100.0, n_bins),
        equi_width_layout("y", -5.0, 5.0, n_bins),
    )


def make_cube(target_code=None, n_bins=10):
    x_layout, y_layout = make_layouts(n_bins)
    encoding = CategoricalEncoding("group", ("A", "B", "other"))
    return BinArray(x_layout, y_layout, encoding, target_code=target_code)


class TestBinnerEquivalence:
    def assert_cubes_equal(self, slow, fast):
        assert np.array_equal(slow.counts, fast.counts)
        assert np.array_equal(slow.totals, fast.totals)
        assert slow.n_total == fast.n_total

    def accumulate_both(self, x_values, y_values, codes, target_code=None):
        x_layout, y_layout = make_layouts()
        slow, fast = (
            make_cube(target_code), make_cube(target_code)
        )
        reference.add_chunk_scalar(
            slow,
            reference.assign_bins_scalar(x_layout, x_values),
            reference.assign_bins_scalar(y_layout, y_values),
            codes,
        )
        fast.add_chunk(
            x_layout.assign(x_values), y_layout.assign(y_values), codes
        )
        self.assert_cubes_equal(slow, fast)
        return fast

    def test_random_chunk_identical(self):
        rng = np.random.default_rng(1)
        n = 5000
        self.accumulate_both(
            rng.uniform(0, 100, n), rng.uniform(-5, 5, n),
            rng.integers(0, 3, n, dtype=np.int64),
        )

    def test_edge_values_identical(self):
        """Domain bounds, exact bin edges and out-of-range values land in
        the same bins on both paths."""
        x_values = np.array([0.0, 10.0, 99.999, 100.0, -3.0, 250.0, 50.0])
        y_values = np.array([-5.0, -1.0, 4.999, 5.0, -80.0, 80.0, 0.0])
        codes = np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.int64)
        fast = self.accumulate_both(x_values, y_values, codes)
        # Clamping: the out-of-range tuples landed in the outermost bins.
        assert fast.totals[0].sum() >= 1
        assert fast.totals[-1].sum() >= 1

    def test_empty_chunk_identical(self):
        empty = np.array([], dtype=np.float64)
        fast = self.accumulate_both(
            empty, empty, np.array([], dtype=np.int64)
        )
        assert fast.n_total == 0
        assert not fast.totals.any()

    def test_single_target_mode_identical(self):
        rng = np.random.default_rng(2)
        n = 3000
        self.accumulate_both(
            rng.uniform(0, 100, n), rng.uniform(-5, 5, n),
            rng.integers(0, 3, n, dtype=np.int64),
            target_code=1,
        )

    def test_multiple_chunks_accumulate_identically(self):
        rng = np.random.default_rng(3)
        x_layout, y_layout = make_layouts()
        slow, fast = make_cube(), make_cube()
        for _ in range(4):
            n = int(rng.integers(1, 800))
            x_values = rng.uniform(0, 100, n)
            y_values = rng.uniform(-5, 5, n)
            codes = rng.integers(0, 3, n, dtype=np.int64)
            reference.add_chunk_scalar(
                slow,
                reference.assign_bins_scalar(x_layout, x_values),
                reference.assign_bins_scalar(y_layout, y_values),
                codes,
            )
            fast.add_chunk(
                x_layout.assign(x_values), y_layout.assign(y_values),
                codes,
            )
        self.assert_cubes_equal(slow, fast)

    def test_remove_chunk_matches_scalar_reference(self):
        """The inverse scatter is bit-identical to the per-tuple loop,
        across full-cube and single-target modes."""
        rng = np.random.default_rng(4)
        for target_code in (None, 1):
            n_x = rng.integers(0, 10, 4_000, dtype=np.int64)
            n_y = rng.integers(0, 10, 4_000, dtype=np.int64)
            codes = rng.integers(0, 3, 4_000, dtype=np.int64)
            slow, fast = make_cube(target_code), make_cube(target_code)
            for cube in (slow, fast):
                cube.add_chunk(n_x, n_y, codes)
            # Remove a random half of what was accumulated.
            keep = rng.random(4_000) < 0.5
            reference.remove_chunk_scalar(
                slow, n_x[keep], n_y[keep], codes[keep]
            )
            fast.remove_chunk(n_x[keep], n_y[keep], codes[keep])
            self.assert_cubes_equal(slow, fast)

    def test_remove_chunk_empty_identical(self):
        empty = np.array([], dtype=np.int64)
        slow, fast = make_cube(), make_cube()
        reference.remove_chunk_scalar(slow, empty, empty, empty)
        fast.remove_chunk(empty, empty, empty)
        self.assert_cubes_equal(slow, fast)

    def test_scalar_reference_underflow_check(self):
        cube = make_cube()
        cube.add_chunk(
            np.array([0]), np.array([0]), np.array([0])
        )
        with pytest.raises(ValueError, match="no tuples"):
            reference.remove_chunk_scalar(
                cube, np.array([1]), np.array([1]), np.array([0])
            )

    def test_scalar_assignment_matches_layout(self):
        layout = equi_width_layout("x", 0.0, 1.0, 7)
        values = np.concatenate([
            np.linspace(-0.5, 1.5, 101), layout.edges
        ])
        assert np.array_equal(
            reference.assign_bins_scalar(layout, values),
            layout.assign(values),
        )


@st.composite
def adversarial_layouts(draw):
    """Layouts whose edges defeat a uniform-cell guess: equi-width over
    magnitudes 1e-3 to 1e7, equi-depth over Cauchy and heavily tied
    data, and uneven cubed-exponential edges."""
    family = draw(st.sampled_from(("width", "cauchy", "ties", "cubed")))
    n_bins = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.floats(-1e7, 1e7))
    if family == "width":
        width = 10.0 ** draw(st.floats(-3, 7))
        return equi_width_layout("v", low, low + width, n_bins)
    if family == "cauchy":
        return equi_depth_layout("v", rng.standard_cauchy(400), n_bins)
    if family == "ties":
        tied = rng.integers(0, 6, 300).astype(np.float64)
        return equi_depth_layout("v", tied, n_bins)
    steps = 1e-3 + rng.exponential(size=n_bins + 1) ** 3
    edges = np.unique(low + np.cumsum(steps))
    assume(len(edges) >= 2)
    return BinLayout("v", edges)


def probe_values(layout, rng, extra=()):
    """Every edge, its two float neighbours, the infinities, both zeros
    and draws over twice the layout's range."""
    edges = layout.edges
    span = edges[-1] - edges[0]
    return np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [np.inf, -np.inf, 0.0, -0.0],
        edges[0] + span * rng.uniform(-0.5, 1.5, 200),
        np.asarray(extra, dtype=np.float64),
    ])


class TestAssignEquivalence:
    """The table-driven ``BinLayout.assign`` equals the per-value
    ``bisect`` reference exactly, on layouts built to defeat its
    guess."""

    @settings(max_examples=300, deadline=None)
    @given(adversarial_layouts(), st.integers(0, 2**32 - 1),
           st.lists(st.floats(allow_nan=False), max_size=20))
    def test_adversarial_layouts(self, layout, seed, extra):
        values = probe_values(layout, np.random.default_rng(seed), extra)
        assert np.array_equal(
            layout.assign(values),
            reference.assign_bins_scalar(layout, values),
        )

    @pytest.mark.parametrize("edges", [
        [0.0, 5e-324],
        [0.0, 1e-320, 2e-320],
        [-1.7e308, 0.0, 1.7e308],
        [1.0, np.nextafter(1.0, 2.0)],
    ])
    def test_ranges_too_narrow_or_wide_to_divide(self, edges):
        layout = BinLayout("v", np.array(edges))
        values = np.concatenate([
            layout.edges, [np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308],
        ])
        assert np.array_equal(
            layout.assign(values),
            reference.assign_bins_scalar(layout, values),
        )

    @given(adversarial_layouts())
    @settings(max_examples=30, deadline=None)
    def test_nan_still_raises(self, layout):
        values = np.array([layout.low, np.nan])
        with pytest.raises(ValueError, match="contains NaN"):
            layout.assign(values)
        with pytest.raises(ValueError, match="contains NaN"):
            reference.assign_bins_scalar(layout, values)

    def test_empty_values(self):
        layout = equi_width_layout("v", 0.0, 1.0, 4)
        assert layout.assign(np.array([])).shape == (0,)


class TestEncodeEquivalence:
    """``CategoricalEncoding.encode`` (a lookup gather over codes) equals
    the per-value dict loop ``encode_scalar``."""

    LABELS = ("A", "B", "other", 7, 2.5, ("t", 1))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(LABELS), max_size=60),
           st.permutations(LABELS))
    def test_raw_values_and_table_columns(self, values, order):
        encoding = CategoricalEncoding("g", tuple(order))
        expected = reference.encode_scalar(encoding, values)
        assert np.array_equal(encoding.encode(values), expected)
        table = Table.from_columns([categorical("g")], {"g": values})
        coded = encoding.encode(table.categorical_column("g"))
        assert coded.dtype == np.int64
        assert np.array_equal(coded, expected)

    def test_identity_when_domains_match(self):
        encoding = CategoricalEncoding("group", ("A", "other"))
        table = Table.from_columns(
            [categorical("group", ("A", "other"))],
            {"group": ["other", "A", "A"]},
        )
        assert encoding.encode(table.categorical_column("group")).tolist() \
            == [1, 0, 0]

    @pytest.mark.parametrize("as_column", [False, True])
    def test_unknown_value_error_text(self, as_column):
        encoding = CategoricalEncoding("group", ("A", "other"))
        values = ["A", "other", "zzz", "yyy"]
        with pytest.raises(KeyError) as scalar:
            reference.encode_scalar(encoding, values)
        if as_column:
            values = Table.from_columns(
                [categorical("group")], {"group": values}
            ).categorical_column("group")
        with pytest.raises(KeyError) as fast:
            encoding.encode(values)
        assert str(fast.value) == str(scalar.value)
        assert "'zzz'" in str(fast.value) and "'group'" in str(fast.value)

    def test_unused_domain_value_is_not_an_error(self):
        """A row subset keeps its parent's domain; only values some row
        holds have to be in the encoding."""
        table = Table.from_columns(
            [categorical("g")], {"g": ["a", "b", "zzz"]}
        ).head(2)
        encoding = CategoricalEncoding("g", ("b", "a"))
        assert encoding.encode(table.categorical_column("g")).tolist() \
            == [1, 0]


class TestInjectOutliersEquivalence:
    """The vectorised flip consumes the random stream exactly as the
    per-label loop did, so outputs (and later draws) are identical."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400), st.floats(0.0, 0.95),
           st.integers(0, 2**32 - 1),
           st.sampled_from([("A", "other"), ("a", "b", "c"),
                            ("p", "q", "r", "s", "t")]))
    def test_same_labels_and_stream(self, n, fraction, seed, groups):
        labels_rng = np.random.default_rng(seed ^ 0x5EED)
        pool = np.empty(len(groups) + 1, dtype=object)
        pool[:] = list(groups) + ["stray"]
        labels = pool[labels_rng.integers(0, len(pool), n)]
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        fast = inject_outliers(labels, fraction, fast_rng, groups=groups)
        slow = reference.inject_outliers_scalar(
            labels, fraction, slow_rng, groups=groups
        )
        assert fast.tolist() == slow.tolist()
        assert fast_rng.random() == slow_rng.random()

    def test_two_group_codes_match_value_labels(self):
        codes = np.random.default_rng(1).integers(0, 2, 5_000).astype(
            np.uint8
        )
        values = np.array(["A", "other"], dtype=object)[codes]
        flipped_codes = inject_outliers(
            codes, 0.1, np.random.default_rng(2), groups=(0, 1)
        )
        flipped_values = reference.inject_outliers_scalar(
            values, 0.1, np.random.default_rng(2)
        )
        assert flipped_codes.dtype == np.uint8
        assert np.array(["A", "other"], dtype=object)[
            flipped_codes
        ].tolist() == flipped_values.tolist()


class TestVerifierEquivalence:
    """The oracle counts each repeat's sample tuple by tuple
    (``count_repeat_errors_scalar``); the verifier's counts must give
    the same report."""

    def test_counts_identical(self):
        verifier = Verifier(verification_table(2000, 4), "group", "A",
                            sample_size=150, repeats=8, seed=9)
        x_layout = equi_width_layout("age", 0.0, 100.0, 10)
        y_layout = equi_width_layout("salary", 0.0, 100.0, 10)
        rects = [GridRect(1, 5, 2, 9)]
        report = verifier.verify_rects(x_layout, y_layout, rects)
        assert report == reference.verify_scalar(
            verifier, grid_segmentation(x_layout, y_layout, rects)
        )
        assert report.mean_false_positives > 0
        assert report.mean_false_negatives > 0

    def test_counts_identical_for_degenerate_coverage(self):
        n = 500
        verifier = Verifier(verification_table(n, 0), "group", "A",
                            sample_size=n, repeats=3, seed=0)
        x_layout = equi_width_layout("age", 0.0, 100.0, 10)
        y_layout = equi_width_layout("salary", 0.0, 100.0, 10)
        for rects in ([], [GridRect(0, 9, 0, 9)]):
            report = verifier.verify_rects(x_layout, y_layout, rects)
            assert report == reference.verify_scalar(
                verifier, grid_segmentation(x_layout, y_layout, rects)
            )
            # Covering nothing misses every target; covering everything
            # admits every non-target.
            missed = (report.mean_false_negatives if not rects
                      else report.mean_false_positives)
            assert report.mean_errors == missed > 0

    def test_repeat_ids_are_position_independent(self):
        """Repeat r draws the same sample whether computed alone or in a
        batch — the property that lets a verifier draw every repeat once
        at construction."""
        rng = np.random.default_rng(5)
        covered = rng.random(800) < 0.5
        is_target = rng.random(800) < 0.5
        batched = reference.count_repeat_errors_scalar(
            covered, is_target, 100, seed=3, repeat_ids=range(6)
        )
        for repeat in range(6):
            alone = reference.count_repeat_errors_scalar(
                covered, is_target, 100, seed=3, repeat_ids=[repeat]
            )
            assert alone[0][0] == batched[0][repeat]
            assert alone[1][0] == batched[1][repeat]


# ----------------------------------------------------------------------
# Verifier.verify_rects samples once at construction; verify_scalar
# covers the whole table per call and then gathers.  Coverage and target
# membership are element-wise, so the two reports must be ``==``.
# ----------------------------------------------------------------------
LHS_ATTRIBUTES = ("age", "salary", "loan")


def verification_table(n, seed, labels=("A", "B", "other")):
    """n tuples on a coarse value lattice, so interval edges are hit."""
    rng = np.random.default_rng(seed)
    specs = [quantitative(name, 0, 100) for name in LHS_ATTRIBUTES]
    specs.append(categorical("group", labels))
    columns = {
        name: rng.integers(0, 101, n).astype(np.float64)
        for name in LHS_ATTRIBUTES
    }
    columns["group"] = [labels[i] for i in rng.integers(0, len(labels), n)]
    return Table.from_columns(specs, columns)


@st.composite
def grid_segmentations(draw, x_attribute="age", y_attribute="salary"):
    """``(x_layout, y_layout, rects)``: layouts with edges on and past
    the tables' 0..100 value lattice, so samples fall on edges, between
    them and outside the layout, and up to 6 rectangles on their grid."""
    layouts = [
        BinLayout(name, sorted(draw(st.lists(
            st.integers(-10, 110), min_size=2, max_size=10, unique=True,
        ))))
        for name in (x_attribute, y_attribute)
    ]
    rects = draw(st.lists(
        st.tuples(*(st.integers(0, layout.n_bins - 1)
                    for layout in layouts for _ in range(2))).map(
            lambda c: GridRect(min(c[0], c[1]), max(c[0], c[1]),
                               min(c[2], c[3]), max(c[2], c[3]))),
        max_size=6,
    ))
    return (*layouts, rects)


def grid_segmentation(x_layout, y_layout, rects):
    """The value-space segmentation whose rules span ``rects``."""
    bin_array = BinArray(x_layout, y_layout,
                         CategoricalEncoding("group", ("A", "B")))
    return Segmentation(
        rules=tuple(clusterer.clustered_rule_from_rect(rect, bin_array, 0)
                    for rect in rects),
        x_attribute=x_layout.attribute, y_attribute=y_layout.attribute,
        rhs_attribute="group", rhs_value="A",
    )


class _Label:
    """A label whose ``__eq__`` answers arrays with one bool, so
    ``equal_mask`` has to take its scalar fallback."""

    __array_ufunc__ = None

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return isinstance(other, _Label) and self.key == other.key


def check_every_trial(monkeypatch) -> list:
    """Make each search trial assert that its grid report equals the
    full-table pass on the trial's rules.  Returns the list each checked
    trial appends its ``(verifier, segmentation)`` to."""
    run_trial = optimizer.run_trial
    checked = []

    def checked_trial(clusterer, verifier, weights, measures,
                      *thresholds):
        trial, outcome = run_trial(clusterer, verifier, weights, measures,
                                   *thresholds)
        segmentation = optimizer.segmentation_from_outcome(
            outcome, measures.bin_array, measures.rhs_code
        )
        assert trial.report == reference.verify_scalar(verifier,
                                                       segmentation)
        checked.append((verifier, segmentation))
        return trial, outcome

    monkeypatch.setattr(optimizer, "run_trial", checked_trial)
    # Every trial in this process: the search helper runs the module it
    # forked with, not the patched one.
    monkeypatch.setattr(search_helper, "_force", False)
    return checked


class TestVerifyEquivalence:
    def assert_reports_equal(self, verifier, grid):
        assert verifier.verify_rects(*grid) == reference.verify_scalar(
            verifier, grid_segmentation(*grid)
        )

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1),
           grid_segmentations(), st.integers(1, 1500), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_random_tables_and_segmentations(self, n, table_seed, grid,
                                             sample_size, repeats, seed):
        verifier = Verifier(verification_table(n, table_seed), "group",
                            "A", sample_size=sample_size, repeats=repeats,
                            seed=seed)
        self.assert_reports_equal(verifier, grid)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300), grid_segmentations())
    def test_sample_size_clamped_to_table(self, n, grid):
        verifier = Verifier(verification_table(n, n), "group", "A",
                            sample_size=n + 7, repeats=3, seed=n)
        assert verifier.sample_size == n
        self.assert_reports_equal(verifier, grid)

    @settings(max_examples=30, deadline=None)
    @given(grid_segmentations(), st.integers(0, 1000))
    def test_single_repeat(self, grid, seed):
        verifier = Verifier(verification_table(500, 3), "group", "A",
                            sample_size=120, repeats=1, seed=seed)
        assert verifier.verify_rects(*grid).error_rate_stderr == 0.0
        self.assert_reports_equal(verifier, grid)

    @settings(max_examples=30, deadline=None)
    @given(grid_segmentations())
    def test_scalar_target_fallback(self, grid):
        labels = (_Label("A"), _Label("B"), _Label("other"))
        table = verification_table(900, 8, labels=labels)
        verifier = Verifier(table, "group", _Label("A"),
                            sample_size=200, repeats=4, seed=2)
        self.assert_reports_equal(verifier, grid)

    @settings(max_examples=30, deadline=None)
    @given(grid_segmentations("age", "salary"),
           grid_segmentations("loan", "age"),
           grid_segmentations("salary", "loan"))
    def test_unseen_attributes(self, first, second, third):
        """Segmentations over attribute pairs the verifier has not
        gathered yet still match the full-table pass."""
        verifier = Verifier(verification_table(2000, 4), "group", "A",
                            sample_size=300, repeats=5, seed=6)
        for grid in (first, second, third):
            self.assert_reports_equal(verifier, grid)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.one_of(grid_segmentations("age", "salary"),
                  grid_segmentations("loan", "age"),
                  grid_segmentations("salary", "loan")),
        min_size=2, max_size=6,
    ))
    def test_call_order_does_not_matter(self, series):
        """The lazy column cache carries no state between calls: one
        verifier reports the same whichever order it sees a series in."""
        table = verification_table(1500, 5)
        forward = Verifier(table, "group", "A", sample_size=250,
                           repeats=4, seed=9)
        backward = Verifier(table, "group", "A", sample_size=250,
                            repeats=4, seed=9)
        in_order = [forward.verify_rects(*grid) for grid in series]
        reversed_ = [backward.verify_rects(*grid)
                     for grid in reversed(series)]
        assert in_order == reversed_[::-1]

    @pytest.mark.parametrize("n_tuples, outliers, seed, fit_config", [
        pytest.param(50_000, 0.0, 42, {}, id="0.0-42"),
        pytest.param(50_000, 0.10, 43, {}, id="0.1-43"),
        pytest.param(8_000, 0.10, 0, E2E_FIT_CONFIG, id="fit-fragmented"),
        pytest.param(400_000, 0.0, 0, E2E_FIT_CONFIG, id="fit-dense"),
    ])
    def test_function2_fits(self, monkeypatch, n_tuples, outliers, seed,
                            fit_config):
        """Every trial of a fit on Function 2 (E1's 50k tuples, and the
        shapes of the e2e fit workloads) reports on the grid what the
        full-table pass reports on the trial's rules."""
        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=n_tuples, function_id=2, perturbation=0.05,
            outlier_fraction=outliers, seed=seed,
        ))
        checked = check_every_trial(monkeypatch)
        config = ARCSConfig(**{
            "optimizer": OptimizerConfig(max_support_levels=6,
                                         max_confidence_levels=10),
            **fit_config,
        })
        result = ARCS(config).fit(table, "age", "salary", "group", "A")
        assert len(result.segmentation) == 3
        sizes = [len(segmentation) for _, segmentation in checked]
        assert len(sizes) > 10 and max(sizes) > 0

    def test_verification_table_wider_than_the_layout(self, monkeypatch):
        """A held-out table whose values run past the training layout on
        both sides.  Its tuples outside the layout are no rule's, where
        ``BinLayout.assign`` would clamp them into the edge bins."""
        def generate(n_tuples, seed):
            return repro.generate_synthetic(repro.SyntheticConfig(
                n_tuples=n_tuples, function_id=2, perturbation=0.05,
                seed=seed,
            ))

        train, wide = generate(8_000, 5), generate(4_000, 6)
        held_out = Table.from_columns(
            [quantitative("age"), quantitative("salary"),
             wide.spec("group")],
            {"age": wide.column("age") * 1.5 - 30.0,
             "salary": wide.column("salary") * 1.2 - 20_000.0,
             "group": list(wide.column("group"))},
        )
        checked = check_every_trial(monkeypatch)
        result = ARCS(ARCSConfig(**E2E_FIT_CONFIG)).fit(
            train, "age", "salary", "group", "A",
            verification_table=held_out,
        )
        verifier = checked[0][0]
        assert verifier.table is held_out and len(checked) > 10

        x_bins = result.binner.x_layout.assign(held_out.column("age"))
        y_bins = result.binner.y_layout.assign(held_out.column("salary"))
        clamped = np.zeros(len(held_out), dtype=bool)
        for rect in result.outcome.pruning.kept:
            clamped |= ((rect.x_lo <= x_bins) & (x_bins <= rect.x_hi)
                        & (rect.y_lo <= y_bins) & (y_bins <= rect.y_hi))
        assert (clamped & ~result.segmentation.covers_table(held_out)).any()
        fp_counts, fn_counts = reference.count_repeat_errors_scalar(
            clamped, equal_mask(held_out.column("group"), "A"),
            verifier.sample_size, verifier.seed, range(verifier.repeats),
        )
        report = result.best_trial.report
        assert (np.mean(fp_counts), np.mean(fn_counts)) != (
            report.mean_false_positives, report.mean_false_negatives
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grid_reports(self, data):
        """``verify_rects`` equals the full-table pass on the rules its
        rectangles translate to, for samples on edges, between them,
        below the first edge, at the last one and above it."""
        n_x, n_y = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        table_seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(table_seed)
        layouts = []
        for name, n_bins in (("age", n_x), ("salary", n_y)):
            if data.draw(st.booleans()):
                layout = equi_width_layout(name, 0.0, 100.0, n_bins)
            else:
                layout = equi_depth_layout(
                    name, rng.integers(0, 101, 200).astype(float), n_bins
                )
            layouts.append(layout)
        x_layout, y_layout = layouts
        rects = data.draw(st.lists(
            st.tuples(st.integers(0, x_layout.n_bins - 1),
                      st.integers(0, x_layout.n_bins - 1),
                      st.integers(0, y_layout.n_bins - 1),
                      st.integers(0, y_layout.n_bins - 1)).map(
                lambda c: GridRect(min(c[0], c[1]), max(c[0], c[1]),
                                   min(c[2], c[3]), max(c[2], c[3]))),
            max_size=6,
        ))
        n = data.draw(st.integers(1, 600))
        columns = {}
        for layout in layouts:
            edges = layout.edges
            candidates = np.concatenate([
                edges, (edges[:-1] + edges[1:]) / 2,
                [edges[0] - 1.0, np.nextafter(edges[0], -np.inf),
                 np.nextafter(edges[-1], np.inf), edges[-1] + 1.0],
            ])
            columns[layout.attribute] = rng.choice(candidates, n)
        labels = ("A", "B")
        columns["group"] = [labels[i] for i in rng.integers(0, 2, n)]
        table = Table.from_columns(
            [quantitative("age"), quantitative("salary"),
             categorical("group", labels)], columns,
        )
        verifier = Verifier(table, "group", "A",
                            sample_size=data.draw(st.integers(1, 300)),
                            repeats=data.draw(st.integers(1, 5)),
                            seed=data.draw(st.integers(0, 2**32 - 1)))
        self.assert_reports_equal(verifier, (x_layout, y_layout, rects))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 400),
           st.integers(0, 2**32 - 1),
           grid_segmentations())
    def test_report_floats_for_1_to_16_repeats(self, repeats, sample_size,
                                                seed, grid):
        """The plain-Python report equals NumPy's aggregates whether
        NumPy sums the repeats one by one (fewer than 8) or pairwise
        (8 and more)."""
        verifier = Verifier(verification_table(1500, 12), "group", "A",
                            sample_size=sample_size, repeats=repeats,
                            seed=seed)
        self.assert_reports_equal(verifier, grid)


class TestNumpySumOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), max_size=300))
    def test_matches_numpy_sum(self, values):
        """Sequential below 8 values, 8 interleaved partial sums up to
        128, and split in halves beyond."""
        assert _numpy_sum(values) == float(
            np.sum(np.array(values, dtype=np.float64))
        )


class TestSmoothingEquivalence:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_binary_grid_bit_identical(self, radius):
        """On 0/1 grids every window sum is an exact integer, so the
        separable sums match shift-and-add bit for bit."""
        rng = np.random.default_rng(6)
        grid = (rng.random((23, 31)) < 0.4).astype(np.float64)
        fast = neighbourhood_mean(grid, radius=radius)
        slow = reference.neighbourhood_mean_scalar(grid, radius=radius)
        assert np.array_equal(fast, slow)

    def test_float_grid_matches_to_rounding(self):
        rng = np.random.default_rng(7)
        grid = rng.random((40, 17))
        fast = neighbourhood_mean(grid, radius=2)
        slow = reference.neighbourhood_mean_scalar(grid, radius=2)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_radius_larger_than_grid(self):
        grid = np.eye(3)
        fast = neighbourhood_mean(grid, radius=10)
        slow = reference.neighbourhood_mean_scalar(grid, radius=10)
        assert np.array_equal(fast, slow)
        # Every window is the whole grid: the global mean everywhere.
        assert np.allclose(fast, grid.mean())

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 3),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.booleans())
    def test_random_grids_match_the_oracle(self, n_x, n_y, radius, density,
                                           seed, binary):
        """Binary grids sum in integers and match exactly; float grids
        match to rounding, since the separable sums add in another
        order."""
        rng = np.random.default_rng(seed)
        grid = rng.random((n_x, n_y))
        if binary:
            grid = grid < density
        fast = neighbourhood_mean(grid, radius=radius)
        slow = reference.neighbourhood_mean_scalar(grid, radius=radius)
        if binary:
            assert np.array_equal(fast, slow)
        else:
            assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_window_sums_counts_are_window_areas(self):
        sums, counts = window_sums(np.ones((4, 4)), radius=1)
        assert counts[0, 0] == 4.0   # corner
        assert counts[0, 1] == 6.0   # edge
        assert counts[1, 1] == 9.0   # interior
        assert np.array_equal(sums, counts)  # all-ones grid


class TestRowBitmapEquivalence:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (20, 64),
                                       (13, 65), (8, 200)])
    def test_random_grids_identical(self, shape):
        rng = np.random.default_rng(8)
        cells = rng.random(shape) < 0.5
        grid = RuleGrid(cells)
        assert grid.row_bitmaps() == reference.row_bitmaps_scalar(cells)

    def test_empty_and_full_rows(self):
        cells = np.zeros((4, 70), dtype=bool)
        cells[1, :] = True
        cells[3, 69] = True
        grid = RuleGrid(cells)
        rows = grid.row_bitmaps()
        assert rows == reference.row_bitmaps_scalar(cells)
        assert rows[0] == 0
        assert rows[1] == (1 << 70) - 1
        assert rows[3] == 1 << 69

    def test_round_trip(self):
        """Each set bit of a row is one set cell: decoding the rows
        bit by bit gives the grid back."""
        rng = np.random.default_rng(9)
        cells = rng.random((12, 77)) < 0.3
        rows = RuleGrid(cells).row_bitmaps()
        assert rows == reference.row_bitmaps_scalar(cells)
        assert [[row >> j & 1 == 1 for j in range(77)]
                for row in rows] == cells.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 130), st.floats(0.0, 1.0),
           st.integers(0, 2**32 - 1))
    def test_any_width(self, n_x, n_y, density, seed):
        """Rows of one, two and three 64-bit words, with the padding of
        the last word left clear."""
        cells = np.random.default_rng(seed).random((n_x, n_y)) < density
        assert RuleGrid(cells).row_bitmaps() == (
            reference.row_bitmaps_scalar(cells)
        )


class TestDriftEquivalence:
    """The /stats acceptance bar: vectorised PSI/JS vs scalar oracles,
    exact equality (``==``), not approx."""

    @pytest.mark.parametrize("n_bins", [1, 4, 50, 500, 2500])
    def test_psi_bit_identical(self, n_bins):
        from repro.obs.drift import psi

        rng = np.random.default_rng(53)
        expected = rng.integers(0, 1000, n_bins)
        observed = rng.integers(0, 1000, n_bins)
        expected[0] = observed[-1] = 1  # never all-zero
        assert psi(expected, observed) == reference.psi_scalar(
            expected, observed
        )

    @pytest.mark.parametrize("n_bins", [1, 4, 50, 500, 2500])
    def test_js_bit_identical(self, n_bins):
        from repro.obs.drift import js_divergence

        rng = np.random.default_rng(59)
        expected = rng.integers(0, 1000, n_bins)
        observed = rng.integers(0, 1000, n_bins)
        expected[0] = observed[-1] = 1
        assert js_divergence(expected, observed) == \
            reference.js_divergence_scalar(expected, observed)

    def test_sparse_grids_with_empty_bins_identical(self):
        from repro.obs.drift import js_divergence, psi

        rng = np.random.default_rng(61)
        # 2-D joint grids, mostly empty — the clip/zero-term paths.
        expected = rng.integers(0, 5, (30, 40))
        observed = np.where(rng.random((30, 40)) < 0.9, 0,
                            rng.integers(1, 50, (30, 40)))
        expected[0, 0] = observed[0, 0] = 1
        assert psi(expected, observed) == reference.psi_scalar(
            expected, observed
        )
        assert js_divergence(expected, observed) == \
            reference.js_divergence_scalar(expected, observed)

    def test_oracles_enforce_the_same_contract(self):
        from repro.obs.drift import js_divergence, psi

        for fast, slow in ((psi, reference.psi_scalar),
                           (js_divergence,
                            reference.js_divergence_scalar)):
            for bad in (([], [1]), ([1, -2], [1, 1]),
                        ([0, 0], [1, 1]), ([1, 1, 1], [1, 1])):
                with pytest.raises(ValueError):
                    fast(*bad)
                with pytest.raises(ValueError):
                    slow(*bad)


class TestScorerEquivalence:
    def _segmentation(self, rng, n_rules=12):
        from repro.core.rules import ClusteredRule, GridRect, Interval
        from repro.core.segmentation import Segmentation

        rules = []
        for index in range(n_rules):
            x_lo, y_lo = rng.uniform(0, 80, 2)
            rules.append(ClusteredRule(
                "age", "salary",
                Interval(x_lo, x_lo + rng.uniform(1, 20),
                         closed_high=bool(index % 2)),
                Interval(y_lo, y_lo + rng.uniform(1, 20),
                         closed_high=bool(index % 3 == 0)),
                "group", "A", support=0.1, confidence=0.9,
            ))
        return Segmentation.from_rules(rules)

    def test_random_batches_identical(self):
        from repro.serve.scorer import compile_scorer

        rng = np.random.default_rng(41)
        segmentation = self._segmentation(rng)
        xs = rng.uniform(-10, 110, 3000)
        ys = rng.uniform(-10, 110, 3000)
        assert np.array_equal(
            compile_scorer(segmentation).score_batch(xs, ys),
            reference.score_batch_scalar(segmentation, xs, ys),
        )

    def test_boundary_values_identical(self):
        from repro.serve.scorer import compile_scorer

        rng = np.random.default_rng(43)
        segmentation = self._segmentation(rng, n_rules=8)
        # Query exactly on every interval endpoint, in both axes, and
        # at -inf and +inf beyond them.
        bounds = np.array(sorted({
            float(bound)
            for rule in segmentation.rules
            for interval in (rule.x_interval, rule.y_interval)
            for bound in (interval.low, interval.high)
        } | {-np.inf, np.inf}))
        xs, ys = map(np.ravel, np.meshgrid(bounds, bounds))
        assert np.array_equal(
            compile_scorer(segmentation).score_batch(xs, ys),
            reference.score_batch_scalar(segmentation, xs, ys),
        )

    def test_empty_batch_identical(self):
        from repro.serve.scorer import compile_scorer

        rng = np.random.default_rng(47)
        segmentation = self._segmentation(rng, n_rules=3)
        empty = np.array([], dtype=np.float64)
        assert np.array_equal(
            compile_scorer(segmentation).score_batch(empty, empty),
            reference.score_batch_scalar(segmentation, empty, empty),
        )


# ----------------------------------------------------------------------
# Mining: rule_grid compares rule measures divided once per BinArray, and
# must equal the per-call division of ``reference.qualifying_cells``.
# RuleGrid.set_pairs lists the cells in bulk and RuleGrid.from_pairs sets
# them with one fancy-index assignment: the list must equal the per-cell
# comprehension element for element, int types included, and the grid
# must equal the per-cell loop.
# ----------------------------------------------------------------------
@st.composite
def bin_arrays(draw, max_bins=12, max_tuples=400):
    """BinArrays of any shape with empty cells and three RHS values."""
    n_x = draw(st.integers(1, max_bins))
    n_y = draw(st.integers(1, max_bins))
    n_tuples = draw(st.integers(0, max_tuples))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = BinArray(
        equi_width_layout("x", 0.0, float(n_x), n_x),
        equi_width_layout("y", 0.0, float(n_y), n_y),
        CategoricalEncoding("group", ("A", "B", "other")),
    )
    # Skewed bins leave some cells empty and pile tuples into others.
    array.add_chunk(
        np.minimum(rng.geometric(0.3, n_tuples) - 1, n_x - 1),
        rng.integers(0, n_y, n_tuples),
        rng.integers(0, 3, n_tuples),
    )
    return array


def grid_from_pairs_scalar(pairs, n_x, n_y):
    cells = np.zeros((n_x, n_y), dtype=bool)
    for i, j in pairs:
        cells[i, j] = True
    return cells


class TestRulePairsEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(bin_arrays(), st.integers(0, 2),
           st.one_of(st.just(0.0), st.floats(0.0, 0.05),
                     st.floats(0.0, 1.0)),
           st.floats(0.0, 1.0))
    def test_random_bin_arrays(self, array, rhs_code, min_support,
                               min_confidence):
        fast = rule_grid(rule_measures(array, rhs_code), min_support,
                         min_confidence).set_pairs()
        slow = reference.rule_pairs_scalar(
            array, rhs_code, min_support, min_confidence
        )
        assert fast == slow
        assert all(type(i) is int and type(j) is int for i, j in fast)
        assert all(type(pair) is tuple for pair in fast)
        grid = RuleGrid.from_pairs(fast, array.n_x, array.n_y)
        assert np.array_equal(
            grid.cells, grid_from_pairs_scalar(slow, array.n_x, array.n_y)
        )

    @settings(max_examples=150, deadline=None)
    @given(bin_arrays(), st.integers(0, 2),
           st.one_of(st.just(0.0), st.floats(0.0, 0.05),
                     st.floats(0.0, 1.0)),
           st.floats(0.0, 1.0))
    def test_rule_grid_is_the_scalar_pairs_grid(self, array, rhs_code,
                                                min_support,
                                                min_confidence):
        """The grid the clusterer consumes is the grid of the per-cell
        pair list, without building the list."""
        grid = rule_grid(rule_measures(array, rhs_code), min_support,
                         min_confidence)
        assert np.array_equal(grid.cells, reference.qualifying_cells(
            array, rhs_code, min_support, min_confidence
        ))
        expected = RuleGrid.from_pairs(
            reference.rule_pairs_scalar(
                array, rhs_code, min_support, min_confidence
            ),
            array.n_x, array.n_y,
        )
        assert grid.cells.dtype == bool
        assert np.array_equal(grid.cells, expected.cells)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                    max_size=200))
    def test_from_pairs_matches_per_cell_loop(self, n_x, n_y, pairs):
        """Duplicated and unordered pairs, which the engine never emits."""
        pairs = [(i, j) for i, j in pairs if i < n_x and j < n_y]
        grid = RuleGrid.from_pairs(pairs, n_x, n_y)
        assert np.array_equal(
            grid.cells, grid_from_pairs_scalar(pairs, n_x, n_y)
        )

    @pytest.mark.parametrize("n_tuples, outliers", [
        (8_000, 0.10), (400_000, 0.0),
    ], ids=["fit-fragmented", "fit-dense"])
    def test_every_lattice_point_of_the_e2e_shapes(self, n_tuples,
                                                   outliers):
        """A search's rule grids, compared with rule measures divided
        once, equal the per-call division at every occurring threshold
        pair, the support levels ``c / N`` included."""
        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=n_tuples, function_id=2, perturbation=0.05,
            outlier_fraction=outliers, seed=0,
        ))
        binner = bin_table(table, "age", "salary", "group", 32, 32)
        code = binner.rhs_encoding.code_of("A")
        measures = rule_measures(binner.bin_array, code)
        lattice = ThresholdLattice(binner.bin_array, code)
        points = 0
        for count in lattice.support_counts:
            support = count / lattice.n_total
            for confidence in lattice.confidences_at(count):
                assert np.array_equal(
                    rule_grid(measures, support, confidence).cells,
                    reference.qualifying_cells(binner.bin_array, code,
                                               support, confidence),
                )
                points += 1
        assert points > 100

    def test_function2_bin_array(self):
        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=8_000, function_id=2, perturbation=0.05,
            outlier_fraction=0.10, seed=3,
        ))
        binner = bin_table(table, "age", "salary", "group", 32, 32)
        code = binner.rhs_encoding.code_of("A")
        measures = rule_measures(binner.bin_array, code)
        for min_support in (0.0, 0.0002, 0.001):
            for min_confidence in (0.0, 0.5, 0.9):
                assert rule_grid(
                    measures, min_support, min_confidence
                ).set_pairs() == reference.rule_pairs_scalar(
                    binner.bin_array, code, min_support, min_confidence
                )


# ----------------------------------------------------------------------
# Hull merge and BitOp cover: the fast paths are cubic-free rewrites of
# the scalar loops, so they are held to ``==`` on whole output lists,
# order included.  The oracles are cubic; keep their grids small.
# ----------------------------------------------------------------------
COVER_FRACTIONS = (0.5, 0.75, 0.8, 1.0)


@st.composite
def rule_grids(draw, max_side=20):
    """Grids of 1..max_side cells per axis at any set-cell density."""
    n_x = draw(st.integers(1, max_side))
    n_y = draw(st.integers(1, max_side))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return RuleGrid(rng.random((n_x, n_y)) < density)


@st.composite
def wide_rule_grids(draw, max_rows):
    """Grids of 1..max_rows rows of 65..130 cells: BitOp's row masks run
    past one 64-bit word.  Keep max_rows small; the merge oracle is
    cubic in the number of cover rectangles."""
    n_x = draw(st.integers(1, max_rows))
    n_y = draw(st.integers(65, 130))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return RuleGrid(rng.random((n_x, n_y)) < density)


def checkerboard(side):
    x, y = np.indices((side, side))
    return RuleGrid((x + y) % 2 == 0)


def salt_and_pepper(side, seed=17):
    return RuleGrid(np.random.default_rng(seed).random((side, side)) < 0.5)


@pytest.fixture(scope="module")
def function2_grids():
    """Smoothed Function 2 grids of the kind E1 (50k tuples, 50x50 bins,
    with and without 10% outliers) and E9 (8k tuples, 30x30 bins) cover
    and merge."""
    grids = []
    for n_tuples, outliers, seed, bins, thresholds in (
        (50_000, 0.0, 42, 50, ((0.0001, 0.5), (0.0001, 0.7))),
        (50_000, 0.10, 43, 50, ((0.0004, 0.5), (0.0004, 0.7))),
        (8_000, 0.05, 31, 30, ((0.0004, 0.5), (0.001, 0.5))),
    ):
        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=n_tuples, function_id=2, perturbation=0.05,
            outlier_fraction=outliers, seed=seed,
        ))
        binner = bin_table(table, "age", "salary", "group", bins, bins)
        code = binner.rhs_encoding.code_of("A")
        for min_support, min_confidence in thresholds:
            pairs = rule_grid(rule_measures(binner.bin_array, code),
                              min_support, min_confidence).set_pairs()
            raw = RuleGrid.from_pairs(pairs, bins, bins)
            grids.append(smooth_binary(raw))
    assert all(grid.n_set for grid in grids)
    return grids


class TestMergeEquivalence:
    def assert_merges_equal(self, clusters, grid, cover_fraction):
        fast = merge_clusters(clusters, grid, cover_fraction)
        slow = reference.merge_clusters_scalar(
            clusters, grid, cover_fraction
        )
        assert fast == slow
        # Hulls are never re-trimmed: merging trimmed rectangles must
        # keep them trimmed.
        for rect in fast:
            assert _trim_to_content(grid, rect) == rect

    @settings(max_examples=60, deadline=None)
    @given(rule_grids(), st.sampled_from(COVER_FRACTIONS))
    def test_random_grid_covers(self, grid, cover_fraction):
        clusters = reference.bitop_cover_scalar(grid)
        self.assert_merges_equal(clusters, grid, cover_fraction)

    @settings(max_examples=20, deadline=None)
    @given(wide_rule_grids(max_rows=2), st.sampled_from(COVER_FRACTIONS))
    def test_wide_grid_covers(self, grid, cover_fraction):
        clusters = reference.bitop_cover_scalar(grid)
        self.assert_merges_equal(clusters, grid, cover_fraction)

    @settings(max_examples=60, deadline=None)
    @given(rule_grids(max_side=12), st.sampled_from(COVER_FRACTIONS),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.integers(0, 11), st.integers(0, 11)),
                    max_size=12))
    def test_arbitrary_rectangle_lists(self, grid, cover_fraction,
                                       corners):
        """Overlapping, duplicated and empty-underneath rectangles, in
        any order."""
        clusters = [
            GridRect(min(a, b), max(a, b), min(c, d), max(c, d))
            for a, b, c, d in corners
            if max(a, b) < grid.n_x and max(c, d) < grid.n_y
        ]
        self.assert_merges_equal(clusters, grid, cover_fraction)

    @pytest.mark.parametrize("cover_fraction", COVER_FRACTIONS)
    def test_function2_grids(self, function2_grids, cover_fraction):
        for grid in function2_grids:
            clusters = BitOpClusterer().cluster(grid)
            self.assert_merges_equal(clusters, grid, cover_fraction)

    @pytest.mark.parametrize("cover_fraction", COVER_FRACTIONS)
    @pytest.mark.parametrize("grid", [checkerboard(16), salt_and_pepper(16)],
                             ids=["checkerboard", "salt_and_pepper"])
    def test_fragmented_grids(self, grid, cover_fraction):
        clusters = BitOpClusterer().cluster(grid)
        self.assert_merges_equal(clusters, grid, cover_fraction)

    def test_fragmented_merge_cost_is_bounded(self):
        """A 32x32 checkerboard covers with 512 single cells, and at
        cover_fraction 0.5 nearly every pair is admissible: the cubic
        rescan takes minutes here, the heap merge about a second."""
        grid = checkerboard(32)
        clusters = BitOpClusterer().cluster(grid)
        assert len(clusters) == 512
        start = time.perf_counter()
        merged = merge_clusters(clusters, grid, cover_fraction=0.5)
        assert time.perf_counter() - start < 15.0
        assert merged

    @pytest.mark.parametrize("cover_fraction, bound_mib", [
        # Nearly every pair is admissible: the heap is the peak.  With
        # the heap compacted once it holds over n(n-1) entries for n
        # live clusters, it peaks at 23.2 MiB on 64-bit CPython 3.11
        # (38.6 MiB with no compaction); the bound is 10% over the
        # 26.4 MiB it peaked at when the first pairs were scored in
        # numpy.
        (0.5, 1.1 * 26.4),
        # No pair is admissible, so the heap stays empty and the peak
        # is the grid's summed-area table and the live clusters, ~0.1
        # MiB.
        (0.8, 4.0),
    ], ids=["heap", "setup"])
    def test_fragmented_merge_memory_is_bounded(self, cover_fraction,
                                                bound_mib):
        grid = checkerboard(32)
        clusters = BitOpClusterer().cluster(grid)
        tracemalloc.start()
        try:
            merge_clusters(clusters, grid, cover_fraction)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize("n_tuples, outliers", [
        (8_000, 0.10), (400_000, 0.0),
    ], ids=["fit-fragmented", "fit-dense"])
    def test_fit_trial_grids(self, monkeypatch, n_tuples, outliers):
        """Every merge of a fit shaped like an e2e fit workload: 8k
        tuples at 10% outliers (fragmented trial grids) or 400k at none
        (dense ones), 32x32 bins, the whole 6x10 threshold lattice.
        Each trial merges its smoothed grid's BitOp cover."""
        calls = []

        def recording_merge(clusters, grid, cover_fraction):
            calls.append((list(clusters), grid.copy(), cover_fraction))
            return merge_clusters(clusters, grid, cover_fraction)

        monkeypatch.setattr(clusterer, "merge_clusters", recording_merge)
        # Every trial in this process, where the recording patch is.
        monkeypatch.setattr(search_helper, "_force", False)
        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=n_tuples, function_id=2, perturbation=0.05,
            outlier_fraction=outliers, seed=0,
        ))
        result = ARCS(ARCSConfig(**E2E_FIT_CONFIG)).fit(
            table, "age", "salary", "group", "A"
        )
        assert len(calls) == len(result.history) > 0
        for clusters, grid, cover_fraction in calls:
            self.assert_merges_equal(clusters, grid, cover_fraction)


class TestBitOpCoverEquivalence:
    def assert_covers_equal(self, grid, min_cells=1):
        fast = BitOpClusterer(min_cells=min_cells).cluster(grid)
        slow = reference.bitop_cover_scalar(grid, min_cells)
        assert fast == slow

    @settings(max_examples=200, deadline=None)
    @given(rule_grids(), st.sampled_from((1, 3)))
    def test_random_grids(self, grid, min_cells):
        self.assert_covers_equal(grid, min_cells)

    @settings(max_examples=60, deadline=None)
    @given(wide_rule_grids(max_rows=8), st.sampled_from((1, 3)))
    def test_wide_grids(self, grid, min_cells):
        self.assert_covers_equal(grid, min_cells)

    @pytest.mark.parametrize("min_cells", (1, 3))
    def test_function2_grids(self, function2_grids, min_cells):
        for grid in function2_grids:
            self.assert_covers_equal(grid, min_cells)

    @pytest.mark.parametrize("min_cells", (1, 3))
    @pytest.mark.parametrize("grid", [checkerboard(16), salt_and_pepper(16)],
                             ids=["checkerboard", "salt_and_pepper"])
    def test_fragmented_grids(self, grid, min_cells):
        self.assert_covers_equal(grid, min_cells)


# ----------------------------------------------------------------------
# Binary smoothing counts in integers: ``sums / counts`` of the exact
# integer window sums must threshold exactly like the float mean of the
# shift-and-add oracle, on the k/4 (corner), k/6 (edge) and k/9
# (interior) window boundaries included.
# ----------------------------------------------------------------------
BOUNDARY_THRESHOLDS = sorted({
    k / size for size in (4, 6, 9) for k in range(1, size + 1)
})
#: Every ``k / area`` of the windows of radius 1-3 (areas up to 7 x 7).
WINDOW_THRESHOLDS = sorted({
    k / (height * width) for height in range(1, 8)
    for width in range(1, 8) for k in range(1, height * width + 1)
})


def flipped_cells_counted(grid, **options):
    """``smooth_binary(grid, **options)`` and the ``cells_flipped`` it
    counted."""
    registry = metrics.MetricsRegistry()
    previous = metrics.swap_registry(registry)
    try:
        smoothed = smooth_binary(grid, **options)
    finally:
        metrics.swap_registry(previous)
    return smoothed, registry.counter("smoothing.cells_flipped").value


class TestSmoothBinaryEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(rule_grids(), st.integers(0, 3),
           st.sampled_from(BOUNDARY_THRESHOLDS), st.sampled_from((1, 2)))
    def test_matches_thresholded_float_mean(self, grid, passes, threshold,
                                            radius):
        expected = grid.cells.astype(np.float64)
        for _ in range(passes):
            mean = reference.neighbourhood_mean_scalar(expected, radius)
            expected = (mean >= threshold).astype(np.float64)
        smoothed = smooth_binary(grid, threshold=threshold, passes=passes,
                                 radius=radius)
        assert np.array_equal(smoothed.cells, expected.astype(bool))

    @settings(max_examples=200, deadline=None)
    @given(rule_grids(max_side=40),
           st.one_of(st.sampled_from(WINDOW_THRESHOLDS),
                     st.floats(0.0, 1.0, exclude_min=True)),
           st.integers(0, 3), st.integers(1, 3))
    def test_any_side_threshold_and_radius(self, grid, threshold, passes,
                                           radius):
        """The integer activation test equals the float mean's ``>=
        threshold`` pass after pass, and the flip counter counts the
        cells that changed."""
        expected = grid.cells
        for _ in range(passes):
            mean = reference.neighbourhood_mean_scalar(expected, radius)
            expected = mean >= threshold
        smoothed, flipped = flipped_cells_counted(
            grid, threshold=threshold, passes=passes, radius=radius
        )
        assert np.array_equal(smoothed.cells, expected)
        assert flipped == np.count_nonzero(expected != grid.cells)

    def test_zero_passes_returns_a_copy(self):
        grid = checkerboard(5)
        smoothed = smooth_binary(grid, passes=0)
        assert np.array_equal(smoothed.cells, grid.cells)
        smoothed.cells[0, 0] = not smoothed.cells[0, 0]
        assert grid.cells[0, 0]


# ----------------------------------------------------------------------
# BitOp's chains: each start row's emissions are built from the row
# below, and a clear rebuilds one contiguous block of them.  Every chain
# must equal the per-row scan, before and after any clears.
# ----------------------------------------------------------------------
@st.composite
def chain_grids(draw, max_rows=12, max_cols=130):
    """Grids up to two 64-bit words wide, with rows forced empty or
    full."""
    n_x = draw(st.integers(1, max_rows))
    n_y = draw(st.integers(1, max_cols))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((n_x, n_y)) < density
    cells[draw(st.lists(st.integers(0, n_x - 1), max_size=3))] = False
    cells[draw(st.lists(st.integers(0, n_x - 1), max_size=3))] = True
    return RuleGrid(cells)


def scalar_candidates(rows, start):
    """Start row ``start``'s candidates from the per-row scan, keyed
    as the cover keys them."""
    emissions, _ = reference.scan_start_row_scalar(rows, start)
    return [
        (-length * height, start, start + height - 1, first_bit,
         first_bit + length - 1)
        for mask, height in emissions
        for first_bit, length in reference.runs_of_set_bits(mask)
    ]


class TestStartRowChainsEquivalence:
    def assert_chains_match(self, scans):
        for start in range(len(scans.rows)):
            assert (scans.chains[start], scans.reach[start]) == (
                reference.scan_start_row_scalar(scans.rows, start)
            )
            assert scans.best[start] == min(
                scalar_candidates(scans.rows, start), default=None
            )

    @settings(max_examples=200, deadline=None)
    @given(chain_grids(),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.integers(0, 129), st.integers(0, 129)),
                    max_size=8))
    def test_chains_before_and_after_clears(self, grid, corners):
        rows = grid.row_bitmaps()
        scans = StartRowChains(rows)
        self.assert_chains_match(scans)
        enumerated = sum(
            len(scalar_candidates(rows, start)) for start in range(len(rows))
        )
        assert scans.enumerated == enumerated
        cells = grid.cells.copy()
        for a, b, c, d in corners:
            if max(a, b) >= grid.n_x or max(c, d) >= grid.n_y:
                continue
            rect = GridRect(min(a, b), max(a, b), min(c, d), max(c, d))
            reach = list(scans.reach)
            rebuilt = scans.clear(rect)
            # Exactly the start rows whose scan read a cleared row, so
            # the enumeration count matches a rescan of each of them.
            assert list(rebuilt) == [
                start for start in range(rect.x_hi + 1)
                if reach[start] >= rect.x_lo
            ]
            cells[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1] = False
            assert rows == reference.row_bitmaps_scalar(cells)
            self.assert_chains_match(scans)
            enumerated += sum(
                len(scalar_candidates(rows, start)) for start in rebuilt
            )
            assert scans.enumerated == enumerated

    @pytest.mark.parametrize("grid", [
        checkerboard(9), salt_and_pepper(9),
        RuleGrid(np.ones((6, 70), dtype=bool)),
        RuleGrid(np.zeros((4, 3), dtype=bool)),
    ], ids=["checkerboard", "salt_and_pepper", "full_wide", "empty"])
    def test_fixed_grids(self, grid):
        self.assert_chains_match(StartRowChains(grid.row_bitmaps()))


# ----------------------------------------------------------------------
# One whole trial: GridClusterer.cluster against the composed scalar
# stages, on the e2e fit shapes' 32x32 grid at the lattice levels a
# search visits first.
# ----------------------------------------------------------------------
class TestTrialEquivalence:
    @pytest.mark.parametrize("n_tuples, outliers", [
        (40_000, 0.0), (8_000, 0.10),
    ], ids=["dense", "fragmented"])
    def test_low_support_levels(self, n_tuples, outliers):
        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=n_tuples, function_id=2, perturbation=0.05,
            outlier_fraction=outliers, seed=808,
        ))
        binner = bin_table(table, "age", "salary", "group", 32, 32)
        code = binner.rhs_encoding.code_of("A")
        lattice = ThresholdLattice(binner.bin_array, code)
        for count in lattice.support_counts[:2]:
            for confidence in lattice.coarsen_confidences(count, 4)[1:]:
                thresholds = (count / lattice.n_total, confidence)
                fast = clusterer.GridClusterer().cluster(
                    rule_measures(binner.bin_array, code), *thresholds
                )
                slow = reference.cluster_scalar(
                    binner.bin_array, code, *thresholds
                )
                assert np.array_equal(fast.raw_grid.cells,
                                      slow.raw_grid.cells)
                assert np.array_equal(fast.smoothed_grid.cells,
                                      slow.smoothed_grid.cells)
                assert (fast.clusters, fast.pruning, fast.rules) == (
                    slow.clusters, slow.pruning, slow.rules
                )
