"""Unit tests for the sampled verifier (paper Section 3.6)."""

import dataclasses

import numpy as np
import pytest

from repro.binning.strategies import BinLayout
from repro.core.rules import ClusteredRule, GridRect, Interval
from repro.core.segmentation import Segmentation
from repro.core.verifier import Verifier
from repro.data.schema import Table, categorical, quantitative
from repro.obs import metrics


def make_table(points, labels):
    specs = [
        quantitative("age", 0, 100),
        quantitative("salary", 0, 100),
        categorical("group", ("A", "other")),
    ]
    ages, salaries = zip(*points)
    return Table.from_columns(specs, {
        "age": list(ages), "salary": list(salaries),
        "group": list(labels),
    })


def segmentation_over(x_lo, x_hi, y_lo, y_hi):
    rule = ClusteredRule(
        "age", "salary", Interval(x_lo, x_hi), Interval(y_lo, y_hi),
        "group", "A", support=0.5, confidence=0.9,
    )
    return Segmentation.from_rules([rule])


def verify_over(verifier, x_lo, x_hi, y_lo, y_hi):
    """``verify_rects`` on the one rectangle ``[x_lo, x_hi) x [y_lo,
    y_hi)``: the first bin of two-bin layouts, the segmentation
    :func:`segmentation_over` builds."""
    x_layout = BinLayout("age", [x_lo, x_hi, x_hi + 1.0])
    y_layout = BinLayout("salary", [y_lo, y_hi, y_hi + 1.0])
    return verifier.verify_rects(x_layout, y_layout, [GridRect(0, 0, 0, 0)])


class TestExactErrorRate:
    def test_perfect_segmentation(self):
        table = make_table(
            [(10, 10), (10, 20), (90, 90)], ["A", "A", "other"]
        )
        seg = segmentation_over(0, 50, 0, 50)
        verifier = Verifier(table, "group", "A")
        assert verifier.exact_error_rate(seg) == 0.0

    def test_false_positive_counted(self):
        table = make_table([(10, 10), (20, 20)], ["A", "other"])
        seg = segmentation_over(0, 50, 0, 50)  # covers both
        verifier = Verifier(table, "group", "A")
        assert verifier.exact_error_rate(seg) == pytest.approx(0.5)

    def test_false_negative_counted(self):
        table = make_table([(10, 10), (90, 90)], ["A", "A"])
        seg = segmentation_over(0, 50, 0, 50)  # misses the second
        verifier = Verifier(table, "group", "A")
        assert verifier.exact_error_rate(seg) == pytest.approx(0.5)

    def test_empty_segmentation_errs_on_all_targets(self):
        table = make_table(
            [(10, 10), (20, 20), (30, 30), (40, 40)],
            ["A", "A", "other", "other"],
        )
        empty = Segmentation(
            rules=(), x_attribute="age", y_attribute="salary",
            rhs_attribute="group", rhs_value="A",
        )
        verifier = Verifier(table, "group", "A")
        assert verifier.exact_error_rate(empty) == pytest.approx(0.5)


class TestSampledVerification:
    def test_full_sample_matches_exact(self):
        table = make_table(
            [(10, 10), (20, 20), (90, 90), (80, 80)],
            ["A", "other", "A", "other"],
        )
        seg = segmentation_over(0, 50, 0, 50)
        verifier = Verifier(table, "group", "A", sample_size=4, repeats=3)
        report = verify_over(verifier, 0, 50, 0, 50)
        assert report.error_rate == pytest.approx(
            verifier.exact_error_rate(seg)
        )
        assert report.error_rate_stderr == 0.0  # every sample identical

    def test_report_counts_split_fp_fn(self):
        table = make_table(
            [(10, 10), (20, 20), (90, 90)], ["A", "other", "A"]
        )
        verifier = Verifier(table, "group", "A", sample_size=3, repeats=2)
        report = verify_over(verifier, 0, 50, 0, 50)
        assert report.mean_false_positives == 1.0
        assert report.mean_false_negatives == 1.0
        assert report.mean_errors == 2.0

    def test_sample_size_clamped_to_table(self):
        table = make_table([(10, 10)], ["A"])
        verifier = Verifier(table, "group", "A", sample_size=1000)
        assert verifier.sample_size == 1

    def test_deterministic_for_fixed_seed(self, f2_table):
        bounds = (20, 40, 50_000, 100_000)
        a = verify_over(Verifier(f2_table, "group", "A", sample_size=500,
                                 repeats=3, seed=5), *bounds)
        b = verify_over(Verifier(f2_table, "group", "A", sample_size=500,
                                 repeats=3, seed=5), *bounds)
        assert a == b  # frozen dataclass: field-wise equality

    def test_same_report_for_fixed_seed(self):
        """The sample is drawn once per verifier and is a pure function of
        the seed: verifying again, or on a fresh verifier with the same
        seed, gives the same report."""
        rng = np.random.default_rng(11)
        points = rng.uniform(0, 100, (600, 2))
        labels = np.where(
            (points[:, 0] < 50) & (points[:, 1] < 50), "A", "other"
        ).tolist()
        table = make_table(points.tolist(), labels)
        verifier = Verifier(table, "group", "A", sample_size=200,
                            repeats=6, seed=13)
        first = verify_over(verifier, 0, 50, 0, 50)
        assert verify_over(verifier, 0, 50, 0, 50) == first
        fresh = verify_over(Verifier(table, "group", "A", sample_size=200,
                                     repeats=6, seed=13), 0, 50, 0, 50)
        assert fresh == first  # frozen dataclass: field-wise equality

    def test_estimate_tracks_exact_rate(self, f2_table):
        """Repeated k-of-n sampling approximates the full-table rate."""
        seg = segmentation_over(20, 40, 50_000, 100_000)
        verifier = Verifier(f2_table, "group", "A", sample_size=2000,
                            repeats=10, seed=1)
        report = verify_over(verifier, 20, 40, 50_000, 100_000)
        exact = verifier.exact_error_rate(seg)
        assert abs(report.error_rate - exact) < 0.02

    def test_more_repeats_reduce_stderr(self, f2_table):
        bounds = (20, 40, 50_000, 100_000)
        few = verify_over(Verifier(f2_table, "group", "A", sample_size=500,
                                   repeats=3, seed=2), *bounds)
        many = verify_over(Verifier(f2_table, "group", "A",
                                    sample_size=500, repeats=30, seed=2),
                           *bounds)
        assert many.error_rate_stderr <= few.error_rate_stderr + 0.01

    def test_rejects_bad_parameters(self, f2_table):
        with pytest.raises(ValueError):
            Verifier(f2_table, "group", "A", sample_size=0)
        with pytest.raises(ValueError):
            Verifier(f2_table, "group", "A", repeats=0)


class TestSamplingCounters:
    def test_verify_counts_samples(self, f2_table):
        registry = metrics.MetricsRegistry()
        metrics.enable(registry)
        try:
            verify_over(Verifier(f2_table, "group", "A", sample_size=200,
                                 repeats=6, seed=13), 0, 50, 0, 50)
        finally:
            metrics.disable()
        counters = registry.snapshot()["counters"]
        assert counters["verifier.samples_drawn"] == 6
        assert counters["verifier.tuples_sampled"] == 6 * 200

    def test_verify_without_metrics_stays_silent(self, f2_table):
        assert metrics.active() is None
        report = verify_over(Verifier(f2_table, "group", "A",
                                      sample_size=50, repeats=4, seed=2),
                             0, 50, 0, 50)
        assert report.repeats == 4
        assert metrics.active() is None


class TestConstruction:
    def test_rejects_empty_table(self):
        specs = [
            quantitative("age", 0, 100),
            quantitative("salary", 0, 100),
            categorical("group", ("A", "other")),
        ]
        empty = Table.from_columns(
            specs, {"age": [], "salary": [], "group": []}
        )
        with pytest.raises(ValueError, match="empty table"):
            Verifier(empty, "group", "A")

    def test_fields_are_frozen(self):
        verifier = Verifier(
            make_table([(10, 10), (90, 90)], ["A", "other"]), "group", "A"
        )
        for name, value in (("seed", 1), ("repeats", 2),
                            ("sample_size", 1), ("table", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(verifier, name, value)

    def test_cached_samples_stay_out_of_repr_and_eq(self):
        table = make_table([(10, 10), (90, 90)], ["A", "other"])
        verifier = Verifier(table, "group", "A", seed=4)
        verify_over(verifier, 0, 50, 0, 50)
        assert "_indices" not in repr(verifier)
        assert verifier == Verifier(table, "group", "A", seed=4)
