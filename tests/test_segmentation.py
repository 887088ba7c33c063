"""Unit tests for the Segmentation object."""

import numpy as np
import pytest

from repro.core.rules import ClusteredRule, Interval
from repro.core.segmentation import Segmentation
from repro.serve.scorer import compile_scorer


def make_rule(x_lo, x_hi, y_lo, y_hi, **overrides):
    kwargs = dict(
        x_attribute="age",
        y_attribute="salary",
        x_interval=Interval(x_lo, x_hi),
        y_interval=Interval(y_lo, y_hi),
        rhs_attribute="group",
        rhs_value="A",
        support=0.1,
        confidence=0.9,
    )
    kwargs.update(overrides)
    return ClusteredRule(**kwargs)


@pytest.fixture()
def segmentation():
    return Segmentation.from_rules([
        make_rule(20, 40, 50_000, 100_000),
        make_rule(60, 80, 25_000, 75_000),
    ])


class TestConstruction:
    def test_from_rules_infers_attributes(self, segmentation):
        assert segmentation.x_attribute == "age"
        assert segmentation.rhs_value == "A"
        assert len(segmentation) == 2

    def test_from_rules_rejects_empty(self):
        with pytest.raises(ValueError):
            Segmentation.from_rules([])

    def test_explicit_empty_segmentation(self):
        empty = Segmentation(
            rules=(), x_attribute="age", y_attribute="salary",
            rhs_attribute="group", rhs_value="A",
        )
        assert empty.is_empty
        assert not empty.covers([30.0], [60_000.0])[0]

    def test_rejects_inconsistent_rules(self):
        with pytest.raises(ValueError):
            Segmentation(
                rules=(make_rule(0, 1, 0, 1, x_attribute="height"),),
                x_attribute="age", y_attribute="salary",
                rhs_attribute="group", rhs_value="A",
            )

    def test_rejects_mixed_rhs_values(self):
        with pytest.raises(ValueError):
            Segmentation.from_rules([
                make_rule(0, 1, 0, 1),
                make_rule(2, 3, 2, 3, rhs_value="other"),
            ])


class TestCoverage:
    def test_covers_any_rule(self, segmentation):
        got = segmentation.covers(
            [30, 70, 50, 30], [60_000, 50_000, 60_000, 200_000]
        )
        assert list(got) == [True, True, False, False]

    def test_covers_table(self, segmentation, tiny_table):
        covered = segmentation.covers_table(tiny_table)
        assert covered.dtype == bool
        assert len(covered) == len(tiny_table)

    def test_predict_labels(self, segmentation, tiny_table):
        """The compiled scorer labels a row in the segment exactly where
        the rules cover it."""
        rules = compile_scorer(segmentation).score_batch(
            tiny_table.column("age"), tiny_table.column("salary")
        )
        covered = segmentation.covers_table(tiny_table)
        assert np.array_equal(rules >= 0, covered)

    def test_iteration(self, segmentation):
        assert len(list(segmentation)) == 2


class TestReporting:
    def test_describe_lists_rules(self, segmentation):
        text = segmentation.describe()
        assert text.count("=>") == 2
        assert "group = A" in text

    def test_describe_empty(self):
        empty = Segmentation(
            rules=(), x_attribute="age", y_attribute="salary",
            rhs_attribute="group", rhs_value="A",
        )
        assert "empty segmentation" in empty.describe()
