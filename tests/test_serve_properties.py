"""Property-based tests of the compiled scorer against the scalar oracle.

The interesting inputs are the interval *endpoints themselves*: a point
exactly on ``low`` must be inside, a point exactly on ``high`` must be
inside iff ``closed_high``.  Drawing endpoints and query points from the
same small integer grid makes exact-boundary collisions the common case
rather than a measure-zero event.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import ClusteredRule, Interval
from repro.core.segmentation import Segmentation
from repro.perf.reference import score_batch_scalar
from repro.serve.scorer import compile_scorer

GRID = st.integers(min_value=-5, max_value=5)


@st.composite
def intervals(draw):
    low = draw(GRID)
    high = draw(st.integers(min_value=low + 1, max_value=6))
    return Interval(float(low), float(high),
                    closed_high=draw(st.booleans()))


@st.composite
def segmentations(draw, max_rules=6):
    rules = tuple(
        ClusteredRule(
            "x", "y", draw(intervals()), draw(intervals()),
            "group", "A", support=0.1, confidence=0.9,
        )
        for _ in range(draw(st.integers(0, max_rules)))
    )
    return Segmentation(rules=rules, x_attribute="x", y_attribute="y",
                        rhs_attribute="group", rhs_value="A")


@st.composite
def query_points(draw, segmentation, max_points=40):
    """Points biased onto the segmentation's own interval endpoints,
    with +-inf beyond every edge."""
    endpoints = sorted(
        {
            float(bound)
            for rule in segmentation.rules
            for interval in (rule.x_interval, rule.y_interval)
            for bound in (interval.low, interval.high)
        }
    ) or [0.0]
    coordinate = st.one_of(
        st.sampled_from(endpoints),
        st.floats(min_value=-7, max_value=7, allow_nan=False),
        st.sampled_from([-np.inf, np.inf]),
    )
    n = draw(st.integers(1, max_points))
    xs = draw(st.lists(coordinate, min_size=n, max_size=n))
    ys = draw(st.lists(coordinate, min_size=n, max_size=n))
    return np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)


@st.composite
def scoring_cases(draw):
    segmentation = draw(segmentations())
    xs, ys = draw(query_points(segmentation))
    return segmentation, xs, ys


@settings(max_examples=200, deadline=None)
@given(scoring_cases())
def test_score_batch_matches_per_rule_evaluation(case):
    """The compiled table agrees with naive first-matching-rule scoring,
    including points exactly on interval bounds under both closednesses."""
    segmentation, xs, ys = case
    fast = compile_scorer(segmentation).score_batch(xs, ys)
    assert np.array_equal(fast, score_batch_scalar(segmentation, xs, ys))


@settings(max_examples=100, deadline=None)
@given(scoring_cases())
def test_in_segment_matches_segmentation_covers(case):
    segmentation, xs, ys = case
    scorer = compile_scorer(segmentation)
    assert np.array_equal(
        scorer.in_segment(xs, ys), segmentation.covers(xs, ys)
    )


@settings(max_examples=100, deadline=None)
@given(scoring_cases())
def test_scalar_score_agrees_with_batch(case):
    """Single-tuple ``score`` is score_batch restricted to one point."""
    segmentation, xs, ys = case
    scorer = compile_scorer(segmentation)
    batch = scorer.score_batch(xs, ys)
    for x, y, expected in zip(xs, ys, batch):
        assert scorer.score(float(x), float(y)) == expected
