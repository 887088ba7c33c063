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
from repro.data.summary import ReferenceProfile
from repro.obs.drift import TrafficWindow
from repro.perf.reference import score_batch_scalar
from repro.serve.monitor import TrafficMonitor
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
        scorer.score_batch(xs, ys) >= 0, segmentation.covers(xs, ys)
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


# ----------------------------------------------------------------------
# One point: CompiledScorer.score and TrafficMonitor.record_point
# ----------------------------------------------------------------------
@st.composite
def float_intervals(draw):
    """Intervals with arbitrary float endpoints, so that ``nextafter``
    neighbours of an edge land in different open cells."""
    low, high = sorted(draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                  allow_subnormal=True),
        min_size=2, max_size=2, unique=True,
    )))
    return Interval(low, high, closed_high=draw(st.booleans()))


@st.composite
def mixed_segmentations(draw, max_rules=6):
    """Rules on the small integer grid (shared edges) or on free floats."""
    interval = st.one_of(intervals(), float_intervals())
    rules = tuple(
        ClusteredRule(
            "x", "y", draw(interval), draw(interval),
            "group", "A", support=0.1, confidence=0.9,
        )
        for _ in range(draw(st.integers(0, max_rules)))
    )
    return Segmentation(rules=rules, x_attribute="x", y_attribute="y",
                        rhs_attribute="group", rhs_value="A")


def edge_probes(edges) -> list[float]:
    """Every edge, both its float neighbours, +-inf, +-0.0 and values
    beyond the range."""
    probes = [-np.inf, np.inf, -0.0, 0.0]
    for edge in edges:
        probes += [edge, np.nextafter(edge, -np.inf),
                   np.nextafter(edge, np.inf)]
    if len(edges):
        probes += [float(edges[0]) - 1.0, float(edges[-1]) + 1.0,
                   -1e300, 1e300]
    return [float(value) for value in probes]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), segmentation=mixed_segmentations())
def test_one_point_score_is_the_batch_and_the_oracle(data, segmentation):
    """``score(x, y) == score_batch([x], [y])[0] == score_batch_scalar``
    on edges, their ``nextafter`` neighbours, +-inf, -0.0 and values out
    of range."""
    scorer = compile_scorer(segmentation)
    xs = edge_probes(scorer.x_edges)
    ys = edge_probes(scorer.y_edges)
    for _ in range(30):
        x = data.draw(st.sampled_from(xs))
        y = data.draw(st.sampled_from(ys))
        one = scorer.score(x, y)
        assert type(one) is int
        batch = scorer.score_batch(np.array([x]), np.array([y]))
        oracle = score_batch_scalar(segmentation, [x], [y])
        assert one == batch[0] == oracle[0], (x, y)


def _window_state(window: TrafficWindow) -> tuple:
    grid = (
        (window.x_counts.tolist(), window.y_counts.tolist(),
         window.totals.tolist())
        if window.has_grid else None
    )
    return (window.opened, window.requests, window.points,
            window.out_of_range_x, window.out_of_range_y,
            window.rule_hits.tolist(), grid)


def _monitor_state(monitor: TrafficMonitor) -> list:
    return [_window_state(window)
            for window in [*monitor._ring, monitor._current]]


class _Clock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _reference(x_edges, y_edges) -> ReferenceProfile:
    n_x, n_y = len(x_edges) - 1, len(y_edges) - 1
    return ReferenceProfile(
        "x", "y", np.asarray(x_edges, dtype=np.float64),
        np.asarray(y_edges, dtype=np.float64),
        np.ones((n_x, n_y), dtype=np.int64), n_x * n_y,
    )


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    edges=st.tuples(
        st.lists(st.floats(-100, 100), min_size=2, max_size=8,
                 unique=True).map(sorted),
        st.lists(st.floats(-100, 100), min_size=2, max_size=8,
                 unique=True).map(sorted),
    ),
    referenced=st.booleans(),
    n_rules=st.integers(0, 5),
)
def test_record_point_leaves_the_state_of_a_one_point_record(
        data, edges, referenced, n_rules):
    """``record_point(x, y, r)`` and ``record([x], [y], [r])`` leave the
    same windows, with and without a reference profile and across
    rotations."""
    x_edges, y_edges = edges
    reference = _reference(x_edges, y_edges) if referenced else None
    clock = _Clock()
    monitors = [
        TrafficMonitor(model_id="m", name="m", x_attribute="x",
                       y_attribute="y", n_rules=n_rules,
                       reference=reference, window_seconds=10.0,
                       window_count=2, clock=clock)
        for _ in range(2)
    ]
    batch, one = monitors
    xs, ys = edge_probes(x_edges), edge_probes(y_edges)
    for _ in range(data.draw(st.integers(1, 25))):
        clock.now += data.draw(st.sampled_from([0.0, 1.0, 10.0, 25.0]))
        x = data.draw(st.sampled_from(xs))
        y = data.draw(st.sampled_from(ys))
        rule = data.draw(st.integers(-1, max(n_rules - 1, -1)))
        batch.record([x], [y], [rule])
        one.record_point(x, y, rule)
        assert _monitor_state(one) == _monitor_state(batch)
    assert one.stats() == batch.stats()
