"""Compiling segmentations into O(1)-per-tuple prediction tables.

A fitted :class:`~repro.core.segmentation.Segmentation` is a handful of
axis-aligned value-space rectangles.  Answering "which segment is this
tuple in?" by testing every rule per request is fine for one query but
wasteful for serving: the rectangles never change between queries, so
the rule set can be *compiled* once into a dense lookup table and every
prediction becomes two binary searches per axis plus one table read.

The compilation gives interval closedness exactly the semantics of
:attr:`~repro.core.rules.Interval.closed_high`: every distinct interval
endpoint becomes both a zero-width **boundary position** and a bound of
the **open cells** around it.  For ``m`` distinct x-endpoints there are
``2m + 1`` x-positions::

    position 2k     — the boundary value ``edges[k]`` itself
    position 2k + 1 — the open cell ``(edges[k], edges[k+1])``
    positions 2m-1, 2m — padding for out-of-range values (no rule)

A value's position is ``searchsorted(edges, v, "left") +
searchsorted(edges, v, "right") - 1``: the two sides differ by one
exactly when ``v`` is an edge.  One point (``/predict``, ``/explain``)
takes the same sum from :func:`bisect.bisect_left` and
:func:`bisect.bisect_right` over the edges held as Python lists and
reads the table with ``table.item``, so no array is built for it; a
batch uses ``searchsorted``.  A value below ``edges[0]`` gives
``-1``, which as an index picks the last (padding) position ``2m``.
Within an open cell no interval starts or ends, so whether a rule
covers the cell is decided by edge comparisons alone — no
floating-point midpoints anywhere.  A boundary value belongs to
``[low, high)`` or ``[low, high]`` per the rule's own ``closed_high``.
The compiled table stores, per (x-position, y-position), the index of
the **first matching rule** (segmentation order), or ``-1`` for
"outside every rule" — which is what ``/explain`` reports as the rule
that fired.

The serving registry compiles each model once, when it loads it
(:attr:`~repro.serve.registry.ServedModel.scorer`); a compile takes well
under a millisecond, so nothing caches it.  The scalar twin lives in
:func:`repro.perf.reference.score_batch_scalar` and the two are held
bit-identical by ``tests/test_serve_properties.py`` and the ``scorer``
perf budget.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import isnan
from time import perf_counter

import numpy as np

from repro.core.rules import Interval
from repro.core.segmentation import Segmentation
from repro.obs import metrics

logger = logging.getLogger(__name__)

__all__ = [
    "CompiledScorer",
    "ScoringError",
    "compile_scorer",
]


class ScoringError(ValueError):
    """A batch that cannot be scored (NaN input, mismatched shapes).

    Subclasses :class:`ValueError` so existing callers — the prediction
    service maps it to HTTP 400 — keep working; raising the library
    type is the serving layer's exception policy.
    """


def _endpoint_edges(intervals: list[Interval]) -> np.ndarray:
    """The sorted distinct endpoints of the intervals (may be empty)."""
    points = [iv.low for iv in intervals] + [iv.high for iv in intervals]
    return np.unique(np.asarray(points, dtype=np.float64))


def _position_cover(edges: np.ndarray,
                    intervals: list[Interval]) -> np.ndarray:
    """``(n_rules, 2m+1)`` booleans: rule r covers position p.

    Endpoints are drawn from the intervals themselves, so the
    ``searchsorted`` lookups below hit exact floats — cell coverage is
    decided purely by edge comparisons.
    """
    m = len(edges)
    cover = np.zeros((len(intervals), 2 * m + 1), dtype=bool)
    for r, interval in enumerate(intervals):
        lo = int(np.searchsorted(edges, interval.low))
        hi = int(np.searchsorted(edges, interval.high))
        # Boundary values edges[lo..hi-1] satisfy low <= v < high; the
        # high endpoint itself belongs only to a closed interval.
        cover[r, 2 * lo:2 * hi:2] = True
        if interval.closed_high:
            cover[r, 2 * hi] = True
        # Open cells (edges[k], edges[k+1]) for k in lo..hi-1 lie
        # strictly inside [low, high) regardless of closedness.
        cover[r, 2 * lo + 1:2 * hi:2] = True
    return cover


def _nan_message(attribute: str) -> str:
    return (f"column {attribute!r} contains NaN; clean the data "
            "before scoring")


def _positions(edges: np.ndarray, values: np.ndarray,
               attribute: str) -> np.ndarray:
    """Map values to position indices (see the module docstring).

    The left and right ``searchsorted`` agree between edges and differ
    by one on an edge, so their sum minus one is ``2k`` on ``edges[k]``
    and ``2k + 1`` inside ``(edges[k], edges[k+1])``.  Below the first
    edge it is ``-1``, the last (padding) position; with no edges it is
    ``-1`` on a 1x1 table.  NaN is rejected, as
    :meth:`BinLayout.assign` rejects it: it would otherwise land
    silently in a padding slot.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ScoringError(_nan_message(attribute))
    return (np.searchsorted(edges, values, "left")
            + np.searchsorted(edges, values, "right") - 1)


@dataclass(frozen=True, eq=False)  # eq=False: arrays compare by identity
class CompiledScorer:
    """An immutable, thread-safe prediction table for one segmentation.

    Built by :func:`compile_scorer`; every array is read-only after
    construction, so one instance can serve concurrent requests.
    """

    segmentation: Segmentation
    x_edges: np.ndarray
    y_edges: np.ndarray
    table: np.ndarray  # (2m+1, 2n+1) int32 of first-rule indices, -1 none
    # The edges as Python floats, for the one-point path.
    x_edge_list: list[float] = field(init=False, repr=False)
    y_edge_list: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x_edge_list", self.x_edges.tolist())
        object.__setattr__(self, "y_edge_list", self.y_edges.tolist())

    def score_batch(self, x_values, y_values) -> np.ndarray:
        """First-matching-rule index per point (``-1`` = no rule).

        Vectorised: two ``searchsorted`` calls per axis and one gather,
        O(log m) per tuple with tiny constants — the ``/predict_batch``
        path.  One point goes through :meth:`score` instead.
        """
        x_positions = _positions(
            self.x_edges, x_values, self.segmentation.x_attribute
        )
        y_positions = _positions(
            self.y_edges, y_values, self.segmentation.y_attribute
        )
        if x_positions.shape != y_positions.shape:
            raise ScoringError(
                f"x and y batches differ in shape: "
                f"{x_positions.shape} vs {y_positions.shape}"
            )
        result = self.table[x_positions, y_positions]
        metrics.inc("serve.tuples_scored", int(result.size))
        metrics.observe("serve.batch_size", int(result.size))
        return result

    def score(self, x: float, y: float) -> int:
        """Single-tuple prediction: the rule index or ``-1``.

        :meth:`score_batch` on one point, in plain Python: the position
        is ``bisect_left + bisect_right - 1`` over the edge lists, and
        the table is read with ``item``.  NaN is rejected with the same
        message, and the same metrics are recorded.
        """
        x, y = float(x), float(y)
        if isnan(x):
            raise ScoringError(_nan_message(self.segmentation.x_attribute))
        if isnan(y):
            raise ScoringError(_nan_message(self.segmentation.y_attribute))
        x_edges, y_edges = self.x_edge_list, self.y_edge_list
        index = self.table.item(
            bisect_left(x_edges, x) + bisect_right(x_edges, x) - 1,
            bisect_left(y_edges, y) + bisect_right(y_edges, y) - 1,
        )
        metrics.inc("serve.tuples_scored", 1)
        metrics.observe("serve.batch_size", 1)
        return index


def compile_scorer(segmentation: Segmentation) -> CompiledScorer:
    """Compile a segmentation into its position table."""
    started = perf_counter()
    rules = list(segmentation.rules)
    x_edges = _endpoint_edges([rule.x_interval for rule in rules])
    y_edges = _endpoint_edges([rule.y_interval for rule in rules])
    table = np.full(
        (2 * len(x_edges) + 1, 2 * len(y_edges) + 1), -1, dtype=np.int32
    )
    x_cover = _position_cover(x_edges, [r.x_interval for r in rules])
    y_cover = _position_cover(y_edges, [r.y_interval for r in rules])
    # Paint in reverse so the lowest (first-matching) rule index wins
    # wherever rules overlap.
    for r in range(len(rules) - 1, -1, -1):
        table[np.ix_(x_cover[r], y_cover[r])] = r
    for array in (x_edges, y_edges, table):
        array.setflags(write=False)
    duration = perf_counter() - started
    metrics.observe("serve.compile_seconds", duration)
    logger.debug(
        "compiled scorer: %d rules -> %s table in %.4fs",
        len(rules), table.shape, duration,
    )
    return CompiledScorer(
        segmentation=segmentation, x_edges=x_edges, y_edges=y_edges,
        table=table,
    )

