"""Compiling segmentations into O(1)-per-tuple prediction tables.

A fitted :class:`~repro.core.segmentation.Segmentation` is a handful of
axis-aligned value-space rectangles.  Answering "which segment is this
tuple in?" by testing every rule per request is fine for one query but
wasteful for serving: the rectangles never change between queries, so
the rule set can be *compiled* once into a dense lookup table and every
prediction becomes two ``searchsorted`` calls plus one 2-D gather.

The compilation follows the same convention as
:meth:`repro.binning.strategies.BinLayout.assign` (``searchsorted``
side-``right`` over a monotone edge array), with one refinement so
interval closedness matches :attr:`~repro.core.rules.Interval.closed_high`
*exactly*: every distinct interval endpoint becomes both a zero-width
**boundary position** and a bound of the **open cells** around it.  For
``m`` distinct x-endpoints there are ``2m + 1`` x-positions::

    position 2k     — the boundary value ``edges[k]`` itself
    position 2k + 1 — the open cell ``(edges[k], edges[k+1])``
    positions 2m-1, 2m — padding for out-of-range values (no rule)

Within an open cell no interval starts or ends, so whether a rule
covers the cell is decided by edge comparisons alone — no floating-point
midpoints anywhere.  A boundary value belongs to ``[low, high)`` or
``[low, high]`` per the rule's own ``closed_high``.  The compiled table
stores, per (x-position, y-position), the index of the **first matching
rule** (segmentation order), or ``-1`` for "outside every rule" — which
is what ``/explain`` reports as the rule that fired.

The serving registry compiles each model once, when it loads it
(:attr:`~repro.serve.registry.ServedModel.scorer`).  Compilation is also
cached (:func:`compile_scorer`), so reloading an unchanged segmentation
reuses its scorer; cache hits/misses land in the
``serve.scorer_cache_*`` counters.  The scalar twin lives in
:func:`repro.perf.reference.score_batch_scalar` and the two are held
bit-identical by ``tests/test_serve_properties.py`` and the ``scorer``
perf budget.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from repro.core.rules import ClusteredRule, Interval
from repro.core.segmentation import Segmentation
from repro.obs import metrics

logger = logging.getLogger(__name__)

__all__ = [
    "CompiledScorer",
    "ScoringError",
    "compile_scorer",
    "scorer_cache_clear",
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


def _positions(edges: np.ndarray, values: np.ndarray,
               attribute: str) -> np.ndarray:
    """Map values to position indices (see the module docstring).

    Mirrors :meth:`BinLayout.assign`'s side-``right`` convention and its
    NaN policy: a NaN would otherwise land silently in a padding slot.
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise ScoringError(
            f"column {attribute!r} contains NaN; clean the data "
            "before scoring"
        )
    m = len(edges)
    if m == 0:  # empty segmentation: the single padding position
        return np.zeros(values.shape, dtype=np.int64)
    j = np.searchsorted(edges, values, side="right") - 1
    clamped = np.clip(j, 0, m - 1)
    on_edge = edges[clamped] == values
    positions = np.where(on_edge, 2 * clamped, 2 * clamped + 1)
    # Below edges[0] -> padding slot 2m; above edges[-1] falls out as
    # position 2m-1 (also padding) because the top value is not an edge.
    return np.where(j < 0, 2 * m, positions)


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

    @property
    def n_rules(self) -> int:
        return len(self.segmentation.rules)

    def score_batch(self, x_values, y_values) -> np.ndarray:
        """First-matching-rule index per point (``-1`` = no rule).

        Vectorised: two ``searchsorted`` calls and one gather, O(log m)
        per tuple with tiny constants — the serving hot path.
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
        """Single-tuple prediction: the rule index or ``-1``."""
        return int(self.score_batch(
            np.asarray([x], dtype=np.float64),
            np.asarray([y], dtype=np.float64),
        )[0])

    def in_segment(self, x_values, y_values) -> np.ndarray:
        """Boolean membership — ``Segmentation.covers``, compiled."""
        return self.score_batch(x_values, y_values) >= 0

    def explain(self, x: float, y: float) -> ClusteredRule | None:
        """The rule that fired for the point, or ``None``."""
        index = self.score(x, y)
        return None if index < 0 else self.segmentation.rules[index]


def _compile(segmentation: Segmentation) -> CompiledScorer:
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


_compile_cached = lru_cache(maxsize=128)(_compile)


def compile_scorer(segmentation: Segmentation) -> CompiledScorer:
    """The cached compile step: same segmentation, same scorer object.

    ``Segmentation`` is a frozen dataclass of frozen parts, so it keys
    the LRU cache directly; a registry hot-reload produces a *new*
    segmentation object and therefore a fresh compile.
    """
    before = _compile_cached.cache_info().hits
    scorer = _compile_cached(segmentation)
    if _compile_cached.cache_info().hits > before:
        metrics.inc("serve.scorer_cache_hits")
    else:
        metrics.inc("serve.scorer_cache_misses")
    return scorer


def scorer_cache_clear() -> None:
    """Drop every compiled scorer (tests, long-lived processes)."""
    _compile_cached.cache_clear()
