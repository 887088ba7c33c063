"""The verifier: sampled error measurement (paper Section 3.6).

Given a segmentation, the verifier draws repeated k-out-of-n samples from
the source data and counts, per sample,

* **false positives** — tuples a cluster covers whose group is *not* the
  criterion value, and
* **false negatives** — tuples of the criterion group no cluster covers.

The per-sample error is ``FP + FN``; the relative error is that count over
the sample size.  Averaging over repeats ("a stronger statistical
technique") tightens the estimate, and the standard error across repeats
quantifies how tight.  The MDL scorer consumes the mean error count.

Hot path
--------
The samples are drawn **once per verifier**: repeat ``r``'s indices are
a pure function of ``(seed, r, n, k)``
(:func:`repro.data.sampling.repeat_indices`), so construction gathers
the ``(repeats, k)`` target mask up front, and each LHS column the first
time a segmentation names it.  A :meth:`Verifier.verify` call then
covers only those ``repeats * k`` points — its cost does not grow with
the table.  Coverage and target membership are element-wise, so the
report equals the one a full-table pass followed by a gather gives
(:func:`repro.perf.reference.verify_scalar`).

An optimizer trial's segmentation is a set of grid rectangles, and
:meth:`Verifier.verify_rects` scores it without translating them to
value space.  The first call for a pair of bin layouts places every
sampled tuple in its *exact* cell — bin ``i`` holds ``edges[i] <= v <
edges[i+1]``, the last bin closed — or in one extra "outside" slot for
values beyond the layout (or NaN), and counts target and non-target
samples per cell and repeat.  A rule's intervals are
``[edges[x_lo], edges[x_hi+1])``, closed at the last bin, and the edges
strictly increase, so a tuple lies in the rule exactly when its cell
lies in the rectangle: a trial's counts are two dot products with the
rectangles' cell mask, and the report equals :meth:`Verifier.verify`
on the rules the rectangles translate to.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.binning.strategies import BinLayout
from repro.core.rules import GridRect
from repro.core.segmentation import Segmentation
from repro.data.sampling import repeat_indices
from repro.data.schema import Table, equal_mask
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class VerificationReport:
    """The verifier's estimate for one segmentation.

    ``mean_errors`` is the average FP+FN *count* per sample (what MDL
    wants); ``error_rate`` is the same as a fraction of the sample size
    (what the paper's Figures 11/12 plot).
    """

    mean_false_positives: float
    mean_false_negatives: float
    sample_size: int
    repeats: int
    error_rate: float
    error_rate_stderr: float

    @property
    def mean_errors(self) -> float:
        return self.mean_false_positives + self.mean_false_negatives


@dataclass(frozen=True, eq=False)
class SampleCells:
    """A verifier's samples counted per exact cell of one pair of bin
    layouts: all :meth:`verify_rects` reads, and no table.

    ``counts`` is ``(2 * repeats, n_x * n_y + 1)``: per exact cell, with
    the outside slot last, each repeat's non-target sample counts and
    then each repeat's target ones; ``target_totals`` lists each
    repeat's target samples.  It is grid-sized and picklable, so a
    threshold search can hand it to another process.
    """

    counts: np.ndarray = field(repr=False)
    target_totals: list[int]
    sample_size: int

    def verify_rects(self, x_layout: BinLayout, y_layout: BinLayout,
                     rects: Sequence[GridRect]) -> VerificationReport:
        """:meth:`Verifier.verify_rects` on the layouts these cells
        were counted for."""
        repeats = len(self.target_totals)
        with trace("verify", sample_size=self.sample_size,
                   repeats=repeats) as span:
            inside = np.zeros(self.counts.shape[1], dtype=np.int64)
            grid = inside[:-1].reshape(x_layout.n_bins, y_layout.n_bins)
            for rect in rects:
                grid[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1] = 1
            hits = (self.counts @ inside).tolist()
            fp_counts = hits[:repeats]
            fn_counts = [total - hit for total, hit
                         in zip(self.target_totals, hits[repeats:])]
            return _report(span, fp_counts, fn_counts, len(rects),
                           self.sample_size)


@dataclass(frozen=True)
class Verifier:
    """Estimates segmentation error on samples of one source table.

    The verifier is frozen because it caches its samples at
    construction: changing ``table``, ``seed`` or ``repeats`` afterwards
    would leave them stale.

    Parameters
    ----------
    table:
        The source data, carrying the LHS columns and the group column.
        Must not be empty.
    rhs_attribute, target_value:
        The criterion: rows with ``table[rhs_attribute] == target_value``
        belong to the segment being verified.
    sample_size:
        ``k`` of the k-out-of-n scheme.  Clamped to the table size.
    repeats:
        Number of independent samples averaged.
    seed:
        RNG seed; a fixed verifier gives identical estimates for identical
        segmentations, which keeps the optimizer's search deterministic.
        Repeat ``r`` always draws from ``repeat_rng(seed, r)``.
    """

    table: Table
    rhs_attribute: str
    target_value: object
    sample_size: int = 1000
    repeats: int = 5
    seed: int = 0
    _indices: np.ndarray = field(init=False, repr=False, compare=False)
    _sample_target: np.ndarray = field(init=False, repr=False,
                                       compare=False)
    _sample_columns: dict = field(init=False, repr=False, compare=False)
    _cell_counts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.sample_size <= 0:
            raise ValueError("sample_size must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        n = len(self.table)
        if n == 0:
            raise ValueError("cannot verify against an empty table")
        sample_size = min(self.sample_size, n)
        indices = repeat_indices(n, sample_size, self.seed,
                                 range(self.repeats))
        # The label codes are gathered, not values: equal_mask compares
        # the domain once and gathers the answer through the codes.
        labels = self.table.categorical_column(self.rhs_attribute)
        sample_target = equal_mask(
            labels[indices.ravel()], self.target_value
        ).reshape(indices.shape)
        object.__setattr__(self, "sample_size", sample_size)
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_sample_target", sample_target)
        object.__setattr__(self, "_sample_columns", {})
        object.__setattr__(self, "_cell_counts", {})

    def _sample_column(self, name: str) -> np.ndarray:
        """The ``(repeats, k)`` sample of one LHS column, gathered the
        first time a segmentation names it."""
        column = self._sample_columns.get(name)
        if column is None:
            column = np.asarray(
                self.table.column(name)[self._indices], dtype=np.float64
            )
            self._sample_columns[name] = column
        return column

    def sample_cells(self, x_layout: BinLayout,
                     y_layout: BinLayout) -> SampleCells:
        """The samples counted per exact cell of a pair of layouts,
        counted the first time the pair is verified."""
        key = (x_layout.attribute, x_layout.edges.tobytes(),
               y_layout.attribute, y_layout.edges.tobytes())
        cached = self._cell_counts.get(key)
        if cached is None:
            x_bins, x_inside = _exact_bins(
                x_layout.edges, self._sample_column(x_layout.attribute))
            y_bins, y_inside = _exact_bins(
                y_layout.edges, self._sample_column(y_layout.attribute))
            slots = x_layout.n_bins * y_layout.n_bins + 1
            cells = np.where(x_inside & y_inside,
                             x_bins * y_layout.n_bins + y_bins, slots - 1)
            cells += np.arange(self.repeats)[:, None] * slots
            is_target = self._sample_target
            counts = np.concatenate([
                np.bincount(cells[mask], minlength=self.repeats * slots)
                .reshape(self.repeats, slots)
                for mask in (~is_target, is_target)
            ])
            cached = SampleCells(
                counts=counts,
                target_totals=np.count_nonzero(is_target, axis=1).tolist(),
                sample_size=self.sample_size,
            )
            self._cell_counts[key] = cached
        return cached

    def verify(self, segmentation: Segmentation) -> VerificationReport:
        """Estimate the segmentation's error by repeated sampling."""
        with trace("verify", sample_size=self.sample_size,
                   repeats=self.repeats) as span:
            covered = segmentation.covers(
                self._sample_column(segmentation.x_attribute),
                self._sample_column(segmentation.y_attribute),
            )
            is_target = self._sample_target
            fp_counts = np.count_nonzero(covered & ~is_target, axis=1)
            fn_counts = np.count_nonzero(~covered & is_target, axis=1)
            return _report(span, fp_counts.tolist(), fn_counts.tolist(),
                           len(segmentation), self.sample_size)

    def verify_rects(self, x_layout: BinLayout, y_layout: BinLayout,
                     rects: Sequence[GridRect]) -> VerificationReport:
        """:meth:`verify` for the segmentation whose rules span
        ``rects`` on the grid of ``x_layout`` by ``y_layout``, counted
        on the samples' exact cells (see the module docstring)."""
        return self.sample_cells(x_layout, y_layout).verify_rects(
            x_layout, y_layout, rects
        )

    def exact_error_rate(self, segmentation: Segmentation) -> float:
        """Full-table FP+FN rate (no sampling) — the ground truth the
        sampled estimate approximates; used by tests and the figure
        benchmarks where determinism matters more than speed."""
        with trace("verify.exact", tuples=len(self.table)) as span:
            covered = segmentation.covers_table(self.table)
            is_target = equal_mask(
                self.table.categorical_column(self.rhs_attribute),
                self.target_value,
            )
            errors = np.count_nonzero(
                covered & ~is_target
            ) + np.count_nonzero(~covered & is_target)
            rate = float(errors) / len(self.table)
            metrics.inc("verifier.tuples_scanned", len(self.table))
            span.set("error_rate", rate)
        return rate


def _report(span, fp_counts: list[int], fn_counts: list[int],
            n_rules: int, sample_size: int) -> VerificationReport:
    """The report on per-repeat FP and FN counts, in Python floats.

    Each float is the one NumPy's ``mean`` and ``std(ddof=1)`` give on
    the same values (:func:`repro.perf.reference.verify_scalar`): the
    same divisions, and sums in NumPy's order (:func:`_numpy_sum`).
    The counts' sums are exact integers.
    """
    repeats = len(fp_counts)
    metrics.inc("verifier.samples_drawn", repeats)
    metrics.inc("verifier.tuples_sampled", repeats * sample_size)
    rates = [(fp + fn) / sample_size
             for fp, fn in zip(fp_counts, fn_counts)]
    mean_rate = _numpy_sum(rates) / repeats
    stderr = 0.0
    if repeats > 1:
        deviations = [rate - mean_rate for rate in rates]
        variance = (_numpy_sum([d * d for d in deviations])
                    / (repeats - 1))
        stderr = math.sqrt(variance) / math.sqrt(repeats)
    span.set("error_rate", mean_rate)
    logger.debug(
        "verified %d rules on %d x %d samples: error %.4f",
        n_rules, repeats, sample_size, mean_rate,
    )
    return VerificationReport(
        mean_false_positives=sum(fp_counts) / repeats,
        mean_false_negatives=sum(fn_counts) / repeats,
        sample_size=sample_size,
        repeats=repeats,
        error_rate=mean_rate,
        error_rate_stderr=stderr,
    )


def _exact_bins(edges: np.ndarray,
                values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's bin, ``edges[i] <= v < edges[i+1]`` with the last bin
    closed, and whether it lies in ``[edges[0], edges[-1]]`` at all.

    Unlike :meth:`BinLayout.assign` nothing is clamped: a value outside
    the layout (or NaN) is no rule's, so its ``inside`` is false.
    """
    bins = np.searchsorted(edges, values, side="right") - 1
    np.minimum(bins, len(edges) - 2, out=bins)
    inside = (values >= edges[0]) & (values <= edges[-1])
    return bins, inside


def _numpy_sum(values: list[float]) -> float:
    """``float(np.sum(values))`` for float64 values, in plain Python.

    NumPy adds fewer than 8 values one after another, up to 128 in 8
    interleaved partial sums combined pairwise and then the remainder,
    and more by splitting at a multiple of 8 near the middle.  Floating
    addition is not associative, so only this order gives NumPy's bits.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        partial = values[:8]
        end = n - n % 8
        for start in range(8, end, 8):
            partial = [a + b
                       for a, b in zip(partial, values[start:start + 8])]
        total = (((partial[0] + partial[1]) + (partial[2] + partial[3]))
                 + ((partial[4] + partial[5]) + (partial[6] + partial[7])))
        for value in values[end:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _numpy_sum(values[:half]) + _numpy_sum(values[half:])
