"""Scalar reference implementations of the hot-path kernels.

Each function here is the straightforward per-tuple / per-cell /
per-repeat formulation of a kernel that the library proper implements
with vectorised NumPy, or the rescan-everything loop of a clustering
stage (hull merge, BitOp cover) that it implements incrementally.  They
exist for two reasons:

* **Correctness anchors.**  ``tests/test_perf_equivalence.py`` asserts
  the fast kernels produce *bit-identical* results to these on synthetic
  data, including edge bins and empty inputs.  A future "optimisation"
  that changes semantics fails loudly.
* **Perf baselines.**  ``benchmarks/perf_budget.py`` times fast kernel
  vs reference on the same machine in the same process, so the budget it
  enforces is a machine-portable *speedup ratio*, not a wall-clock
  number that breaks on slower CI runners.

None of these are called from pipeline code; keep them boring and
obviously correct rather than fast.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import BinLayout
from repro.core.bitop import StartRowChains, _clear_rows
from repro.core.clusterer import ClustererConfig, ClusteringOutcome
from repro.core.grid import RuleGrid
from repro.core.merging import _trim_to_content, hull_cover_fraction
from repro.core.pruning import prune_clusters
from repro.core.rules import GridRect
from repro.core.segmentation import Segmentation
from repro.core.verifier import VerificationReport, Verifier
from repro.data.sampling import repeat_indices
from repro.data.schema import Table, equal_mask


def assign_bins_scalar(layout: BinLayout, values: np.ndarray) -> np.ndarray:
    """Per-tuple bin assignment: one :func:`bisect.bisect_right` per value.

    Mirrors :meth:`repro.binning.strategies.BinLayout.assign` exactly —
    half-open bins, last bin closed above, out-of-range values clamped,
    NaN rejected.
    """
    edges = layout.edges.tolist()
    n_bins = layout.n_bins
    out = np.empty(len(values), dtype=np.int64)
    for position, value in enumerate(values):
        value = float(value)
        if np.isnan(value):
            raise ValueError(
                f"column {layout.attribute!r} contains NaN; clean the "
                "data before binning"
            )
        index = bisect_right(edges, value) - 1
        if index < 0:
            index = 0
        elif index > n_bins - 1:
            index = n_bins - 1
        out[position] = index
    return out


def encode_scalar(encoding: CategoricalEncoding,
                  values: Sequence) -> np.ndarray:
    """Per-value categorical encoding: one dict lookup per value.

    The loop :meth:`repro.binning.categorical.CategoricalEncoding.encode`
    replaced; an unknown value raises :class:`KeyError` naming it and the
    attribute.
    """
    index = {value: code for code, value in enumerate(encoding.values)}
    try:
        return np.fromiter(
            (index[value] for value in values),
            dtype=np.int64,
            count=len(values),
        )
    except KeyError as error:
        raise KeyError(
            f"value {error.args[0]!r} not in the domain of "
            f"{encoding.attribute!r}"
        ) from None


def inject_outliers_scalar(labels: np.ndarray, fraction: float,
                           rng: np.random.Generator,
                           groups: Sequence = ("A", "other")) -> np.ndarray:
    """Per-label outlier flips: one ``rng.integers`` call per flipped
    label (the loop :func:`repro.data.perturbation.inject_outliers`
    replaced, and the random stream it must reproduce)."""
    groups = list(groups)
    flipped = labels.copy()
    n_outliers = int(round(fraction * len(labels)))
    if n_outliers == 0:
        return flipped
    chosen = rng.choice(len(labels), size=n_outliers, replace=False)
    for index in chosen:
        current = flipped[index]
        alternatives = [group for group in groups if group != current]
        flipped[index] = alternatives[int(rng.integers(len(alternatives)))]
    return flipped


def add_chunk_scalar(bin_array: BinArray, x_bins: np.ndarray,
                     y_bins: np.ndarray, rhs_codes: np.ndarray) -> None:
    """Per-tuple scatter into the BinArray counters (the pre-vectorization
    accumulation loop)."""
    if not (len(x_bins) == len(y_bins) == len(rhs_codes)):
        raise ValueError("chunk arrays must have equal length")
    counts, totals = bin_array.counts, bin_array.totals
    single_target = bin_array.single_target
    target_code = bin_array.target_code
    for x, y, code in zip(x_bins, y_bins, rhs_codes):
        totals[x, y] += 1
        if single_target:
            if code == target_code:
                counts[x, y, 0] += 1
        else:
            counts[x, y, code] += 1
    bin_array.n_total += len(x_bins)


def remove_chunk_scalar(bin_array: BinArray, x_bins: np.ndarray,
                        y_bins: np.ndarray,
                        rhs_codes: np.ndarray) -> None:
    """Per-tuple inverse scatter: the reference for
    :meth:`repro.binning.bin_array.BinArray.remove_chunk`.

    Decrements one tuple at a time with a per-tuple underflow check, so
    an invalid removal fails on the exact offending tuple.  Unlike the
    vectorised check-then-apply path it mutates as it goes; callers
    comparing against :meth:`~repro.binning.bin_array.BinArray.remove_chunk`
    feed it valid removals only.
    """
    if not (len(x_bins) == len(y_bins) == len(rhs_codes)):
        raise ValueError("chunk arrays must have equal length")
    counts, totals = bin_array.counts, bin_array.totals
    single_target = bin_array.single_target
    target_code = bin_array.target_code
    for x, y, code in zip(x_bins, y_bins, rhs_codes):
        if totals[x, y] <= 0:
            raise ValueError(
                f"cell ({x}, {y}) has no tuples left to remove"
            )
        totals[x, y] -= 1
        if single_target:
            if code == target_code:
                if counts[x, y, 0] <= 0:
                    raise ValueError(
                        f"cell ({x}, {y}) has no target tuples left"
                    )
                counts[x, y, 0] -= 1
        else:
            if counts[x, y, code] <= 0:
                raise ValueError(
                    f"cell ({x}, {y}) holds no tuples of code {code}"
                )
            counts[x, y, code] -= 1
    bin_array.n_total -= len(x_bins)


def consume_scalar(binner, chunk: Table) -> None:
    """One Binner chunk through the scalar assignment, encoding and
    scatter path, starting from the chunk's decoded values."""
    x_bins = assign_bins_scalar(
        binner.x_layout, chunk.column(binner.x_layout.attribute)
    )
    y_bins = assign_bins_scalar(
        binner.y_layout, chunk.column(binner.y_layout.attribute)
    )
    rhs_codes = encode_scalar(
        binner.rhs_encoding, chunk.column(binner.rhs_attribute)
    )
    add_chunk_scalar(binner.bin_array, x_bins, y_bins, rhs_codes)


def count_repeat_errors_scalar(covered: np.ndarray, is_target: np.ndarray,
                               sample_size: int, seed: int,
                               repeat_ids: Sequence[int],
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-repeat, per-tuple FP/FN counting over full-table vectors.

    ``covered``/``is_target`` are full-table boolean vectors; repeat
    ``repeat_ids[i]`` samples row ``i`` of
    :func:`repro.data.sampling.repeat_indices` (drawn from
    ``repeat_rng(seed, r)``) and counts its false positives and false
    negatives one tuple at a time.  Returns ``(fp_counts, fn_counts)``
    aligned with ``repeat_ids``.
    """
    samples = repeat_indices(len(covered), sample_size, seed, repeat_ids)
    fp_counts = np.zeros(len(repeat_ids), dtype=np.int64)
    fn_counts = np.zeros(len(repeat_ids), dtype=np.int64)
    for position, indices in enumerate(samples):
        false_positives = 0
        false_negatives = 0
        for index in indices:
            inside = bool(covered[index])
            wanted = bool(is_target[index])
            if inside and not wanted:
                false_positives += 1
            elif wanted and not inside:
                false_negatives += 1
        fp_counts[position] = false_positives
        fn_counts[position] = false_negatives
    return fp_counts, fn_counts


def mean_and_stderr(values) -> tuple[float, float]:
    """The mean and standard error of a sequence of sample statistics,
    through NumPy's ``mean`` and ``std(ddof=1)``: the reference for the
    verifier's plain-Python report floats.  The standard error of a
    single value is zero."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ValueError("no values to aggregate")
    mean = float(array.mean())
    if array.size == 1:
        return mean, 0.0
    stderr = float(array.std(ddof=1) / np.sqrt(array.size))
    return mean, stderr


def verify_scalar(verifier: Verifier,
                  segmentation: Segmentation) -> VerificationReport:
    """:meth:`Verifier.verify` as a full-table pass per call.

    Covers every row of the table and builds the full target mask, then
    counts each repeat's sample tuple by tuple
    (:func:`count_repeat_errors_scalar`) and aggregates with NumPy
    (:func:`mean_and_stderr`, ``np.mean``).  Coverage and target
    membership are element-wise, and the verifier's plain-Python report
    sums in NumPy's order, so the reports must be ``==``.
    """
    table = verifier.table
    covered = segmentation.covers_table(table)
    is_target = equal_mask(
        table.column(verifier.rhs_attribute), verifier.target_value
    )
    fp_counts, fn_counts = count_repeat_errors_scalar(
        covered, is_target, verifier.sample_size, verifier.seed,
        range(verifier.repeats),
    )
    rates = (fp_counts + fn_counts) / float(verifier.sample_size)
    mean_rate, stderr = mean_and_stderr(rates)
    return VerificationReport(
        mean_false_positives=float(np.mean(fp_counts)),
        mean_false_negatives=float(np.mean(fn_counts)),
        sample_size=verifier.sample_size,
        repeats=verifier.repeats,
        error_rate=mean_rate,
        error_rate_stderr=stderr,
    )


def neighbourhood_mean_scalar(values: np.ndarray,
                              radius: int = 1) -> np.ndarray:
    """Shift-and-add neighbourhood mean: ``(2r+1)^2`` grid passes.

    The original implementation of
    :func:`repro.core.smoothing.neighbourhood_mean`, kept as the oracle
    for the summed-area-table version.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {values.shape}")
    if radius < 1:
        raise ValueError("radius must be at least 1")
    padded_sum = np.zeros_like(values)
    counts = np.zeros_like(values)
    n_x, n_y = values.shape
    for dx in range(-radius, radius + 1):
        if abs(dx) >= n_x:  # shift falls entirely off the grid
            continue
        for dy in range(-radius, radius + 1):
            if abs(dy) >= n_y:
                continue
            x_src = slice(max(0, -dx), min(n_x, n_x - dx))
            y_src = slice(max(0, -dy), min(n_y, n_y - dy))
            x_dst = slice(max(0, dx), min(n_x, n_x + dx))
            y_dst = slice(max(0, dy), min(n_y, n_y + dy))
            padded_sum[x_dst, y_dst] += values[x_src, y_src]
            counts[x_dst, y_dst] += 1.0
    return padded_sum / counts


def score_batch_scalar(segmentation: Segmentation, x_values,
                       y_values) -> np.ndarray:
    """Per-tuple, per-rule interval evaluation: the serving oracle.

    Mirrors :meth:`repro.serve.scorer.CompiledScorer.score_batch`
    exactly — first matching rule index in segmentation order (``-1``
    when no rule fires), closedness per each interval's
    ``closed_high``, NaN rejected like the binner rejects it.
    """
    x_values = np.asarray(x_values, dtype=np.float64)
    y_values = np.asarray(y_values, dtype=np.float64)
    if x_values.shape != y_values.shape:
        raise ValueError(
            f"x and y batches differ in shape: "
            f"{x_values.shape} vs {y_values.shape}"
        )
    rules = segmentation.rules
    out = np.full(len(x_values), -1, dtype=np.int32)
    for position, (x, y) in enumerate(zip(x_values, y_values)):
        if np.isnan(x):
            raise ValueError(
                f"column {segmentation.x_attribute!r} contains NaN; "
                "clean the data before scoring"
            )
        if np.isnan(y):
            raise ValueError(
                f"column {segmentation.y_attribute!r} contains NaN; "
                "clean the data before scoring"
            )
        for index, rule in enumerate(rules):
            x_iv, y_iv = rule.x_interval, rule.y_interval
            inside_x = x >= x_iv.low and (
                x <= x_iv.high if x_iv.closed_high else x < x_iv.high
            )
            inside_y = y >= y_iv.low and (
                y <= y_iv.high if y_iv.closed_high else y < y_iv.high
            )
            if inside_x and inside_y:
                out[position] = index
                break
    return out


def psi_scalar(expected, observed) -> float:
    """Per-bin PSI: the drift oracle for :func:`repro.obs.drift.psi`.

    Bit-identity notes: per-bin terms are computed with Python scalar
    arithmetic plus scalar ``np.log`` (which matches numpy's vectorised
    log elementwise, unlike ``math.log``), and the final reduction is
    ``np.sum`` over the term array so the summation *order* matches the
    vectorised path (numpy's pairwise summation differs from a naive
    left-to-right loop on large inputs).
    """
    from repro.obs.drift import PSI_EPSILON

    expected = np.asarray(expected, dtype=np.float64).ravel()
    observed = np.asarray(observed, dtype=np.float64).ravel()
    for side, values in (("expected", expected), ("observed", observed)):
        if values.size == 0:
            raise ValueError(f"{side} distribution has no bins")
        if any(value < 0 for value in values.tolist()):
            raise ValueError(f"{side} distribution has negative counts")
    if expected.size != observed.size:
        raise ValueError(
            f"distributions have different bin counts: {expected.size} "
            f"vs {observed.size}"
        )
    expected_total = float(np.sum(expected))
    observed_total = float(np.sum(observed))
    if expected_total <= 0.0:
        raise ValueError("expected distribution is empty (all counts zero)")
    if observed_total <= 0.0:
        raise ValueError("observed distribution is empty (all counts zero)")
    terms = np.empty(expected.size, dtype=np.float64)
    for index in range(expected.size):
        p = max(float(expected[index]) / expected_total, PSI_EPSILON)
        q = max(float(observed[index]) / observed_total, PSI_EPSILON)
        terms[index] = (q - p) * np.log(q / p)
    return float(np.sum(terms))


def js_divergence_scalar(expected, observed) -> float:
    """Per-bin Jensen-Shannon divergence (bits): oracle for
    :func:`repro.obs.drift.js_divergence`.

    Same bit-identity discipline as :func:`psi_scalar`: scalar per-bin
    terms (zero where the side's probability is zero, mirroring the
    ``0 * log 0`` limit), ``np.sum`` reductions in the same order as the
    vectorised implementation.
    """
    expected = np.asarray(expected, dtype=np.float64).ravel()
    observed = np.asarray(observed, dtype=np.float64).ravel()
    for side, values in (("expected", expected), ("observed", observed)):
        if values.size == 0:
            raise ValueError(f"{side} distribution has no bins")
        if any(value < 0 for value in values.tolist()):
            raise ValueError(f"{side} distribution has negative counts")
    if expected.size != observed.size:
        raise ValueError(
            f"distributions have different bin counts: {expected.size} "
            f"vs {observed.size}"
        )
    expected_total = float(np.sum(expected))
    observed_total = float(np.sum(observed))
    if expected_total <= 0.0:
        raise ValueError("expected distribution is empty (all counts zero)")
    if observed_total <= 0.0:
        raise ValueError("observed distribution is empty (all counts zero)")
    n_bins = expected.size
    p_terms = np.zeros(n_bins, dtype=np.float64)
    q_terms = np.zeros(n_bins, dtype=np.float64)
    for index in range(n_bins):
        p = float(expected[index]) / expected_total
        q = float(observed[index]) / observed_total
        midpoint = 0.5 * (p + q)
        if p > 0.0:
            p_terms[index] = p * np.log(p / midpoint)
        if q > 0.0:
            q_terms[index] = q * np.log(q / midpoint)
    nats = 0.5 * float(np.sum(p_terms)) + 0.5 * float(np.sum(q_terms))
    return nats / float(np.log(2.0))


def row_bitmaps_scalar(cells: np.ndarray) -> list[int]:
    """Per-cell row-mask construction: OR ``1 << j`` per set cell.

    The original implementation of
    :meth:`repro.core.grid.RuleGrid.row_bitmaps`, kept as the oracle for
    the packbits version.
    """
    cells = np.asarray(cells, dtype=bool)
    rows = []
    for i in range(cells.shape[0]):
        row_bits = 0
        for j in np.flatnonzero(cells[i]):
            row_bits |= 1 << int(j)
        rows.append(row_bits)
    return rows


def qualifying_cells(bin_array: BinArray, rhs_code: int,
                     min_support: float,
                     min_confidence: float) -> np.ndarray:
    """The boolean grid of cells whose rule clears both thresholds,
    dividing the counts at every call: the oracle for
    :func:`repro.mining.engine.rule_grid` on rule measures divided once.

    Support is compared as the fraction ``count / N``; an empty cell
    never qualifies, so its undefined ratios (``0/0``) are masked out
    rather than replaced.
    """
    counts = bin_array.count_grid(rhs_code)
    with np.errstate(invalid="ignore", divide="ignore"):
        support = counts / bin_array.n_total
        confidence = counts / bin_array.totals
    return (support >= min_support) & (counts > 0) & (
        confidence >= min_confidence
    )


def rule_pairs_scalar(bin_array: BinArray, rhs_code: int,
                      min_support: float,
                      min_confidence: float) -> list[tuple[int, int]]:
    """Per-cell pair extraction: a comprehension over ``np.argwhere``
    of :func:`qualifying_cells`, converting one cell at a time."""
    qualifying = qualifying_cells(
        bin_array, rhs_code, min_support, min_confidence
    )
    return [(int(i), int(j)) for i, j in np.argwhere(qualifying)]


def merge_clusters_scalar(clusters: Sequence[GridRect], grid: RuleGrid,
                          cover_fraction: float = 0.8) -> list[GridRect]:
    """Pairwise-rescan hull merge: the original
    :func:`repro.core.merging.merge_clusters`.

    Every round rescans all surviving pairs with a fresh block sum per
    hull and merges the best one — O(k^3) block sums for k clusters.
    Keep it to small grids.
    """
    if not 0.0 < cover_fraction <= 1.0:
        raise ValueError("cover_fraction must be in (0, 1]")
    merged = [_trim_to_content(grid, rect) for rect in clusters]
    merged = [rect for rect in merged if rect is not None]
    while len(merged) > 1:
        best_pair: tuple[int, int] | None = None
        best_hull: GridRect | None = None
        best_cover = cover_fraction
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                hull = merged[i].union_bounding(merged[j])
                cover = hull_cover_fraction(grid, hull)
                if cover >= best_cover:
                    better = (
                        best_hull is None
                        or cover > best_cover
                        or hull.area > best_hull.area
                    )
                    if better:
                        best_pair, best_hull = (i, j), hull
                        best_cover = cover
        if best_pair is None or best_hull is None:
            break
        i, j = best_pair
        trimmed = _trim_to_content(grid, best_hull)
        survivors = [
            rect for k, rect in enumerate(merged) if k not in (i, j)
        ]
        if trimmed is not None:
            survivors.append(trimmed)
        merged = survivors
    return merged


def runs_of_set_bits(mask: int) -> list[tuple[int, int]]:
    """Decompose an integer bitmask into maximal runs of consecutive set
    bits, returned as ``(first_bit, length)`` pairs in ascending order.

    Uses only shifts and masks: repeatedly strip trailing zeros, then
    measure the run of trailing ones.
    """
    runs = []
    position = 0
    while mask:
        # Skip the run of trailing zeros in one step.
        trailing_zeros = (mask & -mask).bit_length() - 1
        mask >>= trailing_zeros
        position += trailing_zeros
        # Measure the run of trailing ones: mask+1 flips them to a single
        # carry bit whose position is the run length.
        run_length = ((mask + 1) & ~mask).bit_length() - 1
        runs.append((position, run_length))
        mask >>= run_length
        position += run_length
    return runs


def enumerate_rectangles(rows: Sequence[int]) -> list[GridRect]:
    """Enumerate BitOp's candidate rectangles for a bitmap.

    ``rows[i]`` is the bitmap of x-row ``i`` (bit ``j`` = cell ``(i, j)``).
    For each start row, rectangles are emitted exactly when the running
    AND-mask is about to change, so every emitted rectangle is maximal in
    height for its (start row, column run); runs are maximal in width by
    construction.  Each candidate's top edge is its start row, so no two
    start rows emit the same rectangle.  Returned sorted.

    It reads the production cover's :class:`StartRowChains`, so the
    tests hold those chains to :func:`brute_force_maximal_rectangles`.
    """
    return sorted(
        GridRect(start, start + height - 1, first_bit,
                 first_bit + length - 1)
        for start, chain in enumerate(StartRowChains(rows).chains)
        for mask, height in chain
        for first_bit, length in runs_of_set_bits(mask)
    )


def scan_start_row_scalar(rows: Sequence[int], start: int,
                          ) -> tuple[list[tuple[int, int]], int]:
    """BitOp's AND-scan from one start row, row by row: the oracle for
    :class:`repro.core.bitop.StartRowChains`.

    Returns the ``(mask, height)`` emissions whose top edge is ``start``
    (each run of set bits in ``mask`` is one candidate ``height`` rows
    tall, and heights ascend) and the last row the scan read.
    """
    found: list[tuple[int, int]] = []
    mask = rows[start]
    reach = start
    if mask == 0:
        return found, reach
    height = 1
    for reach in range(start + 1, len(rows)):
        extended = mask & rows[reach]
        if extended != mask:
            found.append((mask, height))
            mask = extended
            if mask == 0:
                break
        height += 1
    if mask:
        found.append((mask, height))
    return found, reach


def largest_rectangle(rows: Sequence[int]) -> GridRect | None:
    """The largest-area candidate rectangle of
    :func:`enumerate_rectangles`, or ``None`` on an
    empty bitmap.  Candidates come back sorted, so ties break toward the
    lexicographically smallest rectangle and the cover is deterministic."""
    best: GridRect | None = None
    for rect in enumerate_rectangles(rows):
        if best is None or rect.area > best.area:
            best = rect
    return best


def covers(grid: RuleGrid, rect: GridRect) -> bool:
    """Whether every cell of ``rect`` is set in ``grid``."""
    block = grid.cells[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1]
    return bool(block.all())


def brute_force_maximal_rectangles(grid: RuleGrid) -> list[GridRect]:
    """Oracle enumerator for tests: all all-set rectangles that cannot be
    extended in any direction.  Quartic time — small grids only."""
    cells = grid.cells
    maximal: list[GridRect] = []
    n_x, n_y = grid.n_x, grid.n_y
    for x_lo in range(n_x):
        for x_hi in range(x_lo, n_x):
            for y_lo in range(n_y):
                for y_hi in range(y_lo, n_y):
                    rect = GridRect(x_lo, x_hi, y_lo, y_hi)
                    if not covers(grid, rect):
                        continue
                    if _is_extendable(cells, rect, n_x, n_y):
                        continue
                    maximal.append(rect)
    return sorted(set(maximal))


def _is_extendable(cells: np.ndarray, rect: GridRect, n_x: int,
                   n_y: int) -> bool:
    if rect.x_lo > 0 and cells[
        rect.x_lo - 1, rect.y_lo:rect.y_hi + 1
    ].all():
        return True
    if rect.x_hi < n_x - 1 and cells[
        rect.x_hi + 1, rect.y_lo:rect.y_hi + 1
    ].all():
        return True
    if rect.y_lo > 0 and cells[
        rect.x_lo:rect.x_hi + 1, rect.y_lo - 1
    ].all():
        return True
    if rect.y_hi < n_y - 1 and cells[
        rect.x_lo:rect.x_hi + 1, rect.y_hi + 1
    ].all():
        return True
    return False


def bitop_cover_scalar(grid: RuleGrid, min_cells: int = 1) -> list[GridRect]:
    """Re-enumerate-everything greedy cover: the original
    :meth:`repro.core.bitop.BitOpClusterer.cluster` loop.

    Each round enumerates every candidate rectangle of the whole grid
    with :func:`scan_start_row_scalar`, takes the largest (ties to the
    smallest rectangle in sorted order) and clears it, until the largest
    has fewer than ``min_cells`` cells.
    """
    rows = grid.row_bitmaps()
    clusters: list[GridRect] = []
    while True:
        candidates = [
            GridRect(start, start + height - 1, first_bit,
                     first_bit + length - 1)
            for start in range(len(rows))
            for mask, height in scan_start_row_scalar(rows, start)[0]
            for first_bit, length in runs_of_set_bits(mask)
        ]
        if not candidates:
            break
        best = min(candidates, key=lambda rect: (-rect.area, rect))
        if best.area < min_cells:
            break
        clusters.append(best)
        _clear_rows(rows, best)
    return clusters


def cluster_scalar(bin_array: BinArray, rhs_code: int, min_support: float,
                   min_confidence: float,
                   config: ClustererConfig | None = None,
                   ) -> ClusteringOutcome:
    """One optimizer trial's clustering through the scalar stages: the
    composition :meth:`repro.core.clusterer.GridClusterer.cluster` must
    equal.

    Per-cell pair extraction (:func:`rule_pairs_scalar`) plotted cell by
    cell, shift-and-add smoothing thresholded as floats
    (:func:`neighbourhood_mean_scalar`), the re-enumerating cover
    (:func:`bitop_cover_scalar`) and the pairwise-rescan merge
    (:func:`merge_clusters_scalar`); pruning and the translation to
    rules are the pipeline's own.  Binary smoothing only.
    """
    config = config or ClustererConfig()
    if config.support_weighted:
        raise ValueError("the scalar pipeline smooths binary grids only")
    n_x, n_y = bin_array.n_x, bin_array.n_y
    raw = np.zeros((n_x, n_y), dtype=bool)
    for i, j in rule_pairs_scalar(bin_array, rhs_code, min_support,
                                  min_confidence):
        raw[i, j] = True
    cells = raw.copy()
    if config.smoothing and min(n_x, n_y) >= config.smoothing_min_axis:
        for _ in range(config.smoothing_passes):
            mean = neighbourhood_mean_scalar(cells.astype(np.float64))
            cells = mean >= config.smoothing_threshold
    smoothed = RuleGrid(cells)
    clusters = bitop_cover_scalar(smoothed, config.min_cluster_cells)
    if config.merge_clusters:
        clusters = merge_clusters_scalar(
            clusters, smoothed, config.merge_cover_fraction
        )
    pruning = prune_clusters(clusters, (n_x, n_y),
                             fraction=config.prune_fraction)
    return ClusteringOutcome(
        raw_grid=RuleGrid(raw),
        smoothed_grid=smoothed,
        clusters=tuple(clusters),
        pruning=pruning,
        bin_array=bin_array,
        rhs_code=rhs_code,
    )
