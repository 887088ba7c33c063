"""Grid smoothing: the low-pass filter preprocessing step (Section 3.4).

Real grids arrive with jagged edges and small holes where no rule cleared
the thresholds (paper Figure 7a); those anomalies fragment what should be
one large cluster.  Before clustering, ARCS therefore passes the grid
through a two-dimensional *low-pass filter*: each cell is replaced by the
average of its neighbourhood, which fills pinholes, erodes isolated noise
cells and straightens edges (Figure 7b).

The paper omits the filter's details "for brevity"; here the filter is a
3x3 box mean with edge cells normalised by their actual neighbour count,
followed by a configurable activation threshold (default 0.5: a cell
survives iff at least half of its neighbourhood, itself included, is set).
On a binary grid the filter stays in integers: the window sums are
separable slice additions (:func:`window_sums`), and a cell survives iff
its sum reaches the least integer whose mean clears the threshold for
its window's size, which is exactly the float test.
Section 5 reports "promising results" from smoothing the association rule
*support values* instead of the binary grid; :func:`smooth_support`
implements that variant.
"""

from __future__ import annotations

import logging
import math
from functools import lru_cache

import numpy as np

from repro.core.grid import RuleGrid
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)


def summed_area_table(values: np.ndarray) -> np.ndarray:
    """The integral image of a 2-D grid, zero-padded on the low edges.

    ``table[i, j]`` is the sum of ``values[:i, :j]`` in ``values``'s own
    dtype, so the sum over the inclusive block ``[x_lo..x_hi] x
    [y_lo..y_hi]`` is the four-lookup difference ``table[x_hi+1, y_hi+1]
    - table[x_lo, y_hi+1] - table[x_hi+1, y_lo] + table[x_lo, y_lo]``.
    Integer input keeps every block sum exact.
    """
    n_x, n_y = values.shape
    table = np.zeros((n_x + 1, n_y + 1), dtype=values.dtype)
    table[1:, 1:] = values.cumsum(axis=0).cumsum(axis=1)
    return table


def window_sums(values: np.ndarray, radius: int,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sliding ``(2*radius+1)`` square window sums and window sizes.

    The box filter (the paper's "low-pass filter") is separable: a
    window sum is the sum over ``2*radius+1`` rows of each row's sum
    over ``2*radius+1`` columns.  Each of two passes sums along the
    first axis of the transposed grid, adding it to itself shifted by
    ``1..radius`` rows either way, so every addition is a contiguous
    block of rows; the second transpose restores the orientation.  A
    radius-1 filter is four slice additions where the shift-and-add
    reference (:func:`repro.perf.reference.neighbourhood_mean_scalar`)
    pays nine grid passes.  A shifted slice only reaches cells inside
    the grid, so windows are truncated at the edge; the returned
    ``counts`` are the actual window areas (read-only, shared per shape
    and radius).

    Boolean and integer grids are summed in int64, so every window sum
    is exact; anything else is summed as float64 and agrees with direct
    summation to rounding.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {values.shape}")
    if radius < 1:
        raise ValueError("radius must be at least 1")
    dtype = np.int64 if values.dtype.kind in "biu" else np.float64
    sums = values
    for _ in range(2):
        grid = sums.T.astype(dtype, order="C")
        sums = grid.copy()
        for shift in range(1, radius + 1):
            sums[shift:] += grid[:-shift]
            sums[:-shift] += grid[shift:]
    return sums, _window_areas(*values.shape, radius)


@lru_cache(maxsize=64)
def _window_areas(n_x: int, n_y: int, radius: int) -> np.ndarray:
    """The area of each cell's edge-truncated window, as float64."""
    rows = np.arange(n_x)
    cols = np.arange(n_y)
    height = np.minimum(rows + radius + 1, n_x) - np.maximum(rows - radius, 0)
    width = np.minimum(cols + radius + 1, n_y) - np.maximum(cols - radius, 0)
    areas = (height[:, None] * width[None, :]).astype(np.float64)
    areas.setflags(write=False)
    return areas


@lru_cache(maxsize=64)
def _activation_sums(n_x: int, n_y: int, radius: int,
                     threshold: float) -> np.ndarray:
    """Per cell, the least window sum ``s`` whose mean ``s / area``
    reaches ``threshold``, so ``sums >= need`` is ``sums / areas >=
    threshold`` without a division.  Each candidate is checked with the
    same float division and comparison, so the two agree exactly."""
    areas, inverse = np.unique(_window_areas(n_x, n_y, radius),
                               return_inverse=True)
    least = []
    for area in areas.tolist():
        total = max(1, math.ceil(threshold * area))
        while total > 1 and (total - 1) / area >= threshold:
            total -= 1
        while total / area < threshold:
            total += 1
        least.append(total)
    need = np.array(least, dtype=np.int64)[inverse].reshape(n_x, n_y)
    need.setflags(write=False)
    return need


def neighbourhood_mean(values: np.ndarray, radius: int = 1) -> np.ndarray:
    """Mean of each cell's ``(2*radius+1)`` square neighbourhood (itself
    included), with border neighbourhoods truncated at the grid edge rather
    than padded — so an edge cell is never diluted by phantom zeros."""
    sums, counts = window_sums(values, radius)
    return sums / counts


def smooth_binary(grid: RuleGrid, threshold: float = 0.5,
                  passes: int = 1, radius: int = 1) -> RuleGrid:
    """Low-pass filter a binary rule grid (the paper's default smoothing).

    Each pass replaces the grid with ``neighbourhood_mean >= threshold``.
    One pass with threshold 0.5 fills single-cell holes inside dense
    regions and removes isolated single cells; more passes smooth more
    aggressively.  Returns a new grid.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if passes < 0:
        raise ValueError("passes must be non-negative")
    with trace("smooth", variant="binary", passes=passes) as span:
        # The window sums of a 0/1 grid are exact integers, so each pass
        # compares them with the integer activation sums: the same cells
        # as the float mean's ``>= threshold``, with no casts or
        # divisions between passes.
        cells = grid.cells
        need = _activation_sums(grid.n_x, grid.n_y, radius, threshold)
        for _ in range(passes):
            sums, _ = window_sums(cells, radius)
            cells = sums >= need
        smoothed = cells if passes else cells.copy()
        flipped = int(np.count_nonzero(smoothed != grid.cells))
        metrics.inc("smoothing.cells_flipped", flipped)
        span.set("cells_flipped", flipped)
        logger.debug("binary smoothing flipped %d cells (%d passes)",
                     flipped, passes)
    return RuleGrid(smoothed)


def smooth_support(support_grid: np.ndarray, min_support: float,
                   passes: int = 1, radius: int = 1) -> RuleGrid:
    """Support-weighted smoothing (the Section 5 extension).

    Instead of thresholding first and smoothing the resulting bits, the
    per-cell *support values* are low-pass filtered and only then compared
    against the minimum support.  A pinhole surrounded by high-support
    cells inherits enough mass to survive, while a lone marginal cell is
    averaged away — using the magnitude information the binary variant
    discards.
    """
    if min_support < 0.0:
        raise ValueError("min_support must be non-negative")
    if passes < 1:
        raise ValueError("passes must be at least 1")
    with trace("smooth", variant="support", passes=passes) as span:
        values = np.asarray(support_grid, dtype=np.float64)
        original = values >= min_support
        for _ in range(passes):
            values = neighbourhood_mean(values, radius=radius)
        smoothed = values >= min_support
        flipped = int(np.sum(smoothed != original))
        metrics.inc("smoothing.cells_flipped", flipped)
        span.set("cells_flipped", flipped)
        logger.debug("support smoothing flipped %d cells (%d passes)",
                     flipped, passes)
    return RuleGrid(smoothed)
