"""The BitOp clustering algorithm (paper Section 3.3.1, Figure 6).

BitOp finds rectangular clusters of set cells in a bitmap grid using only
integer registers, bitwise AND and shifts.  For every start row it keeps a
running mask — the AND of the rows scanned so far.  While the mask is
unchanged the candidate rectangles keep growing taller; the moment the mask
changes (or empties, or the bitmap ends) each maximal run of consecutive
set bits in the *prior* mask is a candidate rectangle whose top edge is the
start row and whose height is the number of rows ANDed so far.

The published pseudocode (Figure 6) is OCR-garbled; this implementation
follows the worked example of Section 3.3.1 exactly and is validated in the
tests against a brute-force maximal-rectangle oracle.

The full clustering is the paper's greedy set cover: enumerate candidates,
take the largest, clear its cells, repeat — "such a greedy approach
produces near optimal clusters" (Cormen et al.), and runs in time linear in
the size of the final cluster set.  The cover does not re-enumerate the
whole grid per cluster: each start row caches its best candidate, and a
cleared rectangle only sends the start rows whose scan read its rows
back to the scanner.  A rescan builds no candidate rectangles: it
counts each mask's runs from its run-start bits, skips a mask whose
popcount times height cannot beat the best area so far, and finds the
lowest longest run of the rest with ANDs and shifts alone.

Two deliberately naive covers (:func:`single_cell_cover`,
:func:`component_bounding_boxes`) are included as ablation baselines: the
first is "no clustering at all" (one rule per cell), the second covers each
connected component with its bounding box (fast but over-covers concave
shapes, producing false positives BitOp avoids).
"""

from __future__ import annotations

import logging

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.grid import RuleGrid
from repro.core.rules import GridRect
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)


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
    """
    candidates = sorted(
        GridRect(start, start + height - 1, first_bit,
                 first_bit + length - 1)
        for start in range(len(rows))
        for mask, height in _scan_start_row(rows, start)[0]
        for first_bit, length in runs_of_set_bits(mask)
    )
    metrics.inc("bitop.rectangles_enumerated", len(candidates))
    return candidates


def _scan_start_row(rows: Sequence[int], start: int,
                    ) -> tuple[list[tuple[int, int]], int]:
    """BitOp's AND-scan from one start row.

    Returns the ``(mask, height)`` emissions whose top edge is ``start``
    (each run of set bits in ``mask`` is one candidate ``height`` rows
    tall, and heights ascend) and the last row the scan read.  The
    emissions depend only on rows ``start`` through that row, which is
    what lets the greedy cover rescan just the start rows a cleared
    rectangle touched.
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


def _longest_run(mask: int) -> tuple[int, int]:
    """The lowest of the longest runs of set bits in a nonzero ``mask``,
    as ``(first_bit, length)``.

    After ``k`` rounds of ANDing the mask with itself shifted down one
    bit, bit ``b`` is set exactly when bits ``b`` to ``b + k`` all are;
    the last nonempty mask marks where the longest runs start.
    """
    length = 0
    while mask:
        starts = mask
        mask &= mask >> 1
        length += 1
    return (starts & -starts).bit_length() - 1, length


def largest_rectangle(rows: Sequence[int]) -> GridRect | None:
    """The largest-area candidate rectangle, or ``None`` on an empty
    bitmap.  Candidates come back sorted, so ties break toward the
    lexicographically smallest rectangle and the cover is deterministic."""
    best: GridRect | None = None
    for rect in enumerate_rectangles(rows):
        if best is None or rect.area > best.area:
            best = rect
    return best


@dataclass(frozen=True)
class BitOpClusterer:
    """Greedy rectangle cover via BitOp (paper Sections 3.3.1 and 3.5).

    Parameters
    ----------
    min_cells:
        Terminate when the largest remaining rectangle covers fewer than
        this many cells ("if the algorithm cannot locate a sufficiently
        large cluster it terminates").  The default of 1 covers everything.
    max_clusters:
        Safety bound on the number of clusters returned; ``None`` means
        unbounded.  The paper's MDL step makes huge cluster counts
        uncompetitive anyway, so this is a guard rail, not policy.
    """

    min_cells: int = 1
    max_clusters: int | None = None

    def __post_init__(self) -> None:
        if self.min_cells < 1:
            raise ValueError("min_cells must be at least 1")
        if self.max_clusters is not None and self.max_clusters < 0:
            raise ValueError("max_clusters must be non-negative")

    def cluster(self, grid: RuleGrid) -> list[GridRect]:
        """Return a greedy rectangle cover of the set cells of ``grid``.

        The input grid is not modified.  Every returned rectangle was fully
        set at the moment it was selected, so rectangles may overlap the
        *original* set cells but never contain a cell that was clear.
        """
        with trace("bitop") as span:
            clusters = _greedy_cover(
                grid.row_bitmaps(), self.min_cells, self.max_clusters
            )
            metrics.inc("bitop.clusters_found", len(clusters))
            span.set("clusters_found", len(clusters))
            logger.debug("BitOp covered the grid with %d rectangles",
                         len(clusters))
        return clusters


def _greedy_cover(rows: list[int], min_cells: int,
                  max_clusters: int | None) -> list[GridRect]:
    """Take the largest candidate, clear it, repeat — incrementally.

    Each start row caches its best candidate, keyed ``(-area, x_lo,
    x_hi, y_lo, y_hi)`` so the minimum is :func:`largest_rectangle`'s
    choice, and the last row its scan read.  Clearing only removes bits,
    so a cleared rectangle changes the scan of start row ``s`` only when
    ``s <= x_hi`` and the scan reached ``x_lo``; every other cached best
    still holds.  Matches the re-enumerate-everything loop of
    :func:`repro.perf.reference.bitop_cover_scalar` exactly.
    """
    best: list[tuple[int, int, int, int, int] | None] = [None] * len(rows)
    reach = [0] * len(rows)
    enumerated = 0

    def rescan(start: int) -> None:
        nonlocal enumerated
        emissions, reach[start] = _scan_start_row(rows, start)
        top = None
        area = 0
        for mask, height in emissions:
            # One candidate per run, and a run starts at each set bit
            # whose lower neighbour is clear.
            enumerated += (mask & ~(mask << 1)).bit_count()
            # Taller emissions come later, so on equal areas the earlier
            # one wins, as the (-area, x_hi, y_lo) order asks.
            if mask.bit_count() * height <= area:
                continue
            first_bit, length = _longest_run(mask)
            if length * height > area:
                area = length * height
                top = (-area, start, start + height - 1,
                       first_bit, first_bit + length - 1)
        best[start] = top

    for start in range(len(rows)):
        rescan(start)
    clusters: list[GridRect] = []
    while max_clusters is None or len(clusters) < max_clusters:
        top = min(filter(None, best), default=None)
        if top is None or -top[0] < min_cells:
            break
        rect = GridRect(*top[1:])
        clusters.append(rect)
        _clear_rows(rows, rect)
        for start in range(rect.x_hi + 1):
            if reach[start] >= rect.x_lo:
                rescan(start)
    metrics.inc("bitop.rectangles_enumerated", enumerated)
    return clusters


def _clear_rows(rows: list[int], rect: GridRect) -> None:
    """Clear a rectangle from the row-bitmap form in place.

    Rows are indexed by x; bits within a row are y positions, so the bit
    run to clear spans the rectangle's y extent (``rect.height``).
    """
    span_mask = ((1 << rect.height) - 1) << rect.y_lo
    clear = ~span_mask
    for i in range(rect.x_lo, rect.x_hi + 1):
        rows[i] &= clear


# ----------------------------------------------------------------------
# Ablation baselines (DESIGN.md experiment A2)
# ----------------------------------------------------------------------
def single_cell_cover(grid: RuleGrid) -> list[GridRect]:
    """The no-clustering baseline: one 1x1 rectangle per set cell.

    This is what plain (unclustered) association rule output corresponds
    to, and what the paper's clustered rules are meant to collapse.
    """
    return [GridRect(i, i, j, j) for i, j in grid.set_pairs()]


def component_bounding_boxes(grid: RuleGrid) -> list[GridRect]:
    """Cover each 4-connected component of set cells with its bounding box.

    A classic image-processing alternative: cheap, but a concave component
    gets a box containing unset cells, i.e. false-positive area that BitOp's
    exact rectangles avoid.  Used by the ablation benchmarks.
    """
    cells = grid.cells
    visited = np.zeros_like(cells)
    boxes: list[GridRect] = []
    for i, j in np.argwhere(cells & ~visited):
        if visited[i, j]:
            continue
        # Breadth-first flood fill of the component.
        stack = [(int(i), int(j))]
        visited[i, j] = True
        x_lo = x_hi = int(i)
        y_lo = y_hi = int(j)
        while stack:
            x, y = stack.pop()
            x_lo, x_hi = min(x_lo, x), max(x_hi, x)
            y_lo, y_hi = min(y_lo, y), max(y_hi, y)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx, ny = x + dx, y + dy
                inside = 0 <= nx < grid.n_x and 0 <= ny < grid.n_y
                if inside and cells[nx, ny] and not visited[nx, ny]:
                    visited[nx, ny] = True
                    stack.append((nx, ny))
        boxes.append(GridRect(x_lo, x_hi, y_lo, y_hi))
    return boxes


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
                    if not grid.covers(rect):
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
