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

The scan from start row ``s`` ANDs row ``s`` into the masks the scan
from ``s + 1`` produced, so every start row's emissions (its *chain*)
are built bottom-up from the chain below, one AND per emission rather
than one per row scanned.

The full clustering is the paper's greedy set cover: enumerate candidates,
take the largest, clear its cells, repeat — "such a greedy approach
produces near optimal clusters" (Cormen et al.), and runs in time linear in
the size of the final cluster set.  The cover does not re-enumerate the
whole grid per cluster: each start row caches its best candidate, and a
cleared rectangle only rebuilds the chains of the start rows whose scan
read its rows, one contiguous block.  Scoring builds no candidate
rectangles: it counts each mask's runs from its run-start bits, skips a
mask whose popcount times height cannot beat the best area so far, and
finds the lowest longest run of the rest with ANDs and shifts alone.

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
        for start, chain in enumerate(StartRowChains(rows).chains)
        for mask, height in chain
        for first_bit, length in runs_of_set_bits(mask)
    )
    metrics.inc("bitop.rectangles_enumerated", len(candidates))
    return candidates


#: A start row's ``(mask, height)`` emissions: each run of set bits in
#: ``mask`` is one candidate ``height`` rows tall, whose top edge is the
#: start row.  Heights ascend and each mask is a subset of the last.
Chain = list[tuple[int, int]]
#: A candidate keyed ``(-area, x_lo, x_hi, y_lo, y_hi)``, so the minimum
#: is the largest rectangle, ties going to the smallest in sorted order.
Candidate = tuple[int, int, int, int, int]


class StartRowChains:
    """Every start row's BitOp AND-scan of a row bitmap, kept current
    as rectangles are cleared from it.

    ``chains[s]`` is start row ``s``'s emissions, ``reach[s]`` the last
    row its scan reads and ``best[s]`` its best :data:`Candidate` (or
    ``None``).  ``enumerated`` counts the candidates of every chain
    built so far, rebuilt ones included.

    The scan from ``s`` reads row ``s`` and then the rows the scan from
    ``s + 1`` reads (stopping early if its own mask empties first), so
    each chain is derived from the one below it (:func:`_chain`) rather
    than by ANDing down the grid again, and the chains are built bottom
    up.  :func:`repro.perf.reference.scan_start_row_scalar` is the
    per-row scan each chain equals.
    """

    def __init__(self, rows: Sequence[int]):
        self.rows = rows
        n_rows = len(rows)
        self.chains: list[Chain] = [[]] * n_rows
        self.reach = [0] * n_rows
        self.best: list[Candidate | None] = [None] * n_rows
        self.enumerated = 0
        self._rebuild(n_rows - 1, -1)

    def clear(self, rect: GridRect) -> range:
        """Clear ``rect`` from the (mutable) rows and rebuild the chains
        that changed; return the start rows rebuilt.

        Only the scans that read a cleared row change: start rows ``s <=
        x_hi`` with ``reach[s] >= x_lo``.  A start row's reach is never
        past the reach of the row below it (or the row itself, when
        empty), so those rows are one contiguous block, found from
        ``x_hi`` upward.
        """
        _clear_rows(self.rows, rect)
        stop = rect.x_hi
        while stop >= 0 and (stop >= rect.x_lo
                             or self.reach[stop] >= rect.x_lo):
            stop -= 1
        self._rebuild(rect.x_hi, stop)
        return range(stop + 1, rect.x_hi + 1)

    def _rebuild(self, first: int, stop: int) -> None:
        """Rebuild start rows ``first`` down to ``stop + 1``, each from
        the chain below it."""
        rows, chains, reach, best = (
            self.rows, self.chains, self.reach, self.best
        )
        if first + 1 < len(rows):
            below, below_reach = chains[first + 1], reach[first + 1]
        else:
            below, below_reach = [], first
        enumerated = 0
        for start in range(first, stop, -1):
            below, below_reach, best[start], runs = _chain(
                rows[start], below, below_reach, start
            )
            chains[start], reach[start] = below, below_reach
            enumerated += runs
        self.enumerated += enumerated


def _chain(row: int, below: Chain, below_reach: int, start: int,
           ) -> tuple[Chain, int, Candidate | None, int]:
    """Start row ``start``'s chain, reach, best candidate and candidate
    count, from its ``row`` and the chain and reach of start row
    ``start + 1`` (for the last row: an empty chain and ``start``).

    The AND of rows ``start..start+h-1`` is ``row`` ANDed with the AND
    of rows ``start+1..start+h-1``, which is constant over each emission
    of the row below.  So ``row & mask`` over those emissions, with
    equal neighbours merged, is this row's chain: one AND per emission
    below, however many rows the scan spans.  Each emission is scored as
    it is produced.  Scoring builds no rectangles: a mask's runs start
    at its set bits whose lower neighbour is clear, a mask whose
    popcount times height cannot beat the best area so far is skipped,
    and a one-run mask's run is the mask itself.
    """
    if row == 0:
        return [], start, None, 0
    found: Chain = []
    top = None
    area = runs = 0
    mask = row
    height = 1
    emissions = iter(below)
    while True:
        # Walk the chain below while this row's AND stays unchanged.
        for below_mask, below_height in emissions:
            extended = row & below_mask
            if extended != mask:
                break
            height = below_height + 1
        else:
            extended = 0  # the scan below stopped, so this one stops
        found.append((mask, height))
        mask_runs = (mask & ~(mask << 1)).bit_count()
        runs += mask_runs
        cells = mask.bit_count()
        # Taller emissions come later, so on equal areas the earlier
        # one wins, as the (-area, x_hi, y_lo) order asks.
        if cells * height > area:
            if mask_runs == 1:
                first_bit, length = (mask & -mask).bit_length() - 1, cells
            else:
                first_bit, length = _longest_run(mask)
            if length * height > area:
                area = length * height
                top = (-area, start, start + height - 1,
                       first_bit, first_bit + length - 1)
        if extended == 0:
            # The scan read row start + height and found the AND empty,
            # or it ran off the grid where the scan below did.
            return found, min(start + height, below_reach), top, runs
        mask = extended
        height = below_height + 1


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
    """

    min_cells: int = 1

    def __post_init__(self) -> None:
        if self.min_cells < 1:
            raise ValueError("min_cells must be at least 1")

    def cluster(self, grid: RuleGrid) -> list[GridRect]:
        """Return a greedy rectangle cover of the set cells of ``grid``.

        The input grid is not modified.  Every returned rectangle was fully
        set at the moment it was selected, so rectangles may overlap the
        *original* set cells but never contain a cell that was clear.
        """
        with trace("bitop") as span:
            clusters = _greedy_cover(grid.row_bitmaps(), self.min_cells)
            metrics.inc("bitop.clusters_found", len(clusters))
            span.set("clusters_found", len(clusters))
            logger.debug("BitOp covered the grid with %d rectangles",
                         len(clusters))
        return clusters


def _greedy_cover(rows: list[int], min_cells: int) -> list[GridRect]:
    """Take the largest candidate, clear it, repeat — incrementally.

    Each start row keeps its best candidate in a
    :class:`StartRowChains`, and a clear rebuilds only the chains it
    changed; every other cached best still holds.  Matches the
    re-enumerate-everything loop of
    :func:`repro.perf.reference.bitop_cover_scalar` exactly.
    """
    scans = StartRowChains(rows)
    clusters: list[GridRect] = []
    while True:
        top = min(filter(None, scans.best), default=None)
        if top is None or -top[0] < min_cells:
            break
        rect = GridRect(*top[1:])
        clusters.append(rect)
        scans.clear(rect)
    metrics.inc("bitop.rectangles_enumerated", scans.enumerated)
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
