"""Cluster hull-merging: recovering whole rectangles from jagged covers.

With noisy boundaries (perturbed data, bin edges not aligned with the true
region edges) the greedy BitOp cover tends to produce one large rectangle
plus thin slivers along the ragged sides of what is really a single
region.  The paper consistently reports *exactly* the generating
rectangles ("in every experimental run ... ARCS always produced three
clustered association rules"), which implies its smoothing/clustering
combination reassembles such fragments; Section 5 likewise floats "more
advanced filters ... for purposes of detecting edges and corners of
clusters".

This module implements that reassembly as an explicit post-pass: two
clusters are merged into their bounding hull when the hull is almost
entirely made of set cells in the (smoothed) grid.  The cover-fraction
guard keeps genuinely separate regions apart — merging only happens when
the space "between" the fragments is itself rule-dense.  The pass repeats
greedily, always taking the best-covered merge first, until no admissible
pair remains.

The pass costs a heap over the cluster pairs, not a rescan per merge.
One integer summed-area table of the grid makes any rectangle's set-cell
count four lookups.  The fixed setup is batched: one vectorised
expression counts every input's set cells, and only inputs that are not
fully set are trimmed (BitOp covers are fully set, so a fit trims
none).  The upper triangle of initial pairs is then scored in a few
broadcasts, a block of rows at a time so the transient arrays stay
small, and the admissible pairs go into a heap keyed
``(-cover, -area, id_i, id_j)``.  Each merge retires its two ids, gives
the hull the next id and scores only that hull against the survivors;
a popped pair with a retired id is skipped.  Survivors keep their order
and the hull is appended, so id order is list order and the heap breaks
ties exactly like the pairwise rescan of
:func:`repro.perf.reference.merge_clusters_scalar`, the oracle this
function is tested ``==`` against.

Each merge is cheap.  The hull of two trimmed rectangles needs no trim:
each of its border lines is a border line of one of the two, which
holds a set cell.  Every hull edge is some input's edge, so the hulls
only look up the table at the inputs' edge rows and columns; that
compressed table is gathered once into Python lists and each new hull
is scored in plain Python, with the same integer counts and float64
division as the batched setup.  Each id counts its pending heap
entries, and when a merge leaves more than half the heap stale the live
entries are kept and re-heapified in one go.
"""

from __future__ import annotations

import heapq
import logging

from typing import Sequence

import numpy as np

from repro.core.grid import RuleGrid
from repro.core.rules import GridRect
from repro.core.smoothing import summed_area_table

logger = logging.getLogger(__name__)


def hull_cover_fraction(grid: RuleGrid, rect: GridRect) -> float:
    """Fraction of the rectangle's cells that are set in the grid."""
    block = grid.cells[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1]
    return float(block.sum()) / float(rect.area)


def merge_clusters(clusters: Sequence[GridRect], grid: RuleGrid,
                   cover_fraction: float = 0.8) -> list[GridRect]:
    """Greedily merge cluster pairs whose bounding hull is well covered.

    Parameters
    ----------
    clusters:
        The rectangles to consolidate (typically BitOp's greedy cover).
    grid:
        The grid the cover was computed on (smoothed, if smoothing ran);
        hull coverage is measured against its set cells.
    cover_fraction:
        A merge is admissible when at least this fraction of the hull's
        cells are set.  1.0 only merges hulls that are completely set
        (lossless); lower values tolerate ragged boundaries.

    Returns the consolidated rectangle list: the unmerged clusters in
    input order, then the merged hulls in the order they were formed.
    The best-covered admissible pair merges first; ties go to the larger
    hull, then to the earlier pair.  The result never covers a
    completely unset row or column band at its border: hulls are trimmed
    back to the bounding box of the set cells they contain, so a merge
    cannot stretch a cluster into empty space.
    """
    if not 0.0 < cover_fraction <= 1.0:
        raise ValueError("cover_fraction must be in (0, 1]")
    integral = summed_area_table(grid.cells.astype(np.int64))
    kept = _trim_inputs(grid, integral, clusters)
    n = len(kept)
    # Every hull edge is some input's edge, so the hulls only ever look
    # up these rows and columns of the table: score them in Python over
    # the compressed table, with clusters as half-open index bounds.
    xs = np.unique(np.concatenate((kept[:, 0], kept[:, 1] + 1)))
    ys = np.unique(np.concatenate((kept[:, 2], kept[:, 3] + 1)))
    table = integral[np.ix_(xs, ys)].tolist()
    # Live clusters by id, in id order.
    live = dict(enumerate(zip(
        *np.searchsorted(xs, (kept[:, 0], kept[:, 1] + 1)).tolist(),
        *np.searchsorted(ys, (kept[:, 2], kept[:, 3] + 1)).tolist(),
    )))
    xs, ys = xs.tolist(), ys.tolist()
    heap = _initial_pairs(integral, kept, cover_fraction)
    heapq.heapify(heap)
    pending = _pending_counts(heap, 2 * n - 1)
    stale = 0
    next_id = n
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending[i] -= 1
        pending[j] -= 1
        if i not in live or j not in live:
            stale -= 1
            continue
        # An upper bound on the entries this merge makes stale: one
        # whose other id died earlier was counted then too.
        stale += pending[i] + pending[j]
        # The hull of two trimmed clusters needs no trim: each border
        # line is one of theirs and holds one of its set cells.
        (a, b, c, d), (e, f, g, h) = live.pop(i), live.pop(j)
        a, b, c, d = min(a, e), max(b, f), min(c, g), max(d, h)
        for k, (e, f, g, h) in live.items():
            if a < e:
                e = a
            if b > f:
                f = b
            if c < g:
                g = c
            if d > h:
                h = d
            area = (xs[f] - xs[e]) * (ys[h] - ys[g])
            cover = (
                table[f][h] - table[e][h] - table[f][g] + table[e][g]
            ) / area
            if cover >= cover_fraction:
                heapq.heappush(heap, (-cover, -area, k, next_id))
                pending[k] += 1
                pending[next_id] += 1
        live[next_id] = (a, b, c, d)
        next_id += 1
        if 2 * stale > len(heap):
            # Keys are unique, so the live entries pop in the same order.
            heap = [entry for entry in heap
                    if entry[2] in live and entry[3] in live]
            heapq.heapify(heap)
            pending = _pending_counts(heap, 2 * n - 1)
            stale = 0
    result = [
        GridRect(xs[a], xs[b] - 1, ys[c], ys[d] - 1)
        for a, b, c, d in live.values()
    ]
    if len(result) != len(clusters):
        logger.debug(
            "hull-merged %d clusters into %d (cover_fraction=%g)",
            len(clusters), len(result), cover_fraction,
        )
    return result


#: Pairs scored per broadcast while the initial triangle is built.  It
#: bounds the transient arrays to about a MiB however many clusters
#: come in; the heap itself is the memory that grows with k.
_PAIR_BLOCK = 1 << 13


def _trim_inputs(grid: RuleGrid, integral: np.ndarray,
                 clusters: Sequence[GridRect]) -> np.ndarray:
    """The inputs' ``(x_lo, x_hi, y_lo, y_hi)`` rows, trimmed to content.

    One vectorised block sum counts every input's set cells.  Fully set
    inputs pass as they are, empty ones are dropped, and only the rest
    go through :func:`_trim_to_content`.  Bounds are clipped to the grid
    for the count, so an input reaching past the grid is trimmed back
    into it, as slicing does.
    """
    rects = np.array(
        [(rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi) for rect in clusters],
        dtype=np.int64,
    ).reshape(-1, 4)
    n_x, n_y = grid.cells.shape
    counts = _block_sums(
        integral,
        np.minimum(rects[:, 0], n_x), np.minimum(rects[:, 1] + 1, n_x),
        np.minimum(rects[:, 2], n_y), np.minimum(rects[:, 3] + 1, n_y),
    )
    areas = (rects[:, 1] - rects[:, 0] + 1) * (rects[:, 3] - rects[:, 2] + 1)
    for k in np.flatnonzero((counts > 0) & (counts < areas)).tolist():
        trimmed = _trim_to_content(grid, clusters[k])
        rects[k] = (trimmed.x_lo, trimmed.x_hi, trimmed.y_lo, trimmed.y_hi)
    return rects[counts > 0]


def _initial_pairs(integral: np.ndarray, bounds: np.ndarray,
                   cover_fraction: float,
                   ) -> list[tuple[float, int, int, int]]:
    """Score every pair ``i < j`` of ``bounds``' rows in one batched pass.

    Returns the heap entries ``(-cover, -area, i, j)`` of the admissible
    pairs.  The upper triangle is scored a block of rows at a time, each
    block about :data:`_PAIR_BLOCK` pairs, with the same float64 division
    as the per-merge scoring.
    """
    n = len(bounds)
    entries: list[tuple[float, int, int, int]] = []
    first = 0
    while first < n - 1:
        stop = min(n - 1, first + max(1, _PAIR_BLOCK // (n - first)))
        rows, cols = np.triu_indices(stop - first, k=1, m=n - first)
        rows += first
        cols += first
        covers, areas = _hull_scores(integral, bounds[rows], bounds[cols])
        keep = covers >= cover_fraction
        entries.extend(zip(
            (-covers[keep]).tolist(), (-areas[keep]).tolist(),
            rows[keep].tolist(), cols[keep].tolist(),
        ))
        first = stop
    return entries


def _pending_counts(heap: list[tuple[float, int, int, int]],
                    n_ids: int) -> list[int]:
    """How many of the heap's entries name each id."""
    pending = [0] * n_ids
    for _, _, i, j in heap:
        pending[i] += 1
        pending[j] += 1
    return pending


def _hull_scores(integral: np.ndarray, first: np.ndarray,
                 second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cover fractions and areas of the hulls of two broadcastable
    stacks of ``(x_lo, x_hi, y_lo, y_hi)`` rows.

    The cover is the integer set-cell count over the integer area
    divided in float64: the same correctly rounded
    ``float(count) / float(area)`` that :func:`hull_cover_fraction`
    returns.
    """
    x_lo = np.minimum(first[..., 0], second[..., 0])
    x_end = np.maximum(first[..., 1], second[..., 1]) + 1
    y_lo = np.minimum(first[..., 2], second[..., 2])
    y_end = np.maximum(first[..., 3], second[..., 3]) + 1
    areas = (x_end - x_lo) * (y_end - y_lo)
    return _block_sums(integral, x_lo, x_end, y_lo, y_end) / areas, areas


def _block_sums(integral: np.ndarray, x_lo: np.ndarray, x_end: np.ndarray,
                y_lo: np.ndarray, y_end: np.ndarray) -> np.ndarray:
    """Set-cell counts of the half-open blocks ``[x_lo, x_end) x
    [y_lo, y_end)``, four summed-area lookups each."""
    return (
        integral[x_end, y_end] - integral[x_lo, y_end]
        - integral[x_end, y_lo] + integral[x_lo, y_lo]
    )


def _trim_to_content(grid: RuleGrid,
                     rect: GridRect) -> GridRect | None:
    """Shrink a rectangle to the bounding box of its set cells.

    Returns ``None`` when the rectangle contains no set cells at all.
    """
    block = grid.cells[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1]
    if not block.any():
        return None
    rows = block.any(axis=1)
    cols = block.any(axis=0)
    first_row = int(rows.argmax())
    last_row = len(rows) - 1 - int(rows[::-1].argmax())
    first_col = int(cols.argmax())
    last_col = len(cols) - 1 - int(cols[::-1].argmax())
    return GridRect(
        rect.x_lo + first_row, rect.x_lo + last_row,
        rect.y_lo + first_col, rect.y_lo + last_col,
    )
