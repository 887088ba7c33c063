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
One integer summed-area table of the grid, taken once into Python
lists, makes any rectangle's set-cell count four lookups.  Every
cluster, input or merged hull, enters by one step: it gets the next id,
is scored against every live cluster in plain Python, and its
admissible pairs are pushed onto a heap keyed
``(-cover, -area, id_i, id_j)``.  An input is first counted in the
table: an empty one is dropped and only one that is partly set is
trimmed (BitOp covers are fully set, so a fit trims none).  Each merge
retires its two ids and inserts their hull; a popped pair with a
retired id is skipped.  Survivors keep their order and the hull is
appended, so id order is list order and the heap breaks ties exactly
like the pairwise rescan of
:func:`repro.perf.reference.merge_clusters_scalar`, the oracle this
function is tested ``==`` against.

The hull of two trimmed rectangles needs no trim: each of its border
lines is a border line of one of the two, which holds a set cell.  At
most ``n(n-1)/2`` heap entries can pair two of ``n`` live clusters, so
once the heap holds more than twice that, the live entries are kept and
re-heapified in one go.
"""

from __future__ import annotations

import heapq
import itertools
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
    n_x, n_y = grid.cells.shape
    table = summed_area_table(grid.cells.astype(np.int64)).tolist()
    # Live clusters by id, in id order, as half-open index bounds.
    live: dict[int, tuple[int, int, int, int]] = {}
    heap: list[tuple[float, int, int, int]] = []
    ids = itertools.count()
    for rect in clusters:
        # Clipped to the grid, so an input reaching past it is trimmed
        # back into it, as slicing does.
        a, b = min(rect.x_lo, n_x), min(rect.x_hi + 1, n_x)
        c, d = min(rect.y_lo, n_y), min(rect.y_hi + 1, n_y)
        count = table[b][d] - table[a][d] - table[b][c] + table[a][c]
        if count == 0:
            continue
        if count < rect.area:
            rect = _trim_to_content(grid, rect)
        _insert(live, heap, table, cover_fraction, next(ids),
                rect.x_lo, rect.x_hi + 1, rect.y_lo, rect.y_hi + 1)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if i not in live or j not in live:
            continue
        # The hull of two trimmed clusters needs no trim: each border
        # line is one of theirs and holds one of its set cells.
        (a, b, c, d), (e, f, g, h) = live.pop(i), live.pop(j)
        _insert(live, heap, table, cover_fraction, next(ids),
                min(a, e), max(b, f), min(c, g), max(d, h))
        n = len(live)
        if len(heap) > n * (n - 1):
            # Keys are unique, so the live entries pop in the same order.
            heap = [entry for entry in heap
                    if entry[2] in live and entry[3] in live]
            heapq.heapify(heap)
    result = [GridRect(a, b - 1, c, d - 1) for a, b, c, d in live.values()]
    if len(result) != len(clusters):
        logger.debug(
            "hull-merged %d clusters into %d (cover_fraction=%g)",
            len(clusters), len(result), cover_fraction,
        )
    return result


def _insert(live: dict[int, tuple[int, int, int, int]],
            heap: list[tuple[float, int, int, int]],
            table: list[list[int]], cover_fraction: float, new_id: int,
            a: int, b: int, c: int, d: int) -> None:
    """Make the trimmed cluster ``[a, b) x [c, d)`` live as ``new_id``,
    and push its admissible pairs with every live cluster onto the heap.

    A hull's cover is its integer set-cell count, four lookups into the
    summed-area ``table``, over its integer area: the same correctly
    rounded float64 that :func:`hull_cover_fraction` returns.
    """
    for k, (e, f, g, h) in live.items():
        if a < e:
            e = a
        if b > f:
            f = b
        if c < g:
            g = c
        if d > h:
            h = d
        area = (f - e) * (h - g)
        cover = (table[f][h] - table[e][h] - table[f][g] + table[e][g]) / area
        if cover >= cover_fraction:
            heapq.heappush(heap, (-cover, -area, k, new_id))
    live[new_id] = (a, b, c, d)


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
