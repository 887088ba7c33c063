"""The bitmap grid of qualifying rule cells (paper Section 2.2).

After the rule engine emits the ``(i, j)`` pairs whose support and
confidence clear the thresholds for the target RHS value, the pairs become
a two-dimensional bitmap: cell ``(i, j)`` is set iff the rule
``X = i AND Y = j => C = target`` holds.  BitOp consumes the grid as one
arbitrary-precision integer per x-row (bit ``j`` of row ``i`` is cell
``(i, j)``), so the bitwise-AND and shift operations of paper Figure 6 are
literal machine/bigint operations here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from repro.core.rules import GridRect


@dataclass
class RuleGrid:
    """A boolean grid over bin space; ``cells[i, j]`` is x-bin i, y-bin j."""

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=bool)
        if cells.ndim != 2:
            raise ValueError(f"grid must be 2-D, got shape {cells.shape}")
        self.cells = cells

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n_x: int, n_y: int) -> "RuleGrid":
        return cls(np.zeros((n_x, n_y), dtype=bool))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], n_x: int,
                   n_y: int) -> "RuleGrid":
        """Plot raw ``(i, j)`` pairs (the engine's output form).

        All cells are set with one fancy-index assignment after one
        vectorised bounds check; a negative or too-large index raises
        :class:`ValueError` naming the first such pair.
        """
        grid = cls.empty(n_x, n_y)
        cells = np.fromiter(chain.from_iterable(pairs),
                            dtype=np.intp).reshape(-1, 2)
        rows, cols = cells[:, 0], cells[:, 1]
        outside = (rows < 0) | (rows >= n_x) | (cols < 0) | (cols >= n_y)
        if outside.any():
            i, j = cells[outside.argmax()].tolist()
            raise ValueError(f"rule cell ({i}, {j}) outside {n_x}x{n_y} grid")
        grid.cells[rows, cols] = True
        return grid

    # ------------------------------------------------------------------
    # Shape and content
    # ------------------------------------------------------------------
    @property
    def n_x(self) -> int:
        return self.cells.shape[0]

    @property
    def n_y(self) -> int:
        return self.cells.shape[1]

    @property
    def n_set(self) -> int:
        """Number of set cells."""
        return int(self.cells.sum())

    def set_pairs(self) -> list[tuple[int, int]]:
        """The set cells as sorted ``(x, y)`` pairs of Python ints."""
        rows, cols = np.nonzero(self.cells)
        return list(zip(rows.tolist(), cols.tolist()))

    def copy(self) -> "RuleGrid":
        return RuleGrid(self.cells.copy())

    # ------------------------------------------------------------------
    # Bitmap form (BitOp input)
    # ------------------------------------------------------------------
    def row_bitmaps(self) -> list[int]:
        """One Python int per x-row; bit ``j`` set iff cell ``(i, j)`` is.

        Python ints are arbitrary precision, so a row of any width is one
        "register" and the AND/shift operations BitOp needs are single
        operations, mirroring the paper's implementation note.

        The whole grid is packed at once, each row padded to whole
        64-bit words and read as little-endian ``uint64``, so one
        ``tolist`` gives every row's low word as a Python int; each
        further word column, in grids wider than 64 cells, is shifted
        into place.  Same values as OR-ing ``1 << j`` per set cell
        (:func:`repro.perf.reference.row_bitmaps_scalar` is the oracle).
        """
        n_words = max(1, -(-self.n_y // 64))
        padded = np.zeros((self.n_x, 64 * n_words), dtype=bool)
        padded[:, :self.n_y] = self.cells
        words = np.packbits(padded, axis=1, bitorder="little").view("<u8")
        rows = words[:, 0].tolist()
        for k in range(1, n_words):
            rows = [row | (word << (64 * k))
                    for row, word in zip(rows, words[:, k].tolist())]
        return rows

    # ------------------------------------------------------------------
    # Rectangle operations
    # ------------------------------------------------------------------
    def set_rect(self, rect: GridRect) -> None:
        """Set the cells of ``rect`` in place (test fixture helper)."""
        self.cells[rect.x_lo:rect.x_hi + 1, rect.y_lo:rect.y_hi + 1] = True
