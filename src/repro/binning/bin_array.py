"""The BinArray: ARCS's in-memory count cube (paper Section 3.1).

For every ``(bin_x, bin_y)`` cell the BinArray holds the number of tuples
per RHS (segmentation) value and the cell's total tuple count — the paper's
``n_x * n_y * (n_seg + 1)`` array.  It is the only state the system keeps
about the data, which is what gives ARCS its constant-memory, single-pass
profile and makes re-mining at different thresholds "nearly instantaneous":
support and confidence of every candidate rule are pure array lookups.

A *single-target* memory mode mirrors the paper's ``n_seg = 1`` fallback:
only the criterion value's counts (plus totals) are kept, halving the cube
for high-cardinality RHS attributes at the cost of needing a re-bin to
segment on a different criterion value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import BinLayout


@dataclass
class BinArray:
    """Per-cell tuple counts over the binned two-attribute space.

    Attributes
    ----------
    x_layout, y_layout:
        The bin layouts of the two LHS attributes.
    rhs_encoding:
        Encoding of the RHS attribute's values.  In single-target mode this
        still names the full domain; only the stored counts shrink.
    target_code:
        ``None`` for the full cube; otherwise the single RHS code whose
        counts are kept.
    """

    x_layout: BinLayout
    y_layout: BinLayout
    rhs_encoding: CategoricalEncoding
    target_code: int | None = None
    counts: np.ndarray = field(init=False, repr=False)
    totals: np.ndarray = field(init=False, repr=False)
    n_total: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        n_x, n_y = self.x_layout.n_bins, self.y_layout.n_bins
        n_seg = 1 if self.target_code is not None else (
            self.rhs_encoding.cardinality
        )
        self.counts = np.zeros((n_x, n_y, n_seg), dtype=np.int64)
        self.totals = np.zeros((n_x, n_y), dtype=np.int64)
        self.n_total = 0

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_x(self) -> int:
        return self.x_layout.n_bins

    @property
    def n_y(self) -> int:
        return self.y_layout.n_bins

    @property
    def single_target(self) -> bool:
        return self.target_code is not None

    # ------------------------------------------------------------------
    # Accumulation (one streaming pass) and expiry (windowed streams)
    # ------------------------------------------------------------------
    def _validate_chunk(self, x_bins: np.ndarray, y_bins: np.ndarray,
                        rhs_codes: np.ndarray) -> None:
        """Reject malformed chunks before any counter is touched.

        A silent out-of-range index would either crash ``np.bincount``
        with an opaque message (negative values) or *alias* into a
        neighbouring cell through the flattened index arithmetic
        (too-large values) — both are data corruption, so every chunk is
        bounds-checked here, shared by :meth:`add_chunk` and
        :meth:`remove_chunk`.
        """
        if not (len(x_bins) == len(y_bins) == len(rhs_codes)):
            raise ValueError("chunk arrays must have equal length")
        for label, values, bound in (
            ("x_bins", x_bins, self.n_x),
            ("y_bins", y_bins, self.n_y),
            ("rhs_codes", rhs_codes, self.rhs_encoding.cardinality),
        ):
            # One pass: viewed unsigned, a negative index is huge.
            if len(values) == 0 or values.view(np.uint64).max() < bound:
                continue
            low = int(values.min())
            bad = low if low < 0 else int(values.max())
            raise ValueError(
                f"{label} contains index {bad}, outside the valid "
                f"range [0, {bound})"
            )

    def add_chunk(self, x_bins: np.ndarray, y_bins: np.ndarray,
                  rhs_codes: np.ndarray) -> None:
        """Accumulate one chunk of binned tuples.

        ``x_bins``/``y_bins`` are bin indices from the layouts;
        ``rhs_codes`` are RHS codes from the encoding.  All three arrays
        must be the same length, and every index must be in range
        (:meth:`_validate_chunk`).

        The scatter is a :func:`np.bincount` over flattened cell indices
        (an order of magnitude faster than ``np.add.at``'s generic
        buffered scatter; see ``benchmarks/perf_budget.py``).  Counts are
        integers, so the result is bit-identical to the per-tuple
        reference path (:func:`repro.perf.reference.add_chunk_scalar`).
        """
        x_bins = np.asarray(x_bins, dtype=np.int64)
        y_bins = np.asarray(y_bins, dtype=np.int64)
        rhs_codes = np.asarray(rhs_codes, dtype=np.int64)
        self._validate_chunk(x_bins, y_bins, rhs_codes)
        if len(x_bins) == 0:
            return
        count_delta, total_delta = self._chunk_grids(
            x_bins, y_bins, rhs_codes
        )
        self.totals += total_delta
        if self.single_target:
            self.counts[:, :, 0] += count_delta
        else:
            self.counts += count_delta
        self.n_total += len(x_bins)

    def remove_chunk(self, x_bins: np.ndarray, y_bins: np.ndarray,
                     rhs_codes: np.ndarray) -> None:
        """Expire one chunk of previously accumulated binned tuples.

        The exact inverse of :meth:`add_chunk` — the BinArray is an
        additive counter grid, so a window of tuples can slide or tumble
        without replaying the stream: expired tuples are subtracted as a
        delta.  Removing a chunk that was never added (any counter would
        go negative) raises :class:`ValueError` and leaves the array
        untouched; bounds validation is shared with :meth:`add_chunk`.

        Integer subtraction over the same :func:`np.bincount` grids as
        the accumulation path keeps the result bit-identical to the
        per-tuple reference (:func:`repro.perf.reference.remove_chunk_scalar`).
        """
        x_bins = np.asarray(x_bins, dtype=np.int64)
        y_bins = np.asarray(y_bins, dtype=np.int64)
        rhs_codes = np.asarray(rhs_codes, dtype=np.int64)
        self._validate_chunk(x_bins, y_bins, rhs_codes)
        if len(x_bins) == 0:
            return
        count_delta, total_delta = self._chunk_grids(
            x_bins, y_bins, rhs_codes
        )
        counts = (
            self.counts[:, :, 0] if self.single_target else self.counts
        )
        # Check-then-apply: a failed removal must not corrupt the grid.
        if (total_delta > self.totals).any() or (
            count_delta > counts
        ).any():
            raise ValueError(
                "remove_chunk would drive cell counts negative; the "
                "chunk was not (fully) accumulated in this BinArray"
            )
        self.totals -= total_delta
        counts -= count_delta
        self.n_total -= len(x_bins)

    def _chunk_grids(self, x_bins: np.ndarray, y_bins: np.ndarray,
                     rhs_codes: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The per-cell delta grids one chunk contributes.

        Returns ``(count_delta, total_delta)``: the totals grid is
        always ``(n_x, n_y)``; the counts grid is ``(n_x, n_y)`` in
        single-target mode and ``(n_x, n_y, n_seg)`` otherwise.
        """
        n_x, n_y = self.n_x, self.n_y
        flat_cells = x_bins * n_y + y_bins
        total_delta = np.bincount(
            flat_cells, minlength=n_x * n_y
        ).reshape(n_x, n_y)
        if self.single_target:
            hit_cells = flat_cells[rhs_codes == self.target_code]
            count_delta = np.bincount(
                hit_cells, minlength=n_x * n_y
            ).reshape(n_x, n_y)
        else:
            n_seg = self.counts.shape[2]
            flat = flat_cells * n_seg + rhs_codes
            count_delta = np.bincount(
                flat, minlength=n_x * n_y * n_seg
            ).reshape(n_x, n_y, n_seg)
        return count_delta, total_delta

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _slot(self, rhs_code: int) -> int:
        if self.single_target:
            if rhs_code != self.target_code:
                raise ValueError(
                    f"BinArray was built in single-target mode for code "
                    f"{self.target_code}; cannot query code {rhs_code}"
                )
            return 0
        if not 0 <= rhs_code < self.rhs_encoding.cardinality:
            raise ValueError(f"RHS code {rhs_code} out of range")
        return rhs_code

    def count_grid(self, rhs_code: int) -> np.ndarray:
        """Per-cell tuple counts for one RHS value, shape ``(n_x, n_y)``."""
        return self.counts[:, :, self._slot(rhs_code)]

    def support_grid(self, rhs_code: int) -> np.ndarray:
        """Per-cell support (fraction of all tuples) for one RHS value."""
        if self.n_total == 0:
            return np.zeros((self.n_x, self.n_y))
        return self.count_grid(rhs_code) / float(self.n_total)

    # ------------------------------------------------------------------
    # Threshold enumeration (paper Figure 10)
    # ------------------------------------------------------------------
    def unique_support_counts(self, rhs_code: int) -> np.ndarray:
        """The distinct nonzero per-cell counts for the RHS value, sorted
        ascending — the support axis of the paper's threshold structure."""
        counts = self.count_grid(rhs_code)
        distinct = np.unique(counts[counts > 0])
        return distinct

    def unique_confidences(self, rhs_code: int,
                           min_count: int = 1) -> np.ndarray:
        """Distinct confidences among cells whose count is at least
        ``min_count``, sorted ascending — one confidence list of the
        paper's Figure 10 structure."""
        counts = self.count_grid(rhs_code)
        mask = counts >= max(1, min_count)
        if not mask.any():
            return np.array([], dtype=np.float64)
        confidences = counts[mask] / self.totals[mask].astype(np.float64)
        return np.unique(confidences)

    # ------------------------------------------------------------------
    # Region aggregation (used when clusters are scored on the BinArray)
    # ------------------------------------------------------------------
    def region_counts(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int,
                      rhs_code: int) -> tuple[int, int]:
        """Return ``(target_count, total_count)`` over an inclusive bin
        rectangle, the aggregates behind a clustered rule's support and
        confidence."""
        if not (0 <= x_lo <= x_hi < self.n_x):
            raise ValueError(f"x range {x_lo}..{x_hi} out of bounds")
        if not (0 <= y_lo <= y_hi < self.n_y):
            raise ValueError(f"y range {y_lo}..{y_hi} out of bounds")
        block = self.count_grid(rhs_code)[x_lo:x_hi + 1, y_lo:y_hi + 1]
        totals = self.totals[x_lo:x_hi + 1, y_lo:y_hi + 1]
        return int(block.sum()), int(totals.sum())
