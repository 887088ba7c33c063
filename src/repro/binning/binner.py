"""The Binner: one streaming pass from tuples to a BinArray (Section 3.1).

"The binner reads in tuples from the database and replaces the tuples'
attribute values with their corresponding bin number"; as it streams it
indexes the 2-D BinArray and bumps the per-RHS-value and total counters.
Changing the number of bins restarts the system (the BinArray must be
rebuilt), but changing support/confidence thresholds later never touches
the data again.

:class:`Binner` is the reusable object (fit layouts once, consume chunks);
:func:`bin_table` is the one-call convenience for in-memory tables.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.binning.bin_array import BinArray
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import (
    EQUI_WIDTH,
    BinLayout,
    make_layout,
)
from repro.data.schema import Table
from repro.data.summary import profile_bin_array
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)


def record_occupancy(bin_array: BinArray) -> None:
    """Publish a BinArray's occupancy statistics (one shared
    :func:`~repro.data.summary.profile_bin_array` pass) as the
    ``binner.*`` occupancy gauges."""
    profile = profile_bin_array(bin_array)
    metrics.set_gauge("binner.grid_cells", profile.grid_cells)
    metrics.set_gauge("binner.cells_occupied", profile.occupied_cells)
    metrics.set_gauge("binner.occupancy_fraction",
                      profile.occupancy_fraction)


@dataclass
class Binner:
    """Streams tuples into a :class:`BinArray`.

    Build one with :meth:`fit` (which fixes the bin layouts and the RHS
    encoding), then call :meth:`consume` for each chunk.  The accumulated
    :attr:`bin_array` is valid after any number of chunks.
    """

    x_layout: BinLayout
    y_layout: BinLayout
    rhs_attribute: str
    rhs_encoding: CategoricalEncoding
    bin_array: BinArray

    @classmethod
    def fit(cls, reference: Table, x_attribute: str, y_attribute: str,
            rhs_attribute: str, n_bins_x: int, n_bins_y: int,
            strategy: str = EQUI_WIDTH,
            target_value=None) -> "Binner":
        """Fix layouts and encoding from a reference table.

        ``reference`` supplies the value ranges (declared domains are
        preferred) and, for data-driven strategies, the values the edges
        are computed from.  It can be the full table or a representative
        sample — the layouts are then reused for any stream with the same
        schema.  Pass ``target_value`` to build the BinArray in the paper's
        reduced single-target memory mode.
        """
        x_spec = reference.spec(x_attribute)
        y_spec = reference.spec(y_attribute)
        if not (x_spec.is_quantitative and y_spec.is_quantitative):
            raise ValueError(
                "LHS attributes must be quantitative; use "
                "repro.extensions.categorical_lhs for categorical LHS"
            )
        x_low, x_high = reference.observed_range(x_attribute)
        y_low, y_high = reference.observed_range(y_attribute)
        x_layout = make_layout(
            strategy, x_attribute, reference.column(x_attribute),
            n_bins_x, low=x_low, high=x_high,
        )
        y_layout = make_layout(
            strategy, y_attribute, reference.column(y_attribute),
            n_bins_y, low=y_low, high=y_high,
        )
        rhs_encoding = CategoricalEncoding(
            rhs_attribute, reference.categorical_values(rhs_attribute)
        )
        target_code = (
            None if target_value is None
            else rhs_encoding.code_of(target_value)
        )
        bin_array = BinArray(
            x_layout, y_layout, rhs_encoding, target_code=target_code
        )
        return cls(
            x_layout=x_layout,
            y_layout=y_layout,
            rhs_attribute=rhs_attribute,
            rhs_encoding=rhs_encoding,
            bin_array=bin_array,
        )

    def consume(self, chunk: Table) -> None:
        """Bin one chunk of tuples into the BinArray."""
        x_bins = self.x_layout.assign(chunk.column(self.x_layout.attribute))
        y_bins = self.y_layout.assign(chunk.column(self.y_layout.attribute))
        rhs_codes = self.rhs_encoding.encode(
            chunk.categorical_column(self.rhs_attribute)
        )
        self.bin_array.add_chunk(x_bins, y_bins, rhs_codes)
        metrics.inc("binner.tuples_binned", len(chunk))
        metrics.inc("binner.chunks_consumed")

    def record_occupancy(self) -> None:
        """Publish the BinArray's occupancy statistics as gauges."""
        record_occupancy(self.bin_array)

    def consume_all(self, chunks: Iterable[Table]) -> BinArray:
        """Consume an iterable of chunks and return the BinArray."""
        for chunk in chunks:
            self.consume(chunk)
        return self.bin_array

    def assign_points(self, table: Table) -> tuple[np.ndarray, np.ndarray]:
        """Bin the LHS columns of ``table`` without accumulating counts.

        The verifier uses this to locate sample tuples on the grid.
        """
        x_bins = self.x_layout.assign(table.column(self.x_layout.attribute))
        y_bins = self.y_layout.assign(table.column(self.y_layout.attribute))
        return x_bins, y_bins


def bin_table(table: Table, x_attribute: str, y_attribute: str,
              rhs_attribute: str, n_bins_x: int = 50, n_bins_y: int = 50,
              strategy: str = EQUI_WIDTH, target_value=None,
              chunk_rows: int = 65536) -> Binner:
    """Fit a :class:`Binner` on ``table`` and stream the table through it.

    This is the paper's single pass: layouts come from the declared
    domains, then the data flows through in chunks.  Returns the binner
    (whose :attr:`~Binner.bin_array` is fully populated).
    """
    with trace("bin", strategy=strategy, n_bins_x=n_bins_x,
               n_bins_y=n_bins_y) as span:
        binner = Binner.fit(
            table, x_attribute, y_attribute, rhs_attribute,
            n_bins_x, n_bins_y, strategy=strategy,
            target_value=target_value,
        )
        binner.consume_all(table.iter_chunks(chunk_rows))
        binner.record_occupancy()
        span.set("tuples", len(table))
        logger.info(
            "binned %d tuples into a %dx%d %s grid (%d occupied cells)",
            len(table), n_bins_x, n_bins_y, strategy,
            int(np.count_nonzero(binner.bin_array.totals)),
        )
    return binner
