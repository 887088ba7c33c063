"""The specialised single-pass rule engine (paper Section 3.2, Figure 3).

Every BinArray cell *is* a candidate association rule

``X = i AND Y = j => C = G_k``

with ``support = |(i, j, G_k)| / N`` and
``confidence = |(i, j, G_k)| / |(i, j)|``.  Mining is therefore a single
scan over the occupied cells checking both thresholds — no candidate
generation, no extra data passes, and because the BinArray stays resident,
"changing thresholds is nearly instantaneous".

The scan is vectorised here: both threshold tests are array comparisons
and the qualifying cells come out of one ``nonzero``, converted to Python
ints in bulk rather than cell by cell.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.binning.bin_array import BinArray
from repro.core.rules import BinnedRule
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)


def rule_pairs(bin_array: BinArray, rhs_code: int, min_support: float,
               min_confidence: float) -> list[tuple[int, int]]:
    """The qualifying ``(i, j)`` bin pairs (the output of paper Figure 3).

    ``min_support`` is a fraction of the total tuple count; the engine
    converts it to the paper's ``min_support_count = N * min_support`` and
    compares counts, so ties behave exactly as the pseudocode's
    ``>= min_support_count`` test.
    """
    _check_thresholds(min_support, min_confidence)
    with trace("mine", min_support=min_support,
               min_confidence=min_confidence) as span:
        qualifying = qualifying_cells(
            bin_array, rhs_code, min_support, min_confidence
        )
        rows, cols = np.nonzero(qualifying)
        pairs = list(zip(rows.tolist(), cols.tolist()))
        metrics.inc("engine.scans")
        metrics.inc("engine.cells_qualified", len(pairs))
        span.set("cells_qualified", len(pairs))
        logger.debug(
            "engine scan: %d/%d cells qualify at support>=%g "
            "confidence>=%g", len(pairs), qualifying.size, min_support,
            min_confidence,
        )
    return pairs


def qualifying_cells(bin_array: BinArray, rhs_code: int,
                     min_support: float,
                     min_confidence: float) -> np.ndarray:
    """The boolean grid of cells whose rule clears both thresholds."""
    counts = bin_array.count_grid(rhs_code)
    min_count = bin_array.n_total * min_support
    with np.errstate(invalid="ignore", divide="ignore"):
        confidence = np.where(
            bin_array.totals > 0,
            counts / bin_array.totals.astype(np.float64),
            0.0,
        )
    return (counts >= min_count) & (counts > 0) & (
        confidence >= min_confidence
    )


def mine_binned_rules(bin_array: BinArray, rhs_code: int,
                      min_support: float,
                      min_confidence: float) -> list[BinnedRule]:
    """Mine full :class:`BinnedRule` objects (pairs plus their measures).

    The measures are gathered for all qualifying cells at once (two fancy
    index reads plus two array divisions) rather than one
    ``cell_support``/``cell_confidence`` lookup pair per rule — the same
    divisions on the same operands, so the floats are bit-identical, but
    the optimizer's repeated re-minings stay off the per-cell Python path.
    """
    _check_thresholds(min_support, min_confidence)
    rhs_value = bin_array.rhs_encoding.values[rhs_code]
    pairs = rule_pairs(bin_array, rhs_code, min_support, min_confidence)
    if not pairs:
        return []
    ii = np.fromiter((i for i, _ in pairs), dtype=np.intp, count=len(pairs))
    jj = np.fromiter((j for _, j in pairs), dtype=np.intp, count=len(pairs))
    counts = bin_array.count_grid(rhs_code)[ii, jj].astype(np.float64)
    totals = bin_array.totals[ii, jj].astype(np.float64)
    supports = counts / bin_array.n_total
    confidences = counts / totals  # qualifying cells are never empty
    return [
        BinnedRule(
            x_bin=int(i),
            y_bin=int(j),
            rhs_value=rhs_value,
            support=float(support),
            confidence=float(confidence),
        )
        for i, j, support, confidence in zip(
            ii, jj, supports, confidences
        )
    ]


def _check_thresholds(min_support: float, min_confidence: float) -> None:
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support {min_support} outside [0, 1]")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence {min_confidence} outside [0, 1]")
