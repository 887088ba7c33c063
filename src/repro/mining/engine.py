"""The specialised single-pass rule engine (paper Section 3.2, Figure 3).

Every BinArray cell *is* a candidate association rule

``X = i AND Y = j => C = G_k``

with ``support = |(i, j, G_k)| / N`` and
``confidence = |(i, j, G_k)| / |(i, j)|``.  Mining is therefore a single
scan over the occupied cells checking both thresholds — no candidate
generation, no extra data passes, and because the BinArray stays resident,
"changing thresholds is nearly instantaneous".

The scan is vectorised here: both threshold tests are array comparisons,
and the boolean result *is* the rule grid the clusterer consumes, so a
trial never builds a list of pairs.  :func:`rule_pairs` derives the pair
list from the same grid for callers that want the rules one by one.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.binning.bin_array import BinArray
from repro.core.grid import RuleGrid
from repro.core.rules import BinnedRule
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)


def rule_grid(bin_array: BinArray, rhs_code: int, min_support: float,
              min_confidence: float) -> RuleGrid:
    """The grid of qualifying cells (the output of paper Figure 3).

    Cell ``(i, j)`` is set iff the rule ``X = i AND Y = j => C = code``
    clears both thresholds.  ``min_support`` is a fraction of the total
    tuple count ``N``, compared with each cell's ``count / N`` (see
    :func:`qualifying_cells`), so a threshold of exactly ``c / N``
    admits the cells of count ``c``.
    """
    _check_thresholds(min_support, min_confidence)
    with trace("mine", min_support=min_support,
               min_confidence=min_confidence) as span:
        qualifying = qualifying_cells(
            bin_array, rhs_code, min_support, min_confidence
        )
        n_qualified = int(np.count_nonzero(qualifying))
        metrics.inc("engine.scans")
        metrics.inc("engine.cells_qualified", n_qualified)
        span.set("cells_qualified", n_qualified)
        logger.debug(
            "engine scan: %d/%d cells qualify at support>=%g "
            "confidence>=%g", n_qualified, qualifying.size, min_support,
            min_confidence,
        )
    return RuleGrid(qualifying)


def rule_pairs(bin_array: BinArray, rhs_code: int, min_support: float,
               min_confidence: float) -> list[tuple[int, int]]:
    """The qualifying ``(i, j)`` bin pairs of :func:`rule_grid`, as
    Python ints in row-major order."""
    rows, cols = np.nonzero(
        rule_grid(bin_array, rhs_code, min_support, min_confidence).cells
    )
    return list(zip(rows.tolist(), cols.tolist()))


def qualifying_cells(bin_array: BinArray, rhs_code: int,
                     min_support: float,
                     min_confidence: float) -> np.ndarray:
    """The boolean grid of cells whose rule clears both thresholds.

    Support is compared as the fraction ``count / N``, the paper's
    definition, rather than as ``count >= N * min_support``: the
    optimizer's support levels are occurring fractions ``c / N``, and
    for some ``c`` the float product ``N * (c / N)`` exceeds ``c``,
    which would drop the very cells that define the level.  The
    division is the one that made the level, so a level always admits
    its own cells.  An empty cell never qualifies, so its undefined
    ratios (``0/0``) are masked out rather than replaced.
    """
    counts = bin_array.count_grid(rhs_code)
    with np.errstate(invalid="ignore", divide="ignore"):
        support = counts / bin_array.n_total
        confidence = counts / bin_array.totals
    return (support >= min_support) & (counts > 0) & (
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
    rhs_value = bin_array.rhs_encoding.values[rhs_code]
    ii, jj = np.nonzero(
        rule_grid(bin_array, rhs_code, min_support, min_confidence).cells
    )
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
