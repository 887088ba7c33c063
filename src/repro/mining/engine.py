"""The specialised single-pass rule engine (paper Section 3.2, Figure 3).

Every BinArray cell *is* a candidate association rule

``X = i AND Y = j => C = G_k``

with ``support = |(i, j, G_k)| / N`` and
``confidence = |(i, j, G_k)| / |(i, j)|``.  Mining is therefore a single
scan over the occupied cells checking both thresholds — no candidate
generation, no extra data passes, and because the BinArray stays resident,
"changing thresholds is nearly instantaneous".

Neither measure depends on the thresholds, so :func:`rule_measures`
divides the counts once per BinArray and RHS value, and a threshold
search hands the same :class:`RuleMeasures` to every trial.  A mining
scan is then two array comparisons, and the boolean result *is* the
rule grid the clusterer consumes; :meth:`RuleGrid.set_pairs` lists its
rules one by one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.binning.bin_array import BinArray
from repro.core.grid import RuleGrid
from repro.obs import metrics, trace

logger = logging.getLogger(__name__)

#: The measures of an empty cell's rule: below any threshold in
#: ``[0, 1]``, so an empty cell never qualifies.
EMPTY_CELL = -1.0


@dataclass(frozen=True, eq=False)
class RuleMeasures:
    """Support and confidence of every cell's rule for one RHS value.

    ``support[i, j]`` is ``count / N`` and ``confidence[i, j]`` is
    ``count / total`` for cell ``(i, j)``, both :data:`EMPTY_CELL` where
    the cell holds no tuple of the RHS value.  The BinArray is kept for
    the stages after mining (support-weighted smoothing, rule
    translation); the measures are a snapshot, so rebuild them after the
    BinArray changes.
    """

    bin_array: BinArray = field(repr=False)
    rhs_code: int
    support: np.ndarray = field(repr=False)
    confidence: np.ndarray = field(repr=False)


def rule_measures(bin_array: BinArray, rhs_code: int) -> RuleMeasures:
    """Divide one RHS value's cell counts into rule measures, once.

    Support is the fraction ``count / N``, the paper's definition, and
    not a count compared with ``N * min_support``: the optimizer's
    support levels are occurring fractions ``c / N``, and for some ``c``
    the float product ``N * (c / N)`` exceeds ``c``, which would drop
    the very cells that define the level.  The division is the one that
    made the level, so a level always admits its own cells.
    """
    counts = bin_array.count_grid(rhs_code)
    occupied = counts > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        support = np.where(occupied, counts / bin_array.n_total, EMPTY_CELL)
        confidence = np.where(occupied, counts / bin_array.totals,
                              EMPTY_CELL)
    return RuleMeasures(bin_array, rhs_code, support, confidence)


def rule_grid(measures: RuleMeasures, min_support: float,
              min_confidence: float) -> RuleGrid:
    """The grid of qualifying cells (the output of paper Figure 3).

    Cell ``(i, j)`` is set iff the rule ``X = i AND Y = j => C = code``
    clears both thresholds; a threshold of exactly ``c / N`` admits the
    cells of count ``c`` (see :func:`rule_measures`).
    """
    _check_thresholds(min_support, min_confidence)
    with trace("mine", min_support=min_support,
               min_confidence=min_confidence) as span:
        qualifying = ((measures.support >= min_support)
                      & (measures.confidence >= min_confidence))
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


def _check_thresholds(min_support: float, min_confidence: float) -> None:
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support {min_support} outside [0, 1]")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError(f"min_confidence {min_confidence} outside [0, 1]")
