"""The grid clustering pipeline: mine → smooth → BitOp → prune → rules.

This is the middle of paper Figure 2: given a populated BinArray and one
threshold pair, produce the clustered association rules.  The steps are

1. the specialised engine emits the grid of qualifying cells
   (Section 3.2) from rule measures computed once per BinArray and
   target,
2. the grid is low-pass smoothed (Section 3.4) — binary by default, or
   over support values when ``support_weighted`` is on (Section 5),
3. BitOp greedily covers the grid with rectangles (Section 3.3),
4. too-small clusters are pruned (Section 3.5),
5. each surviving rectangle is translated back to value space and scored
   (support/confidence aggregated over its cells) as a
   :class:`~repro.core.rules.ClusteredRule` — on the first read of
   :attr:`ClusteringOutcome.rules`, so an optimizer trial, scored on its
   rectangles, builds rules only if it wins.

Clustered rule confidence is the aggregate over the rectangle's cells.
Because smoothing can add cells no individual rule occupied, a cluster's
own confidence can dip below the mining threshold; the paper's guarantee
("clustered association rules will always have a support and confidence of
at least that of the minimum threshold levels") holds exactly when
smoothing is off, and the verifier/MDL loop governs quality either way.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field
from functools import cached_property

from repro.binning.bin_array import BinArray
from repro.core.bitop import BitOpClusterer
from repro.core.grid import RuleGrid
from repro.core.merging import merge_clusters
from repro.core.pruning import PruningReport, prune_clusters
from repro.core.rules import ClusteredRule, GridRect, Interval
from repro.core.smoothing import smooth_binary, smooth_support
from repro.mining.engine import RuleMeasures, rule_grid
from repro.obs import trace

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClustererConfig:
    """Knobs of the clustering pipeline.

    Parameters
    ----------
    smoothing:
        Apply the low-pass filter before BitOp (paper default: on).
    smoothing_threshold:
        Activation threshold of the binary filter.
    smoothing_passes:
        Number of filter applications.
    smoothing_min_axis:
        Skip the filter when either grid axis is shorter than this: a
        3x3 kernel on a 5-bin axis averages over 60% of the domain and
        fuses structures that are genuinely distinct (e.g. discrete
        attributes binned one-value-per-bin).
    support_weighted:
        Use the Section 5 support-value smoothing variant instead of the
        binary filter.
    prune_fraction:
        Clusters smaller than this fraction of the grid are pruned
        (paper default: 1%).
    min_cluster_cells:
        BitOp's own termination floor; pruning usually dominates it.
    merge_clusters:
        Consolidate cover fragments whose bounding hull is well covered
        (see :mod:`repro.core.merging`); needed to reproduce the paper's
        "exactly three clusters" result on perturbed data.
    merge_cover_fraction:
        Minimum hull coverage for a merge to be admissible.
    """

    smoothing: bool = True
    smoothing_threshold: float = 0.5
    smoothing_passes: int = 1
    smoothing_min_axis: int = 8
    support_weighted: bool = False
    prune_fraction: float = 0.01
    min_cluster_cells: int = 1
    merge_clusters: bool = True
    merge_cover_fraction: float = 0.8

    def __post_init__(self) -> None:
        # The messages of the checks the pipeline stages would make
        # mid-fit, raised before any binning or mining runs.
        if not 0.0 < self.smoothing_threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.smoothing_passes < 0:
            raise ValueError("passes must be non-negative")
        if not 0.0 <= self.prune_fraction < 1.0:
            raise ValueError("fraction must be in [0, 1)")
        if self.min_cluster_cells < 1:
            raise ValueError("min_cells must be at least 1")
        if not 0.0 < self.merge_cover_fraction <= 1.0:
            raise ValueError("cover_fraction must be in (0, 1]")


@dataclass
class ClusteringOutcome:
    """Everything one pipeline run produced, for inspection and tests.

    :attr:`rules` are translated from ``bin_array`` when first read, so
    read them before the BinArray changes.
    """

    raw_grid: RuleGrid
    smoothed_grid: RuleGrid
    clusters: tuple[GridRect, ...]
    pruning: PruningReport
    bin_array: BinArray = field(repr=False, compare=False)
    rhs_code: int

    @cached_property
    def rules(self) -> tuple[ClusteredRule, ...]:
        """The kept rectangles as value-space clustered rules."""
        return tuple(
            clustered_rule_from_rect(rect, self.bin_array, self.rhs_code)
            for rect in self.pruning.kept
        )

    @property
    def n_rules(self) -> int:
        return len(self.pruning.kept)


@dataclass
class GridClusterer:
    """Runs the pipeline for one (BinArray, target, thresholds) input."""

    config: ClustererConfig = field(default_factory=ClustererConfig)

    def cluster(self, measures: RuleMeasures, min_support: float,
                min_confidence: float) -> ClusteringOutcome:
        """Produce clustered rules at the given thresholds.

        ``measures`` are the rule measures of the BinArray and target
        (:func:`~repro.mining.engine.rule_measures`); a threshold search
        builds them once and clusters every trial from them.
        """
        bin_array, rhs_code = measures.bin_array, measures.rhs_code
        with trace("cluster", min_support=min_support,
                   min_confidence=min_confidence):
            raw_grid = rule_grid(measures, min_support, min_confidence)
            smoothed = self._smooth(
                raw_grid, bin_array, rhs_code, min_support
            )
            bitop = BitOpClusterer(
                min_cells=self.config.min_cluster_cells
            )
            found = bitop.cluster(smoothed)
            if self.config.merge_clusters:
                with trace("merge") as span:
                    merged = merge_clusters(
                        found, smoothed,
                        cover_fraction=self.config.merge_cover_fraction,
                    )
                    span.set("clusters_before", len(found))
                    span.set("clusters_after", len(merged))
                    found = merged
            with trace("prune"):
                pruning = prune_clusters(
                    found, (bin_array.n_x, bin_array.n_y),
                    fraction=self.config.prune_fraction,
                )
            logger.debug(
                "clustered the rule grid into %d rules "
                "(support>=%g confidence>=%g)",
                len(pruning.kept), min_support, min_confidence,
            )
        return ClusteringOutcome(
            raw_grid=raw_grid,
            smoothed_grid=smoothed,
            clusters=tuple(found),
            pruning=pruning,
            bin_array=bin_array,
            rhs_code=rhs_code,
        )

    def _smooth(self, grid: RuleGrid, bin_array: BinArray, rhs_code: int,
                min_support: float) -> RuleGrid:
        too_small = (
            min(grid.n_x, grid.n_y) < self.config.smoothing_min_axis
        )
        if (not self.config.smoothing or too_small
                or self.config.smoothing_passes == 0):
            return grid.copy()
        if self.config.support_weighted:
            return smooth_support(
                bin_array.support_grid(rhs_code),
                min_support=min_support,
                passes=self.config.smoothing_passes,
            )
        return smooth_binary(
            grid,
            threshold=self.config.smoothing_threshold,
            passes=self.config.smoothing_passes,
        )


def clustered_rule_from_rect(rect: GridRect, bin_array: BinArray,
                             rhs_code: int) -> ClusteredRule:
    """Translate a bin rectangle into a value-space clustered rule.

    The intervals span the rectangle's bins; support and confidence are
    aggregated over the rectangle's cells from the BinArray, which is the
    clustered rule's exact support/confidence on the binned data.
    """
    x_layout, y_layout = bin_array.x_layout, bin_array.y_layout
    x_low, x_high = x_layout.span_interval(rect.x_lo, rect.x_hi)
    y_low, y_high = y_layout.span_interval(rect.y_lo, rect.y_hi)
    target_count, total_count = bin_array.region_counts(
        rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi, rhs_code
    )
    support = (
        target_count / bin_array.n_total if bin_array.n_total else 0.0
    )
    confidence = target_count / total_count if total_count else 0.0
    return ClusteredRule(
        x_attribute=x_layout.attribute,
        y_attribute=y_layout.attribute,
        x_interval=Interval(
            x_low, x_high,
            closed_high=(rect.x_hi == x_layout.n_bins - 1),
        ),
        y_interval=Interval(
            y_low, y_high,
            closed_high=(rect.y_hi == y_layout.n_bins - 1),
        ),
        rhs_attribute=bin_array.rhs_encoding.attribute,
        rhs_value=bin_array.rhs_encoding.values[rhs_code],
        support=support,
        confidence=confidence,
        rect=rect,
    )
