"""Quantitative association rule mining (Srikant & Agrawal, SIGMOD'96).

The paper's closest related work ([22]) mines rules whose LHS items are
*ranges* over binned quantitative attributes, e.g.
``30 <= age < 40 AND 50k <= salary < 75k => group = A``, using
equi-depth base intervals, merges of adjacent intervals up to a maximum
support, and a "greater-than-expected-value" interest measure to prune
rules that merely restate their generalisations.

This implementation exists for two reasons:

* it is the *motivating problem*: on the paper's data it emits hundreds
  of overlapping range rules where ARCS produces three clusters — the
  intro's "hundreds or thousands of rules" made concrete (benchmarked in
  A4);
* it is a second, independent miner whose specialisations ARCS's
  clusters should agree with, exercised in the tests.

Counting is exact and vectorised: per attribute a (bins,) histogram pair
(total, target) with prefix sums gives any range's counts in O(1); per
attribute pair a (bins, bins) 2-D histogram with 2-D prefix sums does
the same for range boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.binning.strategies import equi_depth_layout
from repro.data.schema import Table, equal_mask


@dataclass(frozen=True)
class QuantRange:
    """A contiguous bin range of one attribute, with value bounds."""

    attribute: str
    first_bin: int
    last_bin: int
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.last_bin < self.first_bin:
            raise ValueError("empty bin range")

    @property
    def n_bins(self) -> int:
        return self.last_bin - self.first_bin + 1

    def __str__(self) -> str:
        return f"{self.low:g} <= {self.attribute} < {self.high:g}"


@dataclass(frozen=True)
class QuantRule:
    """A quantitative association rule: conjunction of ranges => RHS."""

    ranges: tuple[QuantRange, ...]
    rhs_attribute: str
    rhs_value: object
    support: float
    confidence: float
    interest: float

    def __str__(self) -> str:
        lhs = " AND ".join(str(r) for r in self.ranges)
        return (
            f"{lhs} => {self.rhs_attribute} = {self.rhs_value} "
            f"(support={self.support:.4f}, "
            f"confidence={self.confidence:.3f}, "
            f"interest={self.interest:.2f})"
        )


class QuantitativeMiner:
    """Range-rule miner over equi-depth binned quantitative attributes.

    Parameters
    ----------
    table:
        Source data.
    attributes:
        The quantitative LHS attributes to mine over.
    rhs_attribute:
        The categorical consequent attribute.
    n_bins:
        Equi-depth base intervals per attribute (paper [22] leaves this
        to a partial-completeness argument; 16 is a practical default).
    max_range_fraction:
        Ranges wider than this fraction of the bins are not extended —
        [22]'s *maximum support* guard against ranges that cover
        everything.
    """

    def __init__(self, table: Table, attributes: Sequence[str],
                 rhs_attribute: str, n_bins: int = 16,
                 max_range_fraction: float = 0.75):
        if n_bins <= 0:
            raise ValueError("n_bins must be positive")
        if not 0.0 < max_range_fraction <= 1.0:
            raise ValueError("max_range_fraction must be in (0, 1]")
        self.table = table
        self.attributes = tuple(attributes)
        self.rhs_attribute = rhs_attribute
        self.max_range_fraction = max_range_fraction
        self.n = len(table)

        self._layouts = {}
        self._codes = {}
        for name in self.attributes:
            layout = equi_depth_layout(
                name, table.column(name), n_bins
            )
            self._layouts[name] = layout
            self._codes[name] = layout.assign(table.column(name))

    # ------------------------------------------------------------------
    # Counting structures
    # ------------------------------------------------------------------
    def _target_mask(self, target_value) -> np.ndarray:
        return equal_mask(
            self.table.categorical_column(self.rhs_attribute), target_value
        )

    def _prefix_1d(self, attribute: str,
                   target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Prefix sums of (total, target) histograms over one attribute;
        index k holds counts of bins ``0..k-1``."""
        n_bins = self._layouts[attribute].n_bins
        codes = self._codes[attribute]
        total = np.bincount(codes, minlength=n_bins)
        hits = np.bincount(codes[target], minlength=n_bins)
        return (
            np.concatenate([[0], np.cumsum(total)]),
            np.concatenate([[0], np.cumsum(hits)]),
        )

    def _prefix_2d(self, attr_a: str, attr_b: str,
                   target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """2-D prefix sums over an attribute pair."""
        bins_a = self._layouts[attr_a].n_bins
        bins_b = self._layouts[attr_b].n_bins
        flat = self._codes[attr_a] * bins_b + self._codes[attr_b]
        total = np.bincount(flat, minlength=bins_a * bins_b)
        hits = np.bincount(flat[target], minlength=bins_a * bins_b)
        total = total.reshape(bins_a, bins_b)
        hits = hits.reshape(bins_a, bins_b)

        def prefix(matrix: np.ndarray) -> np.ndarray:
            padded = np.zeros(
                (matrix.shape[0] + 1, matrix.shape[1] + 1),
                dtype=np.int64,
            )
            padded[1:, 1:] = matrix.cumsum(axis=0).cumsum(axis=1)
            return padded

        return prefix(total), prefix(hits)

    @staticmethod
    def _box_count(prefix: np.ndarray, a_lo: int, a_hi: int,
                   b_lo: int, b_hi: int) -> int:
        return int(
            prefix[a_hi + 1, b_hi + 1] - prefix[a_lo, b_hi + 1]
            - prefix[a_hi + 1, b_lo] + prefix[a_lo, b_lo]
        )

    def _ranges_of(self, attribute: str) -> list[QuantRange]:
        layout = self._layouts[attribute]
        max_span = max(1, int(self.max_range_fraction * layout.n_bins))
        ranges = []
        for first in range(layout.n_bins):
            for last in range(first,
                              min(first + max_span, layout.n_bins)):
                low, high = layout.span_interval(first, last)
                ranges.append(
                    QuantRange(attribute, first, last, low, high)
                )
        return ranges

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def mine(self, target_value, min_support: float,
             min_confidence: float,
             min_interest: float | None = 1.1) -> list[QuantRule]:
        """Mine one- and two-attribute range rules for one RHS value.

        ``min_interest`` applies [22]'s greater-than-expected measure:
        a rule survives only if its support exceeds ``min_interest``
        times the support *expected from its closest generalisation*
        (the rule with each range widened to the whole attribute,
        scaled by the fraction of tuples the range keeps).  ``None``
        disables interest pruning, which is how the rule explosion the
        paper's intro describes becomes visible.
        """
        if not 0.0 <= min_support <= 1.0:
            raise ValueError("min_support outside [0, 1]")
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError("min_confidence outside [0, 1]")
        target = self._target_mask(target_value)
        overall_target_support = float(target.sum()) / self.n
        rules: list[QuantRule] = []

        frequent_single: dict[str, list[QuantRange]] = {}
        for attribute in self.attributes:
            prefix_total, prefix_hits = self._prefix_1d(
                attribute, target
            )
            kept = []
            for candidate in self._ranges_of(attribute):
                covered = int(
                    prefix_total[candidate.last_bin + 1]
                    - prefix_total[candidate.first_bin]
                )
                hits = int(
                    prefix_hits[candidate.last_bin + 1]
                    - prefix_hits[candidate.first_bin]
                )
                rule = self._build_rule(
                    (candidate,), covered, hits, target_value,
                    overall_target_support,
                )
                if rule is None:
                    continue
                support_ok = rule.support >= min_support
                if support_ok:
                    kept.append(candidate)
                if (support_ok and rule.confidence >= min_confidence
                        and self._interesting(rule, min_interest)):
                    rules.append(rule)
            frequent_single[attribute] = kept

        for attr_a, attr_b in combinations(self.attributes, 2):
            if not (frequent_single[attr_a]
                    and frequent_single[attr_b]):
                continue
            prefix_total, prefix_hits = self._prefix_2d(
                attr_a, attr_b, target
            )
            for range_a in frequent_single[attr_a]:
                for range_b in frequent_single[attr_b]:
                    covered = self._box_count(
                        prefix_total,
                        range_a.first_bin, range_a.last_bin,
                        range_b.first_bin, range_b.last_bin,
                    )
                    hits = self._box_count(
                        prefix_hits,
                        range_a.first_bin, range_a.last_bin,
                        range_b.first_bin, range_b.last_bin,
                    )
                    rule = self._build_rule(
                        (range_a, range_b), covered, hits,
                        target_value, overall_target_support,
                    )
                    if rule is None:
                        continue
                    if (rule.support >= min_support
                            and rule.confidence >= min_confidence
                            and self._interesting(rule, min_interest)):
                        rules.append(rule)

        rules.sort(key=lambda rule: (-rule.support, -rule.confidence))
        return rules

    def _build_rule(self, ranges: tuple[QuantRange, ...], covered: int,
                    hits: int, target_value,
                    overall_target_support: float) -> QuantRule | None:
        if covered == 0 or hits == 0:
            return None
        support = hits / self.n
        confidence = hits / covered
        # Expected support under the closest generalisation: the whole
        # domain rule's target support scaled by the fraction of tuples
        # the LHS ranges keep (independence assumption, as in [22]).
        expected = overall_target_support * (covered / self.n)
        interest = support / expected if expected > 0 else float("inf")
        return QuantRule(
            ranges=ranges,
            rhs_attribute=self.rhs_attribute,
            rhs_value=target_value,
            support=support,
            confidence=confidence,
            interest=interest,
        )

    @staticmethod
    def _interesting(rule: QuantRule,
                     min_interest: float | None) -> bool:
        if min_interest is None:
            return True
        return rule.interest >= min_interest
