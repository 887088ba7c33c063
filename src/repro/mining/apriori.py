"""A from-scratch Apriori association rule miner.

This is the "any of the existing association rule mining algorithms" the
paper says ARCS could plug in instead of its specialised engine.  It is
used two ways in this reproduction:

* as a correctness oracle — on binned two-attribute data the rule set
  ``{X=i AND Y=j => C=g}`` from Apriori must match the specialised
  engine's output exactly (tested in the integration suite);
* as the ablation baseline for re-mining cost — Apriori re-scans its
  transactions for every new threshold pair, while the BinArray engine
  re-mines from memory (benchmarked in experiment A2).

Rules are general ``X => Y`` over item sets; :meth:`AprioriMiner.mine`
returns every rule whose support and confidence clear the thresholds, and
:meth:`AprioriMiner.mine_for_rhs` restricts to single-item consequents
matching a target item (the ARCS use case).
"""

from __future__ import annotations

import logging

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable

from repro.mining.itemsets import ItemsetCounter, frequent_itemsets

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AssociationRule:
    """A general association rule ``lhs => rhs`` over item sets."""

    lhs: frozenset
    rhs: frozenset
    support: float
    confidence: float

    def __post_init__(self) -> None:
        if not self.lhs or not self.rhs:
            raise ValueError("both rule sides must be non-empty")
        if self.lhs & self.rhs:
            raise ValueError("rule sides must be disjoint")

    def __str__(self) -> str:
        lhs = " AND ".join(str(item) for item in sorted(self.lhs, key=repr))
        rhs = " AND ".join(str(item) for item in sorted(self.rhs, key=repr))
        return (
            f"{lhs} => {rhs} "
            f"(support={self.support:.4f}, confidence={self.confidence:.3f})"
        )


@dataclass
class AprioriMiner:
    """Levelwise Apriori over a fixed transaction list.

    Parameters
    ----------
    transactions:
        The item sets to mine.  Kept resident — unlike ARCS, Apriori's
        re-mining cost is proportional to the data, which is exactly the
        contrast the paper draws.
    max_itemset_size:
        Optional cap on itemset size (3 suffices for two-attribute rules).
    """

    counter: ItemsetCounter
    max_itemset_size: int | None = None

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Iterable[Hashable]],
        max_itemset_size: int | None = None,
    ) -> "AprioriMiner":
        return cls(
            counter=ItemsetCounter.from_transactions(transactions),
            max_itemset_size=max_itemset_size,
        )

    def mine(self, min_support: float,
             min_confidence: float) -> list[AssociationRule]:
        """All rules above both thresholds, from all frequent itemsets.

        For each frequent itemset of size >= 2, every non-empty proper
        subset is tried as an antecedent; confidence comes from the stored
        supports, so no extra data passes happen after counting.
        """
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError(
                f"min_confidence {min_confidence} outside [0, 1]"
            )
        supports = frequent_itemsets(
            self.counter, min_support, max_size=self.max_itemset_size
        )
        rules = []
        for itemset, support in supports.items():
            if len(itemset) < 2:
                continue
            items = sorted(itemset, key=repr)
            for lhs_size in range(1, len(items)):
                for lhs_items in combinations(items, lhs_size):
                    lhs = frozenset(lhs_items)
                    lhs_support = supports.get(lhs)
                    if lhs_support is None or lhs_support == 0.0:
                        continue
                    confidence = support / lhs_support
                    if confidence >= min_confidence:
                        rules.append(
                            AssociationRule(
                                lhs=lhs,
                                rhs=itemset - lhs,
                                support=support,
                                confidence=confidence,
                            )
                        )
        logger.debug(
            "apriori: %d frequent itemsets -> %d rules at "
            "support>=%g confidence>=%g",
            len(supports), len(rules), min_support, min_confidence,
        )
        return rules

    def mine_for_rhs(self, rhs_item: Hashable, min_support: float,
                     min_confidence: float) -> list[AssociationRule]:
        """Rules whose consequent is exactly ``{rhs_item}`` (the ARCS
        segmentation-criterion case)."""
        return [
            rule for rule in self.mine(min_support, min_confidence)
            if rule.rhs == frozenset([rhs_item])
        ]
