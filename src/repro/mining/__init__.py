"""Association rule mining substrate (paper Section 3.2).

:mod:`repro.mining.engine` is the paper's specialised algorithm: a single
scan of the BinArray emits every two-attribute rule above the thresholds,
and re-mining at new thresholds is a pure in-memory re-scan.  The classic
levelwise Apriori algorithm (:mod:`repro.mining.apriori`, over the itemset
machinery in :mod:`repro.mining.itemsets`) is the "any existing association
rule mining algorithm" the paper says could be used instead; the test suite
checks both produce identical rule sets on binned two-attribute data.
:mod:`repro.mining.quantitative` implements the Srikant-Agrawal range-rule
miner of the paper's related work ([22]), whose rule explosion motivates
clustering in the first place.
"""

from repro.mining.apriori import AprioriMiner, AssociationRule
from repro.mining.engine import RuleMeasures, rule_grid, rule_measures
from repro.mining.itemsets import ItemsetCounter, frequent_itemsets
from repro.mining.quantitative import (
    QuantitativeMiner,
    QuantRange,
    QuantRule,
)

__all__ = [
    "RuleMeasures",
    "rule_grid",
    "rule_measures",
    "AprioriMiner",
    "AssociationRule",
    "ItemsetCounter",
    "frequent_itemsets",
    "QuantitativeMiner",
    "QuantRange",
    "QuantRule",
]
