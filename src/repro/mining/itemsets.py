"""Frequent itemset machinery for the generic Apriori miner.

Transactions are frozensets of hashable *items*; for tuple-oriented data an
item is an ``(attribute, value)`` pair, mirroring the paper's
``attribute = value`` equalities.  The levelwise search follows Agrawal &
Srikant: candidates of size k are joins of frequent (k-1)-itemsets sharing
a (k-2)-prefix, pruned by the downward-closure property before any support
counting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Iterable, Sequence

Itemset = frozenset


@dataclass
class ItemsetCounter:
    """Counts itemset occurrences over a transaction list.

    Keeps the transactions so multiple counting passes (one per levelwise
    round) do not re-materialise them.
    """

    transactions: list[frozenset] = field(default_factory=list)

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Iterable[Hashable]]
    ) -> "ItemsetCounter":
        return cls([frozenset(t) for t in transactions])

    @property
    def n_transactions(self) -> int:
        return len(self.transactions)

    def count(self, candidates: Sequence[frozenset]) -> dict[frozenset, int]:
        """Count how many transactions contain each candidate itemset."""
        counts: dict[frozenset, int] = {c: 0 for c in candidates}
        if not candidates:
            return counts
        size = len(next(iter(candidates)))
        # Index candidates by one member item so each transaction only
        # tests candidates it could possibly contain.
        by_item: dict[Hashable, list[frozenset]] = defaultdict(list)
        for candidate in candidates:
            by_item[min(candidate, key=repr)].append(candidate)
        for transaction in self.transactions:
            if len(transaction) < size:
                continue
            seen: set[frozenset] = set()
            for item in transaction:
                for candidate in by_item.get(item, ()):
                    if candidate not in seen and candidate <= transaction:
                        counts[candidate] += 1
                        seen.add(candidate)
        return counts

    def support(self, itemset: frozenset) -> float:
        """Exact support of one itemset (fraction of transactions)."""
        if not self.transactions:
            return 0.0
        hits = sum(1 for t in self.transactions if itemset <= t)
        return hits / len(self.transactions)


def generate_candidates(frequent: Sequence[frozenset]) -> list[frozenset]:
    """Apriori-gen: join frequent k-itemsets sharing a (k-1)-prefix, then
    prune candidates with any infrequent k-subset."""
    if not frequent:
        return []
    k = len(next(iter(frequent)))
    frequent_set = set(frequent)
    ordered = [tuple(sorted(itemset, key=repr)) for itemset in frequent]
    # Sort by repr so mixed-type items (e.g. ("X", 3) vs ("X", "a")) never
    # hit Python's cross-type comparison error; equal prefixes still group
    # adjacently, which is all the join step needs.
    ordered.sort(key=lambda items: tuple(repr(item) for item in items))
    candidates = []
    for a_index in range(len(ordered)):
        for b_index in range(a_index + 1, len(ordered)):
            a, b = ordered[a_index], ordered[b_index]
            if a[:-1] != b[:-1]:
                break  # sorted order: no later b shares the prefix
            candidate = frozenset(a) | frozenset(b)
            if len(candidate) != k + 1:
                continue
            subsets_frequent = all(
                frozenset(subset) in frequent_set
                for subset in combinations(sorted(candidate, key=repr), k)
            )
            if subsets_frequent:
                candidates.append(candidate)
    return candidates


def frequent_itemsets(counter: ItemsetCounter, min_support: float,
                      max_size: int | None = None) -> dict[frozenset, float]:
    """All itemsets with support >= ``min_support``, mapped to support.

    Support is compared as ``count / n``, as the rule engine compares it,
    so a threshold of exactly ``c / n`` admits the itemsets of count
    ``c`` (``count >= n * min_support`` can miss them to float rounding).

    ``max_size`` caps the levelwise search (the ARCS cross-check only needs
    size-3 itemsets: two LHS items plus the RHS item).
    """
    if not 0.0 <= min_support <= 1.0:
        raise ValueError(f"min_support {min_support} outside [0, 1]")
    n = counter.n_transactions
    if n == 0:
        return {}

    # Level 1: singleton items.
    item_counts: dict[Hashable, int] = defaultdict(int)
    for transaction in counter.transactions:
        for item in transaction:
            item_counts[item] += 1
    current = {
        frozenset([item]): count
        for item, count in item_counts.items()
        if count / n >= min_support
    }
    result: dict[frozenset, float] = {
        itemset: count / n for itemset, count in current.items()
    }

    size = 1
    while current and (max_size is None or size < max_size):
        candidates = generate_candidates(list(current))
        if not candidates:
            break
        counts = counter.count(candidates)
        current = {
            itemset: count
            for itemset, count in counts.items()
            if count / n >= min_support
        }
        for itemset, count in current.items():
            result[itemset] = count / n
        size += 1
    return result
