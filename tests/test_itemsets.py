"""Unit tests for the Apriori itemset machinery."""

import pytest

from repro.mining.itemsets import (
    ItemsetCounter,
    frequent_itemsets,
    generate_candidates,
)

BASKETS = [
    {"bread", "butter", "milk"},
    {"bread", "butter"},
    {"bread", "milk"},
    {"beer"},
    {"bread", "butter", "milk", "beer"},
]


@pytest.fixture()
def counter():
    return ItemsetCounter.from_transactions(BASKETS)


class TestItemsetCounter:
    def test_n_transactions(self, counter):
        assert counter.n_transactions == 5

    def test_count_singletons(self, counter):
        counts = counter.count([frozenset(["bread"]), frozenset(["beer"])])
        assert counts[frozenset(["bread"])] == 4
        assert counts[frozenset(["beer"])] == 2

    def test_count_pairs(self, counter):
        pair = frozenset(["bread", "butter"])
        assert counter.count([pair])[pair] == 3

    def test_count_empty_candidates(self, counter):
        assert counter.count([]) == {}

    def test_support(self, counter):
        assert counter.support(frozenset(["bread", "milk"])) == 3 / 5
        assert counter.support(frozenset(["nope"])) == 0.0

    def test_support_empty_counter(self):
        empty = ItemsetCounter.from_transactions([])
        assert empty.support(frozenset(["x"])) == 0.0


class TestGenerateCandidates:
    def test_joins_shared_prefix(self):
        frequent = [frozenset("ab"), frozenset("ac"), frozenset("bc")]
        candidates = generate_candidates(frequent)
        assert candidates == [frozenset("abc")]

    def test_prunes_infrequent_subsets(self):
        # "bc" is missing, so "abc" must be pruned.
        frequent = [frozenset("ab"), frozenset("ac")]
        assert generate_candidates(frequent) == []

    def test_empty_input(self):
        assert generate_candidates([]) == []

    def test_singletons_join_to_pairs(self):
        frequent = [frozenset("a"), frozenset("b"), frozenset("c")]
        candidates = set(generate_candidates(frequent))
        assert candidates == {
            frozenset("ab"), frozenset("ac"), frozenset("bc")
        }

    def test_mixed_type_items(self):
        """(attribute, value) items with mixed value types must not hit
        Python's cross-type comparison error."""
        frequent = [
            frozenset([("X", 1)]), frozenset([("X", "a")]),
            frozenset([("Y", 2)]),
        ]
        candidates = generate_candidates(frequent)
        assert len(candidates) == 3


class TestFrequentItemsets:
    def test_known_supports(self, counter):
        result = frequent_itemsets(counter, min_support=0.4)
        assert result[frozenset(["bread"])] == 4 / 5
        assert result[frozenset(["bread", "butter"])] == 3 / 5
        assert result[frozenset(["bread", "butter", "milk"])] == 2 / 5
        assert frozenset(["beer", "bread"]) not in result

    def test_downward_closure(self, counter):
        """Every subset of a frequent itemset is frequent."""
        result = frequent_itemsets(counter, min_support=0.4)
        for itemset in result:
            for item in itemset:
                if len(itemset) > 1:
                    assert (itemset - {item}) in result

    def test_max_size_caps_search(self, counter):
        result = frequent_itemsets(counter, min_support=0.2, max_size=2)
        assert all(len(itemset) <= 2 for itemset in result)

    def test_high_support_empty(self, counter):
        assert frequent_itemsets(counter, min_support=0.99) == {}

    def test_zero_support_includes_everything_seen(self, counter):
        result = frequent_itemsets(counter, min_support=0.0, max_size=1)
        assert frozenset(["beer"]) in result

    def test_empty_transactions(self):
        counter = ItemsetCounter.from_transactions([])
        assert frequent_itemsets(counter, 0.1) == {}

    def test_rejects_bad_support(self, counter):
        with pytest.raises(ValueError):
            frequent_itemsets(counter, min_support=1.5)


def test_support_level_admits_its_own_itemsets():
    """``25 * (7 / 25)`` exceeds 7 in float64; the threshold ``7 / 25``
    still admits an item present in 7 of 25 transactions."""
    counter = ItemsetCounter.from_transactions(
        [{"a"}] * 7 + [{"b"}] * 18
    )
    assert 25 * (7 / 25) > 7
    assert frequent_itemsets(counter, 7 / 25) == {
        frozenset({"a"}): 7 / 25, frozenset({"b"}): 18 / 25,
    }
