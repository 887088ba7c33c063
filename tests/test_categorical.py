"""Unit tests for categorical value encoding."""

import numpy as np
import pytest

from repro.binning.categorical import CategoricalEncoding
from repro.data.schema import CategoricalColumn


class TestConstruction:
    def test_declared_order_preserved(self):
        encoding = CategoricalEncoding("group", ("b", "a", "c"))
        assert encoding.values == ("b", "a", "c")
        assert encoding.cardinality == 3

    def test_from_values_first_seen_order(self):
        """Raw values are factorized in first-seen order before they
        are encoded."""
        column = CategoricalColumn.from_values(["y", "x", "y", "z", "x"])
        assert column.domain == ("y", "x", "z")
        encoding = CategoricalEncoding("g", ("x", "y", "z"))
        assert encoding.encode(column).tolist() == [1, 0, 1, 2, 0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CategoricalEncoding("g", ())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CategoricalEncoding("g", ("a", "a"))


class TestCoding:
    def test_code_of(self):
        encoding = CategoricalEncoding("g", ("A", "other"))
        assert encoding.code_of("A") == 0
        assert encoding.code_of("other") == 1

    def test_code_of_unknown(self):
        encoding = CategoricalEncoding("g", ("A",))
        with pytest.raises(KeyError):
            encoding.code_of("B")

    def test_encode_round_trip(self):
        encoding = CategoricalEncoding("g", ("a", "b", "c"))
        values = ["c", "a", "b", "a"]
        codes = encoding.encode(values)
        assert codes.dtype == np.int64
        assert list(codes) == [2, 0, 1, 0]
        assert [encoding.values[code] for code in codes] == values

    def test_encode_unknown_value(self):
        encoding = CategoricalEncoding("g", ("a",))
        with pytest.raises(KeyError, match="not in the domain"):
            encoding.encode(["a", "zzz"])

    def test_encode_empty(self):
        encoding = CategoricalEncoding("g", ("a",))
        assert len(encoding.encode([])) == 0

    def test_integer_values(self):
        encoding = CategoricalEncoding("zipcode", tuple(range(9)))
        assert encoding.code_of(4) == 4
        assert encoding.encode([8, 0]).tolist() == [8, 0]
