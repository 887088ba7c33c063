"""Unit tests for the attribute/table model."""

import numpy as np
import pytest

from repro.data.io import read_csv
from repro.data.sampling import sample_indices
from repro.data.schema import (
    AttributeSpec,
    CategoricalColumn,
    SchemaError,
    Table,
    categorical,
    quantitative,
)


class TestAttributeSpec:
    def test_quantitative_constructor(self):
        spec = quantitative("age", 20, 80)
        assert spec.is_quantitative
        assert not spec.is_categorical
        assert spec.quantitative_range() == (20.0, 80.0)

    def test_quantitative_without_domain(self):
        spec = quantitative("age")
        assert spec.domain is None
        assert spec.quantitative_range() is None

    def test_categorical_constructor(self):
        spec = categorical("group", ("A", "B"))
        assert spec.is_categorical
        assert spec.domain == ("A", "B")

    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError):
            AttributeSpec("x", "ordinal")

    def test_rejects_empty_quantitative_domain(self):
        with pytest.raises(SchemaError):
            quantitative("x", 5, 5)

    def test_rejects_inverted_domain(self):
        with pytest.raises(SchemaError):
            quantitative("x", 10, 1)

    def test_rejects_bad_domain_arity(self):
        with pytest.raises(SchemaError):
            AttributeSpec("x", "quantitative", (1, 2, 3))

    def test_rejects_empty_categorical_domain(self):
        with pytest.raises(SchemaError):
            AttributeSpec("x", "categorical", ())


class TestTableConstruction:
    def test_from_columns(self):
        table = Table.from_columns(
            [quantitative("a"), categorical("b")],
            {"a": [1, 2, 3], "b": ["x", "y", "x"]},
        )
        assert len(table) == 3
        assert table.attribute_names == ["a", "b"]

    def test_quantitative_columns_are_float64(self):
        table = Table.from_columns(
            [quantitative("a")], {"a": [1, 2, 3]}
        )
        assert table.column("a").dtype == np.float64

    def test_categorical_columns_are_object(self):
        table = Table.from_columns(
            [categorical("b")], {"b": ["x", "y"]}
        )
        assert table.column("b").dtype == object

    def test_from_rows(self, tmp_path):
        """A table read row by row from a CSV file."""
        path = tmp_path / "rows.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        table = read_csv(path, [quantitative("a"), categorical("b")])
        assert len(table) == 2
        assert list(table.column("a")) == [1.0, 2.0]

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_columns([quantitative("a")], {})

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_columns(
                [quantitative("a"), quantitative("a")], {"a": [1]}
            )

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table.from_columns(
                [quantitative("a"), quantitative("b")],
                {"a": [1, 2], "b": [1]},
            )

    def test_empty_table(self):
        table = Table.from_columns([quantitative("a")], {"a": []})
        assert len(table) == 0


class TestTableAccess:
    def test_unknown_attribute_raises(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.column("nope")

    def test_observed_range_prefers_declared_domain(self, tiny_table):
        # Data spans 25..75 but the declared domain is 20..80.
        assert tiny_table.observed_range("age") == (20.0, 80.0)

    def test_observed_range_falls_back_to_data(self):
        table = Table.from_columns(
            [quantitative("a")], {"a": [3, 1, 2]}
        )
        assert table.observed_range("a") == (1.0, 3.0)

    def test_observed_range_rejects_categorical(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.observed_range("group")

    def test_observed_range_rejects_empty(self):
        table = Table.from_columns([quantitative("a")], {"a": []})
        with pytest.raises(SchemaError):
            table.observed_range("a")

    def test_categorical_values_declared(self, tiny_table):
        assert tiny_table.categorical_values("group") == ("A", "other")

    def test_categorical_values_observed(self):
        table = Table.from_columns(
            [categorical("b")], {"b": ["y", "x", "y"]}
        )
        assert table.categorical_values("b") == ("x", "y")

    def test_categorical_values_rejects_quantitative(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.categorical_values("age")


class TestTableRowOperations:
    def test_take(self, tiny_table):
        sub = tiny_table.take([0, 2, 0])
        assert len(sub) == 3
        assert list(sub.column("age")) == [25.0, 35.0, 25.0]

    def test_where(self, tiny_table):
        mask = tiny_table.column("age") < 40
        sub = tiny_table.take(np.flatnonzero(mask))
        assert len(sub) == 3
        assert all(sub.column("age") < 40)

    def test_where_shape_mismatch(self, tiny_table):
        with pytest.raises(IndexError):
            tiny_table.take([len(tiny_table)])

    def test_head(self, tiny_table):
        assert len(tiny_table.head(2)) == 2
        assert len(tiny_table.head(100)) == len(tiny_table)

    def test_sample_without_replacement(self, tiny_table, fresh_rng):
        """A k-of-n sample of all n rows holds every row once."""
        sample = tiny_table.take(sample_indices(6, 6, fresh_rng))
        assert sorted(sample.column("age")) == sorted(
            tiny_table.column("age")
        )

    def test_sample_too_large(self, tiny_table, fresh_rng):
        with pytest.raises(ValueError):
            sample_indices(len(tiny_table), 7, fresh_rng)

    def test_with_column_adds(self, tiny_table):
        values = [1.0] * len(tiny_table)
        bigger = tiny_table.with_column(quantitative("ones"), values)
        assert "ones" in bigger.attribute_names
        assert "ones" not in tiny_table.attribute_names

    def test_with_column_replaces(self, tiny_table):
        replaced = tiny_table.with_column(
            quantitative("age", 0, 200), [0.0] * len(tiny_table)
        )
        assert replaced.observed_range("age") == (0.0, 200.0)
        assert (replaced.column("age") == 0).all()

    def test_with_column_length_mismatch(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.with_column(quantitative("bad"), [1.0])

    def test_select(self, tiny_table):
        sub = tiny_table.select(["salary", "age"])
        assert sub.attribute_names == ["salary", "age"]

    def test_concat(self, tiny_table):
        doubled = tiny_table.concat(tiny_table)
        assert len(doubled) == 2 * len(tiny_table)

    def test_concat_schema_mismatch(self, tiny_table):
        other = tiny_table.select(["age"])
        with pytest.raises(SchemaError):
            tiny_table.concat(other)


class TestStreaming:
    def test_iter_chunks_covers_all_rows(self, tiny_table):
        chunks = list(tiny_table.iter_chunks(4))
        assert [len(chunk) for chunk in chunks] == [4, 2]
        recombined = chunks[0].concat(chunks[1])
        assert list(recombined.column("age")) == list(
            tiny_table.column("age")
        )

    def test_iter_chunks_rejects_nonpositive(self, tiny_table):
        with pytest.raises(SchemaError):
            list(tiny_table.iter_chunks(0))

    def test_iter_rows(self, tiny_table):
        rows = list(tiny_table.iter_chunks(1))
        assert len(rows) == len(tiny_table)
        assert rows[0].column("group").tolist() == ["A"]
        assert rows[0].column("age").tolist() == [25.0]


class TestCategoricalCodesStore:
    """A categorical column is stored once, as codes into its domain;
    every row operation and source keeps the decoded values."""

    SPECS = [quantitative("x"), categorical("g")]
    VALUES = ["b", "a", "c", "a", "b", "b"]

    def table(self, values=VALUES):
        return Table.from_columns(
            self.SPECS, {"x": list(range(len(values))), "g": values}
        )

    def test_stores_narrow_codes_into_sorted_domain(self):
        column = self.table().categorical_column("g")
        assert column.domain == ("a", "b", "c")
        assert column.codes.dtype == np.uint8
        assert column.codes.tolist() == [1, 0, 2, 0, 1, 1]

    def test_declared_domain_sets_the_codes(self, tiny_table):
        column = tiny_table.categorical_column("group")
        assert column.domain == ("A", "other")
        assert tiny_table.column("group").tolist() == [
            "A", "A", "other", "A", "other", "A"
        ]

    def test_value_outside_declared_domain_raises(self):
        with pytest.raises(KeyError, match="not in the domain of 'g'"):
            Table.from_columns([categorical("g", ("a", "b"))],
                               {"g": ["a", "zzz"]})

    def test_codes_outside_domain_rejected(self):
        with pytest.raises(SchemaError, match="outside"):
            Table.from_columns([categorical("g", ("a", "b"))], {
                "g": CategoricalColumn(np.array([0, 2]), ("a", "b"))
            })

    def test_codes_against_another_domain_are_recoded(self):
        table = Table.from_columns([categorical("g", ("a", "b"))], {
            "g": CategoricalColumn(np.array([0, 1, 1]), ("b", "a"))
        })
        assert table.column("g").tolist() == ["b", "a", "a"]
        assert table.categorical_column("g").codes.tolist() == [1, 0, 0]

    def test_quantitative_attribute_has_no_codes(self):
        with pytest.raises(SchemaError):
            self.table().categorical_column("x")

    def test_row_operations_keep_values(self, fresh_rng):
        table = self.table()
        values = np.array(self.VALUES, dtype=object)
        rows = np.array([5, 0, 0, 3])
        mask = np.array([True, False, True, False, True, False])
        cases = [
            (table.take(rows), values[rows]),
            (table.take(np.flatnonzero(mask)), values[mask]),
            (table.head(4), values[:4]),
            (table.select(["g"]), values),
        ]
        picked = sample_indices(6, 4, np.random.default_rng(3))
        cases.append((table.take(picked), values[picked]))
        for chunk, start in zip(table.iter_chunks(4), (0, 4)):
            cases.append((chunk, values[start:start + 4]))
        for result, expected in cases:
            assert result.column("g").tolist() == expected.tolist()
            assert result.categorical_column("g").domain == ("a", "b", "c")

    def test_row_subset_reports_only_observed_values(self):
        subset = self.table().take(np.flatnonzero(
            [True, True, False, True, True, True]
        ))
        assert subset.categorical_values("g") == ("a", "b")

    def test_with_column_takes_values_or_codes(self):
        table = self.table()
        relabelled = table.with_column(
            categorical("g"), ["z", "y", "z", "y", "z", "y"]
        )
        assert relabelled.categorical_values("g") == ("y", "z")
        moved = table.with_column(
            categorical("h"), table.categorical_column("g")
        )
        assert moved.column("h").tolist() == self.VALUES

    def test_concat_merges_inferred_domains(self):
        first = self.table(["b", "a", "b"])
        second = self.table(["d", "b", "c"])
        combined = first.concat(second)
        assert combined.categorical_column("g").domain == (
            "a", "b", "c", "d"
        )
        assert combined.column("g").tolist() == [
            "b", "a", "b", "d", "b", "c"
        ]
        assert combined.categorical_values("g") == ("a", "b", "c", "d")

    def test_unhashable_values_are_matched_by_equality(self):
        class Label:
            def __init__(self, key):
                self.key = key

            def __eq__(self, other):
                return isinstance(other, Label) and self.key == other.key

            __hash__ = None

        labels = [Label("p"), Label("q"), Label("p")]
        table = Table.from_columns([categorical("g")], {"g": labels})
        assert len(table.categorical_column("g").domain) == 2
        assert [label.key for label in table.column("g")] == ["p", "q", "p"]
        doubled = table.concat(table)
        assert [label.key for label in doubled.column("g")] == [
            "p", "q", "p", "p", "q", "p"
        ]

    def test_iter_rows_decodes(self):
        rows = list(self.table().iter_chunks(1))
        assert [row.column("g")[0] for row in rows] == self.VALUES
