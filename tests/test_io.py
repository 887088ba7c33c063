"""Unit tests for CSV round trips and streaming ingestion."""

import numpy as np
import pytest

import repro
from repro.data.io import read_csv, stream_csv, write_csv
from repro.data.schema import Table, categorical, quantitative

SPECS = [
    quantitative("age", 20, 80),
    quantitative("salary", 20_000, 150_000),
    categorical("group", ("A", "other")),
]


@pytest.fixture()
def sample_table():
    return Table.from_columns(SPECS, {
        "age": [25.0, 45.5, 70.0],
        "salary": [60_000.0, 90_000.0, 40_000.0],
        "group": ["A", "other", "A"],
    })


class TestRoundTrip:
    def test_write_then_read(self, sample_table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(sample_table, path)
        loaded = read_csv(path, SPECS)
        assert len(loaded) == 3
        assert list(loaded.column("age")) == [25.0, 45.5, 70.0]
        assert list(loaded.column("group")) == ["A", "other", "A"]

    def test_header_order_independent(self, sample_table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(sample_table.select(["group", "age", "salary"]), path)
        loaded = read_csv(path, SPECS)
        assert list(loaded.column("salary")) == [
            60_000.0, 90_000.0, 40_000.0
        ]

    def test_written_text_is_exact(self, tmp_path):
        """Floats in their shortest round-trip form, integer-domain and
        string categories as their ``str``, CRLF row ends."""
        specs = [
            quantitative("age", 20, 80),
            categorical("zipcode", range(9)),
            categorical("group", ("A", "other")),
        ]
        table = Table.from_columns(specs, {
            "age": [25.0, 0.1 + 0.2, 1e-7],
            "zipcode": [3, 0, 8],
            "group": ["other", "A", "A"],
        })
        path = tmp_path / "data.csv"
        write_csv(table, path)
        assert path.read_bytes() == (
            b"age,zipcode,group\r\n"
            b"25.0,3,other\r\n"
            b"0.30000000000000004,0,A\r\n"
            b"1e-07,8,A\r\n"
        )

    def test_empty_table_round_trip(self, tmp_path):
        empty = Table.from_columns(
            SPECS, {"age": [], "salary": [], "group": []}
        )
        path = tmp_path / "empty.csv"
        write_csv(empty, path)
        loaded = read_csv(path, SPECS)
        assert len(loaded) == 0


class TestStreaming:
    def test_chunked_reading(self, sample_table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(sample_table, path)
        chunks = list(stream_csv(path, SPECS, chunk_rows=2))
        assert [len(chunk) for chunk in chunks] == [2, 1]

    def test_chunks_recombine_to_original(self, sample_table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(sample_table, path)
        chunks = list(stream_csv(path, SPECS, chunk_rows=1))
        combined = chunks[0]
        for chunk in chunks[1:]:
            combined = combined.concat(chunk)
        assert list(combined.column("age")) == list(
            sample_table.column("age")
        )

    def test_rejects_nonpositive_chunk(self, sample_table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(sample_table, path)
        with pytest.raises(ValueError):
            list(stream_csv(path, SPECS, chunk_rows=0))

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,wrong\n25,1\n")
        with pytest.raises(ValueError, match="header mismatch"):
            list(stream_csv(path, SPECS))

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        assert list(stream_csv(path, SPECS)) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("age,salary,group\n25,50000,A\n\n30,60000,other\n")
        chunks = list(stream_csv(path, SPECS))
        assert sum(len(chunk) for chunk in chunks) == 2

    def test_ragged_row_reported_with_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("age,salary,group\n25,50000,A\n30,60000\n")
        with pytest.raises(ValueError, match="line 3"):
            list(stream_csv(path, SPECS))

    def test_non_numeric_value_reported(self, tmp_path):
        path = tmp_path / "badnum.csv"
        path.write_text("age,salary,group\ntwenty,50000,A\n")
        with pytest.raises(ValueError, match="not a number"):
            list(stream_csv(path, SPECS))


class TestCategoricalSources:
    """CSV and JSONL sources encode categorical columns once, at load,
    and keep the decoded values."""

    def test_synthetic_csv_round_trip_keeps_every_value(self, tmp_path):
        from repro.data.synthetic import (
            DEMOGRAPHIC_ATTRIBUTES,
            GROUP_ATTRIBUTE,
        )

        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=300, outlier_fraction=0.1, seed=4
        ))
        path = tmp_path / "synthetic.csv"
        write_csv(table, path)
        specs = list(DEMOGRAPHIC_ATTRIBUTES) + [GROUP_ATTRIBUTE]
        loaded = read_csv(path, specs)
        for name in ("zipcode", "group"):
            assert loaded.column(name).tolist() == table.column(name).tolist()
            assert np.array_equal(loaded.categorical_column(name).codes,
                                  table.categorical_column(name).codes)
        assert all(type(z) is int for z in loaded.column("zipcode"))

    def test_text_outside_declared_domain_raises(self, tmp_path):
        path = tmp_path / "stray.csv"
        path.write_text("age,salary,group\n25,50000,A\n30,60000,B\n")
        with pytest.raises(KeyError, match="'B' not in the domain"):
            read_csv(path, SPECS)

    def test_chunks_with_different_inferred_domains(self, tmp_path):
        specs = [quantitative("x"), categorical("label")]
        path = tmp_path / "labels.csv"
        path.write_text("x,label\n1,b\n2,b\n3,a\n4,c\n")
        chunks = list(stream_csv(path, specs, chunk_rows=2))
        assert chunks[0].categorical_column("label").domain == ("b",)
        whole = read_csv(path, specs)
        assert whole.column("label").tolist() == ["b", "b", "a", "c"]
        assert whole.categorical_values("label") == ("a", "b", "c")

    def test_jsonl_source_keeps_values(self, tmp_path):
        import json

        from repro.stream import JSONLTailSource, ManualClock

        path = tmp_path / "events.jsonl"
        records = [{"age": 20 + i, "salary": 50_000.0,
                    "group": "other" if i % 3 else "A"} for i in range(7)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        source = JSONLTailSource(path, SPECS, chunk_rows=3, idle_polls=1,
                                 clock=ManualClock())
        labels = [label for chunk in source.chunks()
                  for label in chunk.column("group").tolist()]
        assert labels == [record["group"] for record in records]
