"""CSV and streaming I/O for :class:`~repro.data.schema.Table`.

The paper's scale-up experiment (Figure 15) streams tuples from disk and
notes that ARCS needs "only a constant amount of main memory regardless of
the size of the database" because it keeps nothing but the BinArray and the
bitmap.  :func:`stream_csv` is the matching ingestion path here: it yields
fixed-size table chunks so the binner can consume arbitrarily large files
without materialising them.

CSV stores every value as text.  A categorical column is encoded once per
chunk, as it is read: its distinct texts are factorized, and when the
attribute declares a domain each text is matched to the domain value
that writes as that text (``str(value)``), so a written table reads back
with its own values (zipcode ``3``, not ``"3"``).
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path
from typing import Iterator, Sequence

from repro.data.schema import AttributeSpec, CategoricalColumn, Table

logger = logging.getLogger(__name__)


def write_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` as a header-first CSV file."""
    names = table.attribute_names
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        columns = [table.column(name) for name in names]
        writer.writerows(zip(*(column.tolist() for column in columns)))


def _parse_row(specs: Sequence[AttributeSpec], row: Sequence[str],
               line_number: int) -> list:
    if len(row) != len(specs):
        raise ValueError(
            f"line {line_number}: expected {len(specs)} fields, "
            f"got {len(row)}"
        )
    values = []
    for spec, text in zip(specs, row):
        if spec.is_quantitative:
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(
                    f"line {line_number}: {text!r} is not a number for "
                    f"quantitative attribute {spec.name!r}"
                ) from None
        else:
            values.append(text)
    return values


def read_csv(path: str | Path, specs: Sequence[AttributeSpec]) -> Table:
    """Read a whole CSV file into a :class:`Table`.

    The header row must name exactly the attributes in ``specs`` (order in
    the file may differ from ``specs``).
    """
    chunks = list(stream_csv(path, specs, chunk_rows=65536))
    if not chunks:
        return Table.from_columns(specs, {spec.name: [] for spec in specs})
    table = chunks[0]
    for chunk in chunks[1:]:
        table = table.concat(chunk)
    logger.debug("read %d tuples from %s (%d chunks)",
                 len(table), path, len(chunks))
    return table


def stream_csv(path: str | Path, specs: Sequence[AttributeSpec],
               chunk_rows: int = 65536) -> Iterator[Table]:
    """Yield :class:`Table` chunks of at most ``chunk_rows`` rows from a CSV.

    This is the constant-memory ingestion path: only one chunk is resident
    at a time, matching the paper's streaming claim for the binner.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    spec_by_name = {spec.name: spec for spec in specs}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            return
        unknown = [name for name in header if name not in spec_by_name]
        missing = [name for name in spec_by_name if name not in header]
        if unknown or missing:
            raise ValueError(
                f"CSV header mismatch: unknown={unknown}, missing={missing}"
            )
        ordered_specs = [spec_by_name[name] for name in header]
        buffer: list[list] = []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            buffer.append(_parse_row(ordered_specs, row, line_number))
            if len(buffer) >= chunk_rows:
                yield _chunk_to_table(ordered_specs, buffer)
                buffer = []
        if buffer:
            yield _chunk_to_table(ordered_specs, buffer)


def _chunk_to_table(specs: Sequence[AttributeSpec],
                    rows: list[list]) -> Table:
    columns = {}
    for i, spec in enumerate(specs):
        values = [row[i] for row in rows]
        if spec.is_categorical:
            values = _from_text(spec, CategoricalColumn.from_values(values))
        columns[spec.name] = values
    return Table.from_columns(specs, columns)


def _from_text(spec: AttributeSpec,
               column: CategoricalColumn) -> CategoricalColumn:
    """Replace each distinct text by the declared domain value written as
    it; a text no domain value writes as stays, and is rejected as out
    of the domain when the table is built."""
    if spec.domain is None:
        return column
    by_text = {str(value): value for value in spec.domain}
    return CategoricalColumn(
        column.codes, tuple(by_text.get(text, text) for text in column.domain)
    )
