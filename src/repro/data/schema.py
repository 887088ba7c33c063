"""Attribute and table model used throughout the ARCS reproduction.

The paper operates on *tuple-oriented* (record) data rather than market
baskets: a fixed schema of attributes, each either *quantitative* (ordered,
continuous or integer-valued, e.g. ``age``, ``salary``) or *categorical*
(finite unordered domain, e.g. ``zipcode``, ``group``).  This module defines

* :class:`AttributeSpec` — the declared name, kind and domain of a column,
* :class:`CategoricalColumn` — a categorical column as integer codes into
  its domain (paper Section 2.1 maps categorical values "to a set of
  consecutive integers"),
* :class:`Table` — an immutable-by-convention column-major table backed by
  NumPy arrays, with the handful of operations the rest of the system needs
  (column access, row subsetting, sampling, chunked streaming, CSV round
  trips via :mod:`repro.data.io`).

A :class:`Table` deliberately stays small: it is a substrate, not a
dataframe library.  Quantitative columns are ``float64`` arrays.  A
categorical column is stored once, as a :class:`CategoricalColumn`: the
narrowest unsigned integer codes that index its domain, which is the
declared ``spec.domain`` or, when none is declared, the distinct values
sorted by ``repr``.  Raw values are encoded once, when the table is
built; :meth:`Table.column` decodes on demand, while the binner, the
stream refitter and the verifier read the codes
(:meth:`Table.categorical_column`).  All mutating-style operations
return new tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

QUANTITATIVE = "quantitative"
CATEGORICAL = "categorical"

_VALID_KINDS = (QUANTITATIVE, CATEGORICAL)


class SchemaError(ValueError):
    """Raised when a table or attribute specification is inconsistent."""


@dataclass(frozen=True)
class AttributeSpec:
    """Declared metadata for a single table column.

    Parameters
    ----------
    name:
        Column name, unique within a table.
    kind:
        Either ``"quantitative"`` or ``"categorical"``.
    domain:
        For quantitative attributes, an optional ``(low, high)`` pair giving
        the closed value range the attribute is drawn from.  The binner uses
        this to lay out equi-width bins without a data pass; when absent the
        observed min/max are used instead.  For categorical attributes, an
        optional tuple of admissible values in canonical order.
    """

    name: str
    kind: str
    domain: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise SchemaError(
                f"attribute {self.name!r} has kind {self.kind!r}; "
                f"expected one of {_VALID_KINDS}"
            )
        if self.domain is not None:
            object.__setattr__(self, "domain", tuple(self.domain))
            if self.is_quantitative:
                if len(self.domain) != 2:
                    raise SchemaError(
                        f"quantitative attribute {self.name!r} needs a "
                        f"(low, high) domain, got {self.domain!r}"
                    )
                low, high = self.domain
                if not (float(low) < float(high)):
                    raise SchemaError(
                        f"attribute {self.name!r} has empty domain "
                        f"[{low}, {high}]"
                    )
            elif len(self.domain) == 0:
                raise SchemaError(
                    f"categorical attribute {self.name!r} has an empty domain"
                )

    @property
    def is_quantitative(self) -> bool:
        return self.kind == QUANTITATIVE

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    def quantitative_range(self) -> tuple[float, float] | None:
        """Return the declared ``(low, high)`` range, or ``None``."""
        if self.is_quantitative and self.domain is not None:
            low, high = self.domain
            return float(low), float(high)
        return None


def quantitative(name: str, low: float | None = None,
                 high: float | None = None) -> AttributeSpec:
    """Convenience constructor for a quantitative :class:`AttributeSpec`."""
    domain = None if low is None or high is None else (low, high)
    return AttributeSpec(name, QUANTITATIVE, domain)


def categorical(name: str, values: Sequence | None = None) -> AttributeSpec:
    """Convenience constructor for a categorical :class:`AttributeSpec`."""
    domain = None if values is None else tuple(values)
    return AttributeSpec(name, CATEGORICAL, domain)


def _code_dtype(size: int) -> np.dtype:
    """The narrowest unsigned integer dtype holding codes ``0..size-1``."""
    return np.min_scalar_type(max(size - 1, 0))


def _object_array(values: Sequence) -> np.ndarray:
    """A 1-D object array of ``values`` (tuples stay single elements)."""
    array = np.empty(len(values), dtype=object)
    for position, value in enumerate(values):
        array[position] = value
    return array


def _positions(values: Sequence, targets: Sequence) -> list[int]:
    """The index in ``targets`` of each of ``values``, or -1 if absent.

    Values are matched as a dict matches keys; values that cannot be
    hashed fall back to ``list.index`` (identity, then ``==``).
    """
    try:
        index = {value: code for code, value in enumerate(targets)}
        return [index.get(value, -1) for value in values]
    except TypeError:
        targets = list(targets)
        found = []
        for value in values:
            try:
                found.append(targets.index(value))
            except ValueError:
                found.append(-1)
        return found


def equal_mask(labels, value) -> np.ndarray:
    """Boolean mask of the rows whose label equals ``value``.

    ``labels`` is a value array or a :class:`CategoricalColumn`; a
    column's domain is compared once and the answer gathered through its
    codes.  NumPy broadcasts ``==`` element-wise over object arrays,
    which is the fast path; the scalar fallback covers values whose
    ``__eq__`` refuses arrays or returns non-arrays.
    """
    if isinstance(labels, CategoricalColumn):
        return equal_mask(_object_array(labels.domain), value)[labels.codes]
    comparison = labels == value
    if isinstance(comparison, np.ndarray) and comparison.dtype == bool:
        return comparison
    return np.asarray([label == value for label in labels], dtype=bool)


@dataclass(frozen=True, eq=False)
class CategoricalColumn:
    """A categorical column: integer ``codes`` into a ``domain`` tuple.

    Row ``i`` holds ``domain[codes[i]]``.  Indexing with a slice, an
    index array or a boolean mask returns the selected rows against the
    same domain, so row operations never touch the values.
    """

    codes: np.ndarray
    domain: tuple

    @classmethod
    def from_values(cls, values: Sequence) -> "CategoricalColumn":
        """Factorize raw values: the domain is the distinct values in
        first-seen order.  One dict lookup per value; values that cannot
        be hashed are matched by equality against the domain instead."""
        index: dict = {}
        try:
            codes = np.fromiter(
                (index.setdefault(value, len(index)) for value in values),
                dtype=np.int64, count=len(values),
            )
            domain = tuple(index)
        except TypeError:
            distinct: list = []
            codes = np.empty(len(values), dtype=np.int64)
            for row, value in enumerate(values):
                try:
                    codes[row] = distinct.index(value)
                except ValueError:
                    codes[row] = len(distinct)
                    distinct.append(value)
            domain = tuple(distinct)
        return cls(codes.astype(_code_dtype(len(domain))), domain)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> "CategoricalColumn":
        return CategoricalColumn(self.codes[rows], self.domain)

    def decode(self) -> np.ndarray:
        """The column's values as an object array (one gather)."""
        return _object_array(self.domain)[self.codes]

    def codes_in(self, values: tuple, attribute: str,
                 dtype=np.int64) -> np.ndarray:
        """The rows' codes re-expressed against ``values``.

        One domain-sized lookup table and one gather; the identity (a
        cast) when the domain already equals ``values``.  A row whose
        value is not in ``values`` raises :class:`KeyError` naming the
        first such value in row order and ``attribute``.
        """
        if self.domain == tuple(values):
            return self.codes.astype(dtype)
        lookup = np.array(_positions(self.domain, values), dtype=np.int64)
        missing = lookup < 0
        if missing.any():
            bad = missing[self.codes]
            if bad.any():
                value = self.domain[self.codes[int(np.argmax(bad))]]
                raise KeyError(
                    f"value {value!r} not in the domain of {attribute!r}"
                )
            lookup[missing] = 0
        return lookup.astype(dtype)[self.codes]

    def recoded(self, domain: tuple, attribute: str) -> "CategoricalColumn":
        """This column against ``domain``, with the narrowest codes."""
        return CategoricalColumn(
            self.codes_in(domain, attribute, _code_dtype(len(domain))),
            domain,
        )


def _as_column(spec: AttributeSpec, values):
    """Coerce raw values into the canonical store for ``spec``.

    Quantitative values become a ``float64`` array.  Categorical values
    (or a :class:`CategoricalColumn`) become codes against the declared
    domain, or against the observed values sorted by ``repr``.
    """
    if spec.is_quantitative:
        return np.asarray(values, dtype=np.float64)
    if isinstance(values, CategoricalColumn):
        codes = np.asarray(values.codes)
        if codes.size and (codes.min() < 0
                           or codes.max() >= len(values.domain)):
            raise SchemaError(
                f"codes of {spec.name!r} fall outside its "
                f"{len(values.domain)}-value domain"
            )
        column = CategoricalColumn(codes, tuple(values.domain))
    else:
        column = CategoricalColumn.from_values(values)
    domain = spec.domain
    if domain is None:
        domain = tuple(sorted(column.domain, key=repr))
    return column.recoded(domain, spec.name)


@dataclass
class Table:
    """A column-major table with a declared schema.

    Construct with :meth:`from_columns`; the bare
    constructor assumes already-coerced stores of equal length.

    Attributes
    ----------
    schema:
        Ordered mapping of attribute name to :class:`AttributeSpec`.
    columns:
        Mapping of attribute name to its store: a ``float64`` array for
        a quantitative attribute, a :class:`CategoricalColumn` for a
        categorical one.
    """

    schema: dict[str, AttributeSpec]
    columns: dict[str, np.ndarray | CategoricalColumn]
    _n_rows: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if set(self.schema) != set(self.columns):
            missing = set(self.schema) ^ set(self.columns)
            raise SchemaError(f"schema/columns mismatch on {sorted(missing)}")
        lengths = {name: len(col) for name, col in self.columns.items()}
        unique_lengths = set(lengths.values())
        if len(unique_lengths) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        self._n_rows = unique_lengths.pop() if unique_lengths else 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, specs: Sequence[AttributeSpec],
                     columns: Mapping[str, Sequence]) -> "Table":
        """Build a table from attribute specs and per-column value sequences.

        Quantitative values are coerced to ``float64``; categorical
        values are encoded once (a :class:`CategoricalColumn` is taken
        as codes).  A value outside a declared categorical domain raises
        :class:`KeyError`.
        """
        schema = {spec.name: spec for spec in specs}
        if len(schema) != len(specs):
            names = [spec.name for spec in specs]
            raise SchemaError(f"duplicate attribute names in {names}")
        coerced = {}
        for name, spec in schema.items():
            if name not in columns:
                raise SchemaError(f"missing column {name!r}")
            coerced[name] = _as_column(spec, columns[name])
        return cls(schema=schema, columns=coerced)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    @property
    def attribute_names(self) -> list[str]:
        return list(self.schema)

    def spec(self, name: str) -> AttributeSpec:
        """Return the :class:`AttributeSpec` for ``name``."""
        try:
            return self.schema[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; table has "
                f"{self.attribute_names}"
            ) from None

    def column(self, name: str) -> np.ndarray:
        """Return the values of ``name``.

        A quantitative column is the backing array (do not mutate it); a
        categorical column is decoded into a new object array, one
        gather over its codes.
        """
        self.spec(name)
        column = self.columns[name]
        if isinstance(column, CategoricalColumn):
            return column.decode()
        return column

    def categorical_column(self, name: str) -> CategoricalColumn:
        """Return the codes store of categorical attribute ``name``."""
        if not self.spec(name).is_categorical:
            raise SchemaError(f"attribute {name!r} is not categorical")
        return self.columns[name]

    def observed_range(self, name: str) -> tuple[float, float]:
        """Return the (declared or observed) value range of a quantitative
        attribute.

        Prefers the declared domain so that bin layouts are stable across
        data sets drawn from the same schema; falls back to the observed
        min/max of the column.
        """
        spec = self.spec(name)
        if not spec.is_quantitative:
            raise SchemaError(f"attribute {name!r} is not quantitative")
        declared = spec.quantitative_range()
        if declared is not None:
            return declared
        column = self.column(name)
        if len(column) == 0:
            raise SchemaError(f"cannot infer range of empty column {name!r}")
        return float(column.min()), float(column.max())

    def categorical_values(self, name: str) -> tuple:
        """Return the ordered distinct values of a categorical attribute.

        Uses the declared domain when present, otherwise the distinct
        observed values sorted by ``repr``: the stored domain's entries
        that some row holds (a row subset keeps its parent's domain).
        """
        column = self.categorical_column(name)
        if self.schema[name].domain is not None:
            return column.domain
        present = np.bincount(column.codes, minlength=len(column.domain))
        return tuple(column.domain[code] for code in np.flatnonzero(present))

    # ------------------------------------------------------------------
    # Row operations (each returns a new Table)
    # ------------------------------------------------------------------
    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Return a new table with the rows at ``indices`` (with repeats)."""
        index_array = np.asarray(indices, dtype=np.intp)
        columns = {name: col[index_array] for name, col in self.columns.items()}
        return Table(schema=dict(self.schema), columns=columns)

    def head(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._n_rows)))

    def with_column(self, spec: AttributeSpec, values: Sequence) -> "Table":
        """Return a new table with column ``spec.name`` added or replaced."""
        column = _as_column(spec, values)
        if len(column) != self._n_rows:
            raise SchemaError(
                f"new column {spec.name!r} has {len(column)} values for a "
                f"table of {self._n_rows} rows"
            )
        schema = dict(self.schema)
        schema[spec.name] = spec
        columns = dict(self.columns)
        columns[spec.name] = column
        return Table(schema=schema, columns=columns)

    def select(self, names: Sequence[str]) -> "Table":
        """Return a new table with only the named columns, in that order."""
        schema = {name: self.spec(name) for name in names}
        columns = {name: self.columns[name] for name in names}
        return Table(schema=schema, columns=columns)

    def concat(self, other: "Table") -> "Table":
        """Return the row-wise concatenation of two same-schema tables."""
        if list(self.schema) != list(other.schema):
            raise SchemaError("cannot concat tables with different schemas")
        columns = {}
        for name, spec in self.schema.items():
            first, second = self.columns[name], other.columns[name]
            if spec.is_quantitative:
                columns[name] = np.concatenate([first, second])
                continue
            domain = first.domain
            if second.domain != domain and spec.domain is None:
                positions = _positions(second.domain, domain)
                extra = tuple(value for value, position
                              in zip(second.domain, positions)
                              if position < 0)
                domain = tuple(sorted(domain + extra, key=repr))
            first = first.recoded(domain, name)
            second = second.recoded(domain, name)
            columns[name] = CategoricalColumn(
                np.concatenate([first.codes, second.codes]), domain
            )
        return Table(schema=dict(self.schema), columns=columns)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def iter_chunks(self, chunk_rows: int) -> Iterator["Table"]:
        """Yield consecutive row slices of at most ``chunk_rows`` rows.

        The ARCS binner consumes chunks so that the full table never needs
        to be materialised by downstream code paths; this iterator is the
        in-memory analogue of the paper's streaming input.
        """
        if chunk_rows <= 0:
            raise SchemaError("chunk_rows must be positive")
        for start in range(0, self._n_rows, chunk_rows):
            stop = min(start + chunk_rows, self._n_rows)
            columns = {
                name: col[start:stop] for name, col in self.columns.items()
            }
            yield Table(schema=dict(self.schema), columns=columns)
