"""Categorical value encoding (paper Section 2.1).

"For categorical attributes we also map the attribute values to a set of
consecutive integers and use these integers in place of the categorical
values."  The mapping happens before mining so the rule engine only ever
sees integer codes; this module owns that bijection.

A :class:`~repro.data.schema.Table` already stores each categorical
column as codes into its domain, so encoding a column is a domain-sized
lookup table and one gather (:meth:`CategoricalEncoding.encode`), and
the identity when the column's domain is the encoding's value order.
The per-value loop it replaced is kept as
:func:`repro.perf.reference.encode_scalar`, the oracle it is held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.data.schema import CategoricalColumn


@dataclass(frozen=True)
class CategoricalEncoding:
    """A bijection between categorical values and codes ``0..n-1``.

    The value order is the table's domain order
    (:meth:`~repro.data.schema.Table.categorical_values`), so codes are
    stable for a fixed schema.
    """

    attribute: str
    values: tuple

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if len(values) == 0:
            raise ValueError(
                f"encoding for {self.attribute!r} needs at least one value"
            )
        if len(set(values)) != len(values):
            raise ValueError(
                f"duplicate values in encoding for {self.attribute!r}"
            )
        object.__setattr__(self, "values", values)

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def code_of(self, value: Hashable) -> int:
        """Return the code of a single value."""
        try:
            return self._index()[value]
        except KeyError:
            raise KeyError(
                f"value {value!r} not in the domain of {self.attribute!r}"
            ) from None

    def _index(self) -> dict:
        # Built lazily and cached on the instance; frozen dataclasses allow
        # this via object.__setattr__ on first use.
        cached = self.__dict__.get("_index_cache")
        if cached is None:
            cached = {value: code for code, value in enumerate(self.values)}
            object.__setattr__(self, "_index_cache", cached)
        return cached

    def encode(self, values) -> np.ndarray:
        """Map values to an ``int64`` code array.

        ``values`` is a table's :class:`~repro.data.schema.CategoricalColumn`
        (re-expressed through one domain-sized lookup) or a sequence of
        raw values (factorized first).  An unknown value raises
        :class:`KeyError` naming the first one in row order.
        """
        if not isinstance(values, CategoricalColumn):
            values = CategoricalColumn.from_values(values)
        return values.codes_in(self.values, self.attribute)
