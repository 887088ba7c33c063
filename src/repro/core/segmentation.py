"""Segmentations: the collection of clustered rules for one criterion.

Paper Section 2.2: "We define a segmentation as the collection of all the
clustered association rules for a specific value of the criterion
attribute."  A :class:`Segmentation` answers the question the marketing
scenario asks — *does this point belong to the segment?* — by testing the
point against every rule's rectangle, and carries enough provenance
(attributes, criterion, rules) to be rendered for an end user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.rules import ClusteredRule
from repro.data.schema import Table


@dataclass(frozen=True)
class Segmentation:
    """All clustered association rules for one RHS criterion value.

    Rules share the same LHS attribute pair and the same RHS attribute and
    value; the constructor enforces that so a segmentation is always a
    coherent picture of one segment.
    """

    rules: tuple[ClusteredRule, ...]
    x_attribute: str
    y_attribute: str
    rhs_attribute: str
    rhs_value: object

    def __post_init__(self) -> None:
        rules = tuple(self.rules)
        object.__setattr__(self, "rules", rules)
        for rule in rules:
            consistent = (
                rule.x_attribute == self.x_attribute
                and rule.y_attribute == self.y_attribute
                and rule.rhs_attribute == self.rhs_attribute
                and rule.rhs_value == self.rhs_value
            )
            if not consistent:
                raise ValueError(
                    f"rule {rule} does not belong to segmentation over "
                    f"({self.x_attribute}, {self.y_attribute}) => "
                    f"{self.rhs_attribute} = {self.rhs_value}"
                )

    @classmethod
    def from_rules(cls, rules: Sequence[ClusteredRule]) -> "Segmentation":
        """Build from a non-empty rule list, inferring the attributes."""
        if not rules:
            raise ValueError(
                "cannot infer segmentation attributes from no rules; "
                "use the explicit constructor for an empty segmentation"
            )
        first = rules[0]
        return cls(
            rules=tuple(rules),
            x_attribute=first.x_attribute,
            y_attribute=first.y_attribute,
            rhs_attribute=first.rhs_attribute,
            rhs_value=first.rhs_value,
        )

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[ClusteredRule]:
        return iter(self.rules)

    @property
    def is_empty(self) -> bool:
        return len(self.rules) == 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def covers(self, x_values, y_values) -> np.ndarray:
        """Vectorised: true where any rule's rectangle contains the point."""
        x_values = np.asarray(x_values, dtype=np.float64)
        covered = np.zeros(x_values.shape, dtype=bool)
        for rule in self.rules:
            covered |= rule.matches(x_values, y_values)
        return covered

    def covers_table(self, table: Table) -> np.ndarray:
        """Membership for every row of a table with the LHS columns."""
        return self.covers(
            table.column(self.x_attribute), table.column(self.y_attribute)
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable rule listing in the paper's style."""
        if self.is_empty:
            return (
                f"(empty segmentation for {self.rhs_attribute} = "
                f"{self.rhs_value})"
            )
        return "\n".join(str(rule) for rule in self.rules)
