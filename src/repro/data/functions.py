"""The ten classification functions of Agrawal, Imielinski and Swami.

The paper's evaluation (Section 4.1) generates synthetic tuples with the
attribute schema and classification functions defined in "Database Mining:
A Performance Perspective" (IEEE TKDE 5(6), 1993) — reference [2] of the
paper.  Function 2 is the one used in every reported experiment (paper
Figure 8):

* ``group = A`` iff
  ``(age < 40      and  50K <= salary <= 100K)`` or
  ``(40 <= age < 60 and  75K <= salary <= 125K)`` or
  ``(age >= 60     and  25K <= salary <=  75K)``

All ten functions are implemented so the generator substrate is complete;
each takes a :class:`~repro.data.schema.Table` carrying the demographic
attributes and returns a boolean array that is true where the tuple belongs
to "Group A".

For the functions whose Group-A region is a finite union of axis-aligned
rectangles in a two-attribute space (functions 1–3), :func:`true_regions`
exposes those rectangles so the exact (area-based) accuracy analysis of
paper Figure 9 can be computed without sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import CategoricalColumn, Table

GROUP_A = "A"
GROUP_OTHER = "other"

#: Identifiers accepted by :func:`classification_function`.
FUNCTION_IDS = tuple(range(1, 11))


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangle in a two-attribute value space.

    Bounds follow the paper's convention of closed lower and open upper
    limits on ``age``-like axes, except where the original function text
    uses closed intervals (salary bands); membership is what
    :meth:`contains` says, and the stored bounds are only descriptive.
    """

    x_attribute: str
    x_lo: float
    x_hi: float
    y_attribute: str
    y_lo: float
    y_hi: float
    x_closed_hi: bool = False
    y_closed_hi: bool = True

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised membership test for points ``(x, y)``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        in_x = (x >= self.x_lo) & (
            (x <= self.x_hi) if self.x_closed_hi else (x < self.x_hi)
        )
        in_y = (y >= self.y_lo) & (
            (y <= self.y_hi) if self.y_closed_hi else (y < self.y_hi)
        )
        return in_x & in_y

    @property
    def area(self) -> float:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)


def _age_bands(age: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three age bands every disjunctive function shares."""
    young = age < 40
    middle = (age >= 40) & (age < 60)
    old = age >= 60
    return young, middle, old


def _between(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (values >= lo) & (values <= hi)


def _function_1(t: Table) -> np.ndarray:
    age = t.column("age")
    return (age < 40) | (age >= 60)


def _function_2(t: Table) -> np.ndarray:
    age = t.column("age")
    salary = t.column("salary")
    young, middle, old = _age_bands(age)
    return (
        (young & _between(salary, 50_000, 100_000))
        | (middle & _between(salary, 75_000, 125_000))
        | (old & _between(salary, 25_000, 75_000))
    )


def _function_3(t: Table) -> np.ndarray:
    age = t.column("age")
    elevel = t.column("elevel")
    young, middle, old = _age_bands(age)
    return (
        (young & _between(elevel, 0, 1))
        | (middle & _between(elevel, 1, 3))
        | (old & _between(elevel, 2, 4))
    )


def _function_4(t: Table) -> np.ndarray:
    age = t.column("age")
    salary = t.column("salary")
    elevel = t.column("elevel")
    young, middle, old = _age_bands(age)
    young_ok = np.where(
        _between(elevel, 0, 1),
        _between(salary, 25_000, 75_000),
        _between(salary, 50_000, 100_000),
    )
    middle_ok = np.where(
        _between(elevel, 1, 3),
        _between(salary, 50_000, 100_000),
        _between(salary, 75_000, 125_000),
    )
    old_ok = np.where(
        _between(elevel, 2, 4),
        _between(salary, 50_000, 100_000),
        _between(salary, 25_000, 75_000),
    )
    return (young & young_ok) | (middle & middle_ok) | (old & old_ok)


def _function_5(t: Table) -> np.ndarray:
    age = t.column("age")
    salary = t.column("salary")
    loan = t.column("loan")
    young, middle, old = _age_bands(age)
    young_ok = np.where(
        _between(salary, 50_000, 100_000),
        _between(loan, 100_000, 300_000),
        _between(loan, 200_000, 400_000),
    )
    middle_ok = np.where(
        _between(salary, 75_000, 125_000),
        _between(loan, 200_000, 400_000),
        _between(loan, 300_000, 500_000),
    )
    old_ok = np.where(
        _between(salary, 25_000, 75_000),
        _between(loan, 300_000, 500_000),
        _between(loan, 100_000, 300_000),
    )
    return (young & young_ok) | (middle & middle_ok) | (old & old_ok)


def _function_6(t: Table) -> np.ndarray:
    age = t.column("age")
    total = t.column("salary") + t.column("commission")
    young, middle, old = _age_bands(age)
    return (
        (young & _between(total, 50_000, 100_000))
        | (middle & _between(total, 75_000, 125_000))
        | (old & _between(total, 25_000, 75_000))
    )


def _disposable_7(t: Table) -> np.ndarray:
    total = t.column("salary") + t.column("commission")
    return 0.67 * total - 0.2 * t.column("loan") - 20_000


def _function_7(t: Table) -> np.ndarray:
    return _disposable_7(t) > 0


def _function_8(t: Table) -> np.ndarray:
    total = t.column("salary") + t.column("commission")
    disposable = 0.67 * total - 5_000 * t.column("elevel") - 20_000
    return disposable > 0


def _function_9(t: Table) -> np.ndarray:
    total = t.column("salary") + t.column("commission")
    disposable = (
        0.67 * total
        - 5_000 * t.column("elevel")
        - 0.2 * t.column("loan")
        - 10_000
    )
    return disposable > 0


def _function_10(t: Table) -> np.ndarray:
    hyears = t.column("hyears")
    equity = np.where(
        hyears >= 20, 0.1 * t.column("hvalue") * (hyears - 20), 0.0
    )
    total = t.column("salary") + t.column("commission")
    disposable = 0.67 * total - 5_000 * t.column("elevel") + 0.2 * equity - 10_000
    return disposable > 0


_FUNCTIONS = {
    1: _function_1,
    2: _function_2,
    3: _function_3,
    4: _function_4,
    5: _function_5,
    6: _function_6,
    7: _function_7,
    8: _function_8,
    9: _function_9,
    10: _function_10,
}


def classification_function(function_id: int):
    """Return the labelling predicate for ``function_id`` (1–10).

    The returned callable maps a :class:`Table` to a boolean array that is
    true where the tuple belongs to Group A.
    """
    try:
        return _FUNCTIONS[function_id]
    except KeyError:
        raise ValueError(
            f"unknown classification function {function_id}; "
            f"valid ids are {FUNCTION_IDS}"
        ) from None


def label_codes(table: Table, function_id: int,
                group_a: str = GROUP_A,
                group_other: str = GROUP_OTHER) -> CategoricalColumn:
    """Label every row of ``table`` as group codes: 0 for ``group_a``,
    1 for ``group_other``, against the domain ``(group_a, group_other)``.
    """
    in_group_a = classification_function(function_id)(table)
    codes = (~np.asarray(in_group_a, dtype=bool)).astype(np.uint8)
    return CategoricalColumn(codes, (group_a, group_other))


def label_table(table: Table, function_id: int,
                group_a: str = GROUP_A,
                group_other: str = GROUP_OTHER) -> np.ndarray:
    """Label every row of ``table`` with ``group_a`` or ``group_other``.

    Returns an object array of group labels (the decoded
    :func:`label_codes`).
    """
    return label_codes(table, function_id, group_a, group_other).decode()


#: Exact Group-A regions for the functions whose region is a finite union of
#: axis-aligned rectangles over two attributes.  Paper Figure 8 draws these
#: for Function 2.
_REGIONS: dict[int, tuple[Region, ...]] = {
    1: (
        Region("age", 20, 40, "salary", 20_000, 150_000, y_closed_hi=True),
        Region("age", 60, 80, "salary", 20_000, 150_000,
               x_closed_hi=True, y_closed_hi=True),
    ),
    2: (
        Region("age", 20, 40, "salary", 50_000, 100_000),
        Region("age", 40, 60, "salary", 75_000, 125_000),
        Region("age", 60, 80, "salary", 25_000, 75_000, x_closed_hi=True),
    ),
    3: (
        Region("age", 20, 40, "elevel", 0, 1),
        Region("age", 40, 60, "elevel", 1, 3),
        Region("age", 60, 80, "elevel", 2, 4, x_closed_hi=True),
    ),
}


def true_regions(function_id: int) -> tuple[Region, ...]:
    """Return the exact Group-A rectangles for ``function_id``.

    Only defined for functions 1–3, whose Group-A set is rectangular; the
    exact-accuracy analysis (paper Figure 9) uses these.  Raises
    ``ValueError`` for the other functions.
    """
    try:
        return _REGIONS[function_id]
    except KeyError:
        raise ValueError(
            f"function {function_id} has no rectangular region "
            f"decomposition; exact regions exist for {sorted(_REGIONS)}"
        ) from None
