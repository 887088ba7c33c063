"""Synthetic demographic data generator (paper Section 4.1, Table 1).

The evaluation data follows Agrawal, Imielinski and Swami's generator: nine
demographic attributes with fixed distributions, a classification function
that assigns each tuple to "Group A" or "Group other", an optional
*perturbation factor* that fuzzes the attribute values after labelling (to
model fuzzy group boundaries), and an optional *outlier percentage* of
tuples whose label contradicts the generating rules.

Paper Table 1 instantiates this with Function 2, 20 thousand to 10 million
tuples, a 5% perturbation factor and 0% or 10% outliers, yielding roughly
40% Group A / 60% Group other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.functions import GROUP_A, GROUP_OTHER, label_codes
from repro.data.perturbation import inject_outliers, perturb_quantitative
from repro.data.schema import (
    AttributeSpec,
    CategoricalColumn,
    Table,
    categorical,
    quantitative,
)

#: Median house-price multiplier per zipcode, indexed by zipcode 0–8; the
#: original generator makes house value depend on zipcode this way.
_ZIPCODE_COUNT = 9
ZIPCODE_DOMAIN = tuple(range(_ZIPCODE_COUNT))

#: The demographic schema of Agrawal et al. (paper reference [2]).
DEMOGRAPHIC_ATTRIBUTES: tuple[AttributeSpec, ...] = (
    quantitative("salary", 20_000, 150_000),
    quantitative("commission", 0, 75_000),
    quantitative("age", 20, 80),
    quantitative("elevel", 0, 4),
    quantitative("car", 1, 20),
    categorical("zipcode", ZIPCODE_DOMAIN),
    quantitative("hvalue", 0, 13_500_000),
    quantitative("hyears", 1, 30),
    quantitative("loan", 0, 500_000),
)

#: The label column added by the generator.
GROUP_ATTRIBUTE = AttributeSpec(
    "group", "categorical", (GROUP_A, GROUP_OTHER)
)


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of one synthetic data set (paper Table 1).

    Parameters
    ----------
    n_tuples:
        Number of rows to generate (paper: 20k – 10M).
    function_id:
        Which of the ten classification functions labels the data
        (paper: Function 2).
    perturbation:
        Fraction ``p`` of each labelled attribute's domain width used as the
        additive perturbation amplitude after labelling (paper: 5%).
    outlier_fraction:
        Fraction ``U`` of tuples whose group label is flipped so the tuple
        no longer obeys the generating rules (paper: 0% and 10%).
    perturbed_attributes:
        The quantitative attributes to perturb; defaults to the attributes
        Function 2 reads (``age`` and ``salary``).
    seed:
        Seed for the NumPy generator; every run is reproducible.
    """

    n_tuples: int
    function_id: int = 2
    perturbation: float = 0.05
    outlier_fraction: float = 0.0
    perturbed_attributes: tuple[str, ...] = ("age", "salary")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_tuples <= 0:
            raise ValueError("n_tuples must be positive")
        if not 0.0 <= self.perturbation < 1.0:
            raise ValueError("perturbation must be in [0, 1)")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")


def _base_attributes(n: int, rng: np.random.Generator) -> dict:
    """Draw the nine demographic attributes per the original generator.

    The zipcode domain is ``range(9)``, so the drawn integers are the
    zipcode column's codes as they stand.
    """
    salary = rng.uniform(20_000, 150_000, size=n)
    # Commission is zero for high earners, otherwise uniform 10k–75k.
    commission = np.where(
        salary >= 75_000, 0.0, rng.uniform(10_000, 75_000, size=n)
    )
    age = rng.uniform(20, 80, size=n)
    elevel = rng.integers(0, 5, size=n).astype(np.float64)
    car = rng.integers(1, 21, size=n).astype(np.float64)
    zipcode = rng.integers(0, _ZIPCODE_COUNT, size=n)
    # House value depends on zipcode: uniform in 0.5k*100k .. 1.5k*100k for
    # multiplier k in 1..9 derived from the zipcode.
    k = (zipcode + 1).astype(np.float64)
    hvalue = rng.uniform(0.5 * k * 100_000, 1.5 * k * 100_000)
    hyears = rng.uniform(1, 30, size=n)
    loan = rng.uniform(0, 500_000, size=n)
    return {
        "salary": salary,
        "commission": commission,
        "age": age,
        "elevel": elevel,
        "car": car,
        "zipcode": CategoricalColumn(zipcode, ZIPCODE_DOMAIN),
        "hvalue": hvalue,
        "hyears": hyears,
        "loan": loan,
    }


def generate_synthetic(config: SyntheticConfig) -> Table:
    """Generate a labelled synthetic table per ``config``.

    The pipeline mirrors the paper's generator: draw attributes, assign the
    group label with the classification function, perturb the labelled
    attributes by the perturbation factor, then flip the labels of an
    ``outlier_fraction`` of tuples.  The returned table carries the nine
    demographic columns plus a categorical ``group`` column.
    """
    rng = np.random.default_rng(config.seed)
    columns = _base_attributes(config.n_tuples, rng)
    table = Table.from_columns(DEMOGRAPHIC_ATTRIBUTES, columns)

    labels = label_codes(table, config.function_id)

    if config.perturbation > 0.0:
        table = perturb_quantitative(
            table, config.perturbed_attributes, config.perturbation, rng
        )

    if config.outlier_fraction > 0.0:
        # Codes 0 and 1 stand for GROUP_A and GROUP_OTHER.
        labels = CategoricalColumn(
            inject_outliers(labels.codes, config.outlier_fraction, rng,
                            groups=(0, 1)),
            labels.domain,
        )

    return table.with_column(GROUP_ATTRIBUTE, labels)


def group_fractions(table: Table, group_column: str = "group") -> dict:
    """Return the fraction of rows per group label (paper Table 1 check)."""
    labels = table.column(group_column)
    values, counts = np.unique(labels.astype(str), return_counts=True)
    total = float(len(table))
    return {value: count / total for value, count in zip(values, counts)}
