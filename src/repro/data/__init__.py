"""Data substrate for the ARCS reproduction.

This subpackage provides everything the paper's evaluation needs on the data
side: the attribute/table model (:mod:`repro.data.schema`), the synthetic
data generator of Agrawal, Imielinski and Swami with all ten classification
functions (:mod:`repro.data.synthetic`, :mod:`repro.data.functions`), the
perturbation and outlier-injection models (:mod:`repro.data.perturbation`),
CSV and streaming I/O (:mod:`repro.data.io`) and the repeated k-out-of-n
sampling used by the ARCS verifier (:mod:`repro.data.sampling`).
"""

from repro.data.functions import (
    FUNCTION_IDS,
    classification_function,
    label_codes,
    label_table,
    true_regions,
)
from repro.data.perturbation import inject_outliers, perturb_quantitative
from repro.data.sampling import repeated_k_of_n, sample_indices
from repro.data.schema import AttributeSpec, CategoricalColumn, Table
from repro.data.synthetic import (
    DEMOGRAPHIC_ATTRIBUTES,
    SyntheticConfig,
    generate_synthetic,
)

__all__ = [
    "AttributeSpec",
    "CategoricalColumn",
    "Table",
    "SyntheticConfig",
    "generate_synthetic",
    "DEMOGRAPHIC_ATTRIBUTES",
    "FUNCTION_IDS",
    "classification_function",
    "label_codes",
    "label_table",
    "true_regions",
    "perturb_quantitative",
    "inject_outliers",
    "sample_indices",
    "repeated_k_of_n",
]
