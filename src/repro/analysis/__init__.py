"""Analysis utilities around ARCS output.

* :mod:`repro.analysis.accuracy` — the exact, area-based
  false-positive/false-negative analysis of paper Figure 9, available when
  the generating function's true regions are known.
* :mod:`repro.analysis.selection` — entropy/information-gain and principal
  component attribute selection (paper Sections 1 and 5).

The segmentation object itself is core API:
:class:`repro.core.segmentation.Segmentation`.
"""

from repro.analysis.accuracy import RegionErrorReport, exact_region_error
from repro.analysis.calibration import (
    ErrorDecomposition,
    decompose_error,
    label_noise_rate,
)
from repro.analysis.report import evaluation_report
from repro.analysis.selection import (
    information_gain,
    principal_components,
    rank_attribute_pairs,
)

__all__ = [
    "ErrorDecomposition",
    "decompose_error",
    "label_noise_rate",
    "evaluation_report",
    "RegionErrorReport",
    "exact_region_error",
    "information_gain",
    "principal_components",
    "rank_attribute_pairs",
]
