"""Performance reference kernels and budget tooling.

:mod:`repro.perf.reference` keeps the pre-vectorization scalar
implementations of the pipeline's hot paths.  They are not dead code:
the equivalence tests (``tests/test_perf_equivalence.py``) hold the fast
kernels bit-identical to them, and the perf-budget harness
(``benchmarks/perf_budget.py``) measures the fast kernels *against* them
so the committed speedup budgets stay machine-portable.
"""

from repro.perf.reference import (
    add_chunk_scalar,
    assign_bins_scalar,
    consume_scalar,
    count_repeat_errors_scalar,
    neighbourhood_mean_scalar,
    row_bitmaps_scalar,
    verify_scalar,
)

__all__ = [
    "add_chunk_scalar",
    "assign_bins_scalar",
    "consume_scalar",
    "count_repeat_errors_scalar",
    "neighbourhood_mean_scalar",
    "row_bitmaps_scalar",
    "verify_scalar",
]
