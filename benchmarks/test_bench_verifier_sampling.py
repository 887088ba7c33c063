"""A6 — the verifier's sampling design (paper Section 3.6).

"In order to get a good approximation to the actual error we use
repeated k out of n sampling, a stronger statistical technique."

This bench quantifies that claim: for a fixed segmentation whose exact
error is known, compare the estimator error (RMSE against the exact
rate, across many RNG seeds) of a single k-sample against repeated
k-of-n with the same k.  Averaging over repeats must cut the RMSE
roughly by sqrt(repeats).
"""

import numpy as np

from conftest import ARCS_SWEEP_CONFIG, emit, generate
from repro.core.arcs import ARCS
from repro.core.verifier import Verifier
from repro.viz.report import format_table

SAMPLE_SIZE = 400
N_SEEDS = 40


def test_repeated_sampling_beats_single_sample(benchmark):
    table = generate(30_000, 0.0, seed=150)
    result = ARCS(ARCS_SWEEP_CONFIG).fit(
        table, "age", "salary", "group", "A"
    )
    segmentation = result.segmentation
    exact = Verifier(table, "group", "A").exact_error_rate(segmentation)
    bin_array = result.outcome.bin_array
    rects = result.outcome.pruning.kept

    def rmse(repeats: int) -> float:
        errors = []
        for seed in range(N_SEEDS):
            verifier = Verifier(
                table, "group", "A", sample_size=SAMPLE_SIZE,
                repeats=repeats, seed=seed,
            )
            estimate = verifier.verify_rects(
                bin_array.x_layout, bin_array.y_layout, rects
            ).error_rate
            errors.append((estimate - exact) ** 2)
        return float(np.sqrt(np.mean(errors)))

    single = rmse(1)
    repeated = benchmark.pedantic(
        rmse, args=(8,), rounds=1, iterations=1
    )

    rows = [
        ["exact error rate", exact, "-"],
        ["single k-sample", single, "1.00"],
        ["repeated 8x k-of-n", repeated,
         f"{single / repeated:.2f}x" if repeated else "-"],
    ]
    emit("a6_verifier_sampling",
         "A6: estimator RMSE, single sample vs repeated k-of-n",
         format_table(["estimator", "rmse / value", "improvement"],
                      rows))

    # Repeats must help substantially (sqrt(8) ~ 2.8x in theory; demand
    # at least 1.8x to absorb finite-population effects).
    assert repeated < single / 1.8
