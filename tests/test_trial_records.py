"""Whole-search parity on the e2e fit shapes: every trial record pinned.

Each case fits one table shaped like an e2e fit workload (32x32 bins,
the whole 6 support x 10 confidence lattice) and compares a digest of
every :class:`~repro.core.optimizer.TrialRecord` of the search, by
``repr`` — thresholds, cluster count, MDL cost and every float of the
verifier's report, which ``repr`` round-trips exactly — and the
winner's content hash with values recorded before rule measures were
divided once per search, smoothing compared integer sums, row bitmaps
were read as whole words and the verifier's report was computed in
plain Python.  A change to any stage of a trial that moves one bit of
any trial fails here.
"""

from __future__ import annotations

import hashlib

import pytest

import repro
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.optimizer import OptimizerConfig
from repro.stream.refitter import segmentation_content_hash

E2E_CONFIG = ARCSConfig(
    n_bins_x=32, n_bins_y=32,
    optimizer=OptimizerConfig(max_support_levels=6,
                              max_confidence_levels=10, patience=6),
)


def records_digest(history) -> str:
    text = "\n".join(repr(trial) for trial in history)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("n_tuples, outliers, seed, trials, digest, "
                         "content_hash", [
    (8_000, 0.10, 0, 45, "fa65ea27d9b1e74e", "46883fe5c4f3"),
    (8_000, 0.10, 1, 48, "4e8be7b1104cf56a", "78a44510011d"),
    (8_000, 0.10, 2, 48, "801a7e12e70caa90", "be6df89c6424"),
    (8_000, 0.10, 3, 47, "a2f63deb616d7177", "3aea0e653c51"),
    (8_000, 0.10, 7000, 49, "f3402f3855829567", "e15eb26c6ff3"),
    (400_000, 0.0, 0, 51, "4a17d0c14a447feb", "2ce27def36f2"),
    (400_000, 0.0, 7000, 51, "5fe1dde83311d22d", "bc4c6a636fc0"),
], ids=["fit-fragmented-0", "fit-fragmented-1", "fit-fragmented-2",
        "fit-fragmented-3", "fit-fragmented-7000", "fit-dense-0",
        "fit-dense-7000"])
def test_trial_records_unchanged(n_tuples, outliers, seed, trials, digest,
                                 content_hash):
    table = repro.generate_synthetic(repro.SyntheticConfig(
        n_tuples=n_tuples, function_id=2, perturbation=0.05,
        outlier_fraction=outliers, seed=seed,
    ))
    fitted = ARCS(E2E_CONFIG).fit(table, "age", "salary", "group", "A")
    assert len(fitted.history) == trials
    assert records_digest(fitted.history) == digest
    assert segmentation_content_hash(fitted.segmentation) == content_hash
