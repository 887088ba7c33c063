"""Golden content hashes: the same seed gives the same segmentation.

Each test fits fixed-seed synthetic data and compares
:func:`~repro.stream.refitter.segmentation_content_hash` with a digest
recorded before the table's categorical columns moved to an integer
code store.  A change to the generator, the table model, the binner or
any clustering stage that moves an answer fails here, so "same seed,
same bytes" is checked end to end rather than stage by stage.  The
trial-history digests, recorded before the per-trial path was made
grid-sized, pin every trial of a search, not only the winner.
"""

from __future__ import annotations

import hashlib

import pytest

import repro
from repro.binning.binner import Binner
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.optimizer import OptimizerConfig
from repro.data.io import read_csv, write_csv
from repro.data.synthetic import DEMOGRAPHIC_ATTRIBUTES, GROUP_ATTRIBUTE
from repro.stream import (
    RefitterConfig,
    StreamRefitter,
    StreamWindow,
    TableReplaySource,
    WindowConfig,
    run_watch,
)
from repro.stream.refitter import segmentation_content_hash

GOLDEN_FIT_ALL = {"A": "c19cd9ec2dd5", "other": "47ddbd0d46c1"}
GOLDEN_WATCH = ["4dc0a0a6e7df", "819bfb6614d5", "068d47d38356",
                "08d3f612ca70", "e1c6006d4780", "25385c28d903"]

CONFIG = ARCSConfig(
    n_bins_x=24, n_bins_y=24,
    optimizer=OptimizerConfig(max_support_levels=6,
                              max_confidence_levels=4),
)


#: The e2e fit workloads' search: a 32x32 grid and the whole 6 support x
#: 10 confidence lattice.
TRIAL_CONFIG = ARCSConfig(
    n_bins_x=32, n_bins_y=32,
    optimizer=OptimizerConfig(max_support_levels=6,
                              max_confidence_levels=10, patience=6),
)


def generate(n_tuples: int, outliers: float, seed: int) -> repro.Table:
    return repro.generate_synthetic(repro.SyntheticConfig(
        n_tuples=n_tuples, function_id=2, perturbation=0.05,
        outlier_fraction=outliers, seed=seed,
    ))


def fit_hash(table: repro.Table, target: str = "A") -> str:
    fitted = ARCS(CONFIG).fit(table, "age", "salary", "group", target)
    return segmentation_content_hash(fitted.segmentation)


@pytest.mark.parametrize("n_tuples, outliers, seed, expected", [
    (8_000, 0.10, 3, "129123eea863"),
    (50_000, 0.0, 5, "d6f95e5a5908"),
])
def test_function2_fit_hash(n_tuples, outliers, seed, expected):
    assert fit_hash(generate(n_tuples, outliers, seed)) == expected


def test_csv_round_trip_fit_hash(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(generate(8_000, 0.10, 7), path)
    table = read_csv(path, list(DEMOGRAPHIC_ATTRIBUTES) + [GROUP_ATTRIBUTE])
    assert fit_hash(table) == "b80eef29c287"


def test_fit_all_hashes():
    results = ARCS(CONFIG).fit_all(
        generate(8_000, 0.10, 9), "age", "salary", "group"
    )
    hashes = {value: segmentation_content_hash(result.segmentation)
              for value, result in results.items()}
    assert hashes == GOLDEN_FIT_ALL


def test_watch_publishes_golden_hash_sequence(tmp_path):
    table = generate(12_000, 0.10, 13)
    binner = Binner.fit(table, "age", "salary", "group", 16, 16)
    window = StreamWindow(
        binner.x_layout, binner.y_layout, binner.rhs_encoding,
        WindowConfig(mode="sliding", size=4_000, refit_every=2_000),
    )
    refitter = StreamRefitter(
        binner.x_layout, binner.y_layout, binner.rhs_encoding, window,
        "A", tmp_path, "golden",
        RefitterConfig(min_support=0.002, min_confidence=0.5),
    )
    summary = run_watch(TableReplaySource(table, chunk_rows=500), refitter)
    assert [record.content_hash for record in summary.records] == (
        GOLDEN_WATCH
    )


def history_digest(history) -> str:
    """A digest of every trial's thresholds, cluster count and MDL cost,
    floats by ``repr`` (which round-trips them exactly)."""
    text = "\n".join(
        f"{trial.min_support!r} {trial.min_confidence!r} "
        f"{trial.n_clusters} {trial.mdl_cost!r}"
        for trial in history
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize("n_tuples, outliers, n_trials, expected", [
    # The fit-fragmented shape, at full size.
    (8_000, 0.10, 50, "1bea8aa97600"),
    # The fit-dense shape, at a tenth of its size.
    (40_000, 0.0, 48, "f3786902ab57"),
], ids=["fit-fragmented", "fit-dense"])
def test_trial_history_digest(n_tuples, outliers, n_trials, expected):
    fitted = ARCS(TRIAL_CONFIG).fit(
        generate(n_tuples, outliers, 11), "age", "salary", "group", "A"
    )
    assert len(fitted.history) == n_trials
    assert history_digest(fitted.history) == expected


def test_support_level_keeps_its_own_cells_end_to_end():
    """In float64 ``400000 * (206 / 400000)`` exceeds 206, so a count
    test against ``N * min_support`` dropped the cells that define the
    level 206/400000.  Kept, they make that trial this fit's winner;
    without them the search settled on a costlier segmentation
    (digest d51dbefa72cf)."""
    fitted = ARCS(TRIAL_CONFIG).fit(
        generate(400_000, 0.0, 21_000), "age", "salary", "group", "A"
    )
    assert fitted.best_trial.min_support == 206 / 400_000
    assert segmentation_content_hash(fitted.segmentation) == "29f005c4c849"
