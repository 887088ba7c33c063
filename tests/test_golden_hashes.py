"""Golden content hashes: the same seed gives the same segmentation.

Each test fits fixed-seed synthetic data and compares
:func:`~repro.stream.refitter.segmentation_content_hash` with a digest
recorded before the table's categorical columns moved to an integer
code store.  A change to the generator, the table model, the binner or
any clustering stage that moves an answer fails here, so "same seed,
same bytes" is checked end to end rather than stage by stage.
"""

from __future__ import annotations

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
