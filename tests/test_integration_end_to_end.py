"""End-to-end integration: the full paper pipeline on fresh data.

These tests exercise the whole system the way the paper's evaluation
does: generate data, fit ARCS, compare against C4.5, check the exact
region accuracy, and run the streaming path from CSV.
"""

import numpy as np
import pytest

import repro
from repro.analysis.accuracy import exact_region_error
from repro.baselines import C45Rules, C45Tree, classification_error
from repro.binning.binner import Binner
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.optimizer import OptimizerConfig
from repro.data.functions import true_regions
from repro.data.io import stream_csv, write_csv
from repro.data.synthetic import DEMOGRAPHIC_ATTRIBUTES, GROUP_ATTRIBUTE

FAST = ARCSConfig(
    optimizer=OptimizerConfig(max_support_levels=6,
                              max_confidence_levels=6),
)


@pytest.fixture(scope="module")
def experiment():
    train = repro.generate_synthetic(
        repro.SyntheticConfig(n_tuples=15_000, seed=100)
    )
    test = repro.generate_synthetic(
        repro.SyntheticConfig(n_tuples=8_000, seed=101)
    )
    result = ARCS(FAST).fit(train, "age", "salary", "group", "A")
    return train, test, result


class TestArcsVsTruth:
    def test_exact_region_error_small(self, experiment):
        _, _, result = experiment
        report = exact_region_error(
            result.segmentation, true_regions(2),
            x_range=(20, 80), y_range=(20_000, 150_000),
        )
        assert report.total_error_area < 0.06
        assert report.jaccard > 0.8

    def test_generalises_to_held_out_data(self, experiment):
        _, test, result = experiment
        covered = result.segmentation.covers_table(test)
        actual = np.asarray(
            [label == "A" for label in test.column("group")]
        )
        error = float(np.mean(covered != actual))
        assert error < 0.12


class TestArcsVsC45:
    @pytest.fixture(scope="class")
    def c45(self, experiment):
        train, _, _ = experiment
        sample = train.head(5000)
        tree = C45Tree().fit(sample, ["age", "salary"], "group")
        return sample, tree, C45Rules.from_tree(tree, sample)

    def test_error_rates_comparable(self, experiment, c45):
        _, test, result = experiment
        _, _, rules = c45
        arcs_error = float(np.mean(
            result.segmentation.covers_table(test)
            != np.asarray(
                [label == "A" for label in test.column("group")]
            )
        ))
        c45_error = classification_error(
            rules.predict(test), test, "group", "A"
        )
        # Paper Figure 11: both systems land in the same error band.
        assert abs(arcs_error - c45_error) < 0.08

    def test_arcs_produces_far_fewer_rules(self, experiment, c45):
        """Paper Figures 13/14: a handful of ARCS rules vs dozens from
        C4.5."""
        _, _, result = experiment
        _, _, rules = c45
        assert len(result.segmentation) <= 5
        assert len(rules) > 2 * len(result.segmentation)


class TestStreamingPath:
    def test_csv_stream_reproduces_in_memory_binning(self, experiment,
                                                     tmp_path):
        train, _, result = experiment
        subset = train.head(4000)
        path = tmp_path / "train.csv"
        write_csv(subset, path)

        specs = list(DEMOGRAPHIC_ATTRIBUTES) + [GROUP_ATTRIBUTE]
        streamed = Binner.fit(
            subset, "age", "salary", "group", 50, 50
        )
        for chunk in stream_csv(path, specs, chunk_rows=512):
            streamed.consume(chunk)

        direct = Binner.fit(subset, "age", "salary", "group", 50, 50)
        direct.consume(subset)
        assert np.array_equal(
            streamed.bin_array.counts, direct.bin_array.counts
        )

    def test_memory_footprint_independent_of_data_size(self):
        """The paper's constant-memory claim: the BinArray's size depends
        only on the bin counts, never on |D|."""
        small = repro.generate_synthetic(
            repro.SyntheticConfig(n_tuples=1_000, seed=1)
        )
        large = repro.generate_synthetic(
            repro.SyntheticConfig(n_tuples=50_000, seed=2)
        )
        binner_small = Binner.fit(small, "age", "salary", "group", 50, 50)
        binner_small.consume(small)
        binner_large = Binner.fit(large, "age", "salary", "group", 50, 50)
        binner_large.consume(large)
        for cube in ("counts", "totals"):
            assert (getattr(binner_small.bin_array, cube).size
                    == getattr(binner_large.bin_array, cube).size)
