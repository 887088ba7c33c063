"""Integration tests for the end-to-end ARCS system."""

import numpy as np
import pytest

import repro
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.optimizer import OptimizerConfig
from repro.data.functions import true_regions
from repro.data.schema import CategoricalColumn

FAST_OPTIMIZER = OptimizerConfig(max_support_levels=6,
                                 max_confidence_levels=4)


@pytest.fixture(scope="module")
def fitted(request):
    """One fitted ARCS result shared by this module's assertions."""
    config = repro.SyntheticConfig(
        n_tuples=20_000, function_id=2, perturbation=0.05, seed=42
    )
    table = repro.generate_synthetic(config)
    arcs = ARCS(ARCSConfig(optimizer=FAST_OPTIMIZER))
    return table, arcs.fit(table, "age", "salary", "group", "A")


class TestHeadlineResult:
    """Paper Section 4.2: ARCS always produced three clustered rules,
    each very similar to the generating rules."""

    def test_exactly_three_rules(self, fitted):
        _, result = fitted
        assert len(result.segmentation) == 3

    def test_rules_match_generating_regions(self, fitted):
        _, result = fitted
        regions = list(true_regions(2))
        # Bin widths at the default 50 bins: age 1.2, salary 2600.
        # Perturbation blurs boundaries, so allow a few bins of slack.
        for rule in result.segmentation:
            best = min(
                regions,
                key=lambda region: abs(rule.x_interval.low - region.x_lo),
            )
            assert abs(rule.x_interval.low - best.x_lo) <= 4 * 1.2
            assert abs(rule.x_interval.high - best.x_hi) <= 4 * 1.2
            assert abs(rule.y_interval.low - best.y_lo) <= 4 * 2600
            assert abs(rule.y_interval.high - best.y_hi) <= 4 * 2600

    def test_error_rate_low(self, fitted):
        _, result = fitted
        assert result.best_trial.report.error_rate < 0.12

    def test_history_and_best_consistent(self, fitted):
        _, result = fitted
        assert result.best_trial in result.history
        assert result.best_trial.mdl_cost == min(
            trial.mdl_cost for trial in result.history
        )

    def test_stop_reason_recorded(self, fitted):
        _, result = fitted
        assert result.stopped_by in (
            "no improvement", "time budget", "exhausted"
        )


class TestRemine:
    def test_remine_without_data_pass(self, fitted):
        _, result = fitted
        before = result.binner.bin_array.n_total
        segmentation = result.remine(
            result.best_trial.min_support,
            result.best_trial.min_confidence,
        )
        assert result.binner.bin_array.n_total == before
        assert len(segmentation) == len(result.segmentation)

    def test_remine_at_impossible_thresholds_is_empty(self, fitted):
        _, result = fitted
        segmentation = result.remine(0.99, 0.99)
        assert segmentation.is_empty

    def test_remine_is_fast(self, fitted):
        """The paper's 'nearly instantaneous' claim, loosely enforced."""
        import time
        _, result = fitted
        start = time.perf_counter()
        result.remine(0.001, 0.7)
        assert time.perf_counter() - start < 1.0


class TestConfiguration:
    def test_rejects_bad_bin_counts(self):
        with pytest.raises(ValueError):
            ARCSConfig(n_bins_x=0)

    def test_single_target_memory_mode(self):
        config = repro.SyntheticConfig(n_tuples=5_000, seed=1)
        table = repro.generate_synthetic(config)
        arcs = ARCS(ARCSConfig(
            optimizer=FAST_OPTIMIZER, single_target_memory=True,
            n_bins_x=20, n_bins_y=20,
        ))
        result = arcs.fit(table, "age", "salary", "group", "A")
        assert result.binner.bin_array.single_target
        assert len(result.segmentation) >= 1

    def test_describe_contains_rules_and_thresholds(self, fitted):
        _, result = fitted
        text = result.describe()
        assert "group = A" in text
        assert "support>=" in text

    def test_verification_table_can_be_held_out(self):
        train = repro.generate_synthetic(
            repro.SyntheticConfig(n_tuples=10_000, seed=2)
        )
        held_out = repro.generate_synthetic(
            repro.SyntheticConfig(n_tuples=5_000, seed=3)
        )
        arcs = ARCS(ARCSConfig(optimizer=FAST_OPTIMIZER,
                               n_bins_x=25, n_bins_y=25))
        result = arcs.fit(
            train, "age", "salary", "group", "A",
            verification_table=held_out,
        )
        assert len(result.segmentation) >= 1

    def test_unknown_target_value_rejected(self, fitted):
        table, _ = fitted
        arcs = ARCS(ARCSConfig(optimizer=FAST_OPTIMIZER))
        with pytest.raises(KeyError):
            arcs.fit(table, "age", "salary", "group", "no-such-group")


class TestOutlierRobustness:
    # Outlier background needs a fine confidence axis to threshold away;
    # a too-coarse optimizer admits spurious low-confidence rectangles.
    OUTLIER_OPTIMIZER = OptimizerConfig(max_support_levels=6,
                                        max_confidence_levels=8)

    def test_three_rules_survive_outliers(self, f2_outlier_table):
        """Paper Figure 12 setting: 10% outliers still yield the three
        generating clusters."""
        arcs = ARCS(ARCSConfig(optimizer=self.OUTLIER_OPTIMIZER))
        result = arcs.fit(
            f2_outlier_table, "age", "salary", "group", "A"
        )
        assert len(result.segmentation) == 3

    def test_error_bounded_by_outliers_plus_noise(self, f2_outlier_table):
        arcs = ARCS(ARCSConfig(optimizer=self.OUTLIER_OPTIMIZER))
        result = arcs.fit(
            f2_outlier_table, "age", "salary", "group", "A"
        )
        # 10% flipped labels are irreducible; structure adds a bit more.
        assert 0.10 <= result.best_trial.report.error_rate < 0.25


class TestCodesStore:
    def test_fit_never_decodes_a_categorical_column(self, monkeypatch):
        """The binner, verifier and optimizer read the RHS codes: a fit
        never gathers a full column of categorical values."""
        table = repro.generate_synthetic(repro.SyntheticConfig(
            n_tuples=5_000, outlier_fraction=0.1, seed=8
        ))
        decodes = []
        original = CategoricalColumn.decode

        def counting_decode(column):
            decodes.append(len(column))
            return original(column)

        monkeypatch.setattr(CategoricalColumn, "decode", counting_decode)
        result = ARCS(ARCSConfig(n_bins_x=20, n_bins_y=20,
                                 optimizer=FAST_OPTIMIZER)).fit(
            table, "age", "salary", "group", "A"
        )
        assert len(result.segmentation) > 0
        assert decodes == []
        table.column("group")
        assert decodes == [len(table)]
