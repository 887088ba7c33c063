"""Unit tests for the clustering pipeline (mine → smooth → BitOp → prune)."""

import numpy as np
import pytest

from repro.binning import bin_table
from repro.core.clusterer import (
    ClustererConfig,
    GridClusterer,
    clustered_rule_from_rect,
)
from repro.core.rules import GridRect
from repro.data.functions import true_regions
from repro.mining.engine import rule_measures


@pytest.fixture()
def clean_setup(f2_binner):
    code = f2_binner.rhs_encoding.code_of("A")
    return f2_binner.bin_array, code


class TestPipeline:
    def test_finds_three_clusters_on_clean_data(self, clean_setup):
        """Unperturbed Function 2 must yield exactly the three generating
        regions (the paper's headline claim, in its easiest setting)."""
        bin_array, code = clean_setup
        outcome = GridClusterer().cluster(
            rule_measures(bin_array, code), min_support=0.0005,
            min_confidence=0.6,
        )
        assert outcome.n_rules == 3

    def test_rules_near_generating_regions(self, clean_setup):
        bin_array, code = clean_setup
        outcome = GridClusterer().cluster(rule_measures(bin_array, code),
                                          0.0005, 0.6)
        regions = {
            (region.x_lo, region.x_hi): region
            for region in true_regions(2)
        }
        # Bin width: age 2.0 (30 bins over 60), salary ~4333.
        for rule in outcome.rules:
            matches = [
                region for region in regions.values()
                if abs(rule.x_interval.low - region.x_lo) <= 2.5
                and abs(rule.x_interval.high - region.x_hi) <= 2.5
                and abs(rule.y_interval.low - region.y_lo) <= 9000
                and abs(rule.y_interval.high - region.y_hi) <= 9000
            ]
            assert matches, f"rule {rule} matches no generating region"

    def test_outcome_exposes_all_stages(self, clean_setup):
        bin_array, code = clean_setup
        outcome = GridClusterer().cluster(rule_measures(bin_array, code),
                                          0.0005, 0.6)
        assert outcome.raw_grid.n_set > 0
        assert outcome.smoothed_grid.n_set > 0
        assert len(outcome.clusters) >= outcome.n_rules
        assert outcome.pruning.min_cells >= 1

    def test_rule_measures_within_bounds(self, clean_setup):
        bin_array, code = clean_setup
        outcome = GridClusterer().cluster(rule_measures(bin_array, code),
                                          0.0005, 0.6)
        for rule in outcome.rules:
            assert 0.0 < rule.support <= 1.0
            assert 0.0 < rule.confidence <= 1.0

    def test_without_smoothing_guarantee_holds(self, clean_setup):
        """Paper Section 2.1: clustered rules keep at least the threshold
        confidence — exactly true when smoothing is off."""
        bin_array, code = clean_setup
        config = ClustererConfig(smoothing=False, merge_clusters=False,
                                 prune_fraction=0.0)
        outcome = GridClusterer(config).cluster(rule_measures(bin_array, code),
                                                0.0005, 0.6)
        for rule in outcome.rules:
            assert rule.confidence >= 0.6
            assert rule.support >= 0.0005

    def test_impossible_thresholds_give_empty_outcome(self, clean_setup):
        bin_array, code = clean_setup
        outcome = GridClusterer().cluster(rule_measures(bin_array, code),
                                          0.9, 0.99)
        assert outcome.n_rules == 0
        assert outcome.raw_grid.n_set == 0

    def test_support_weighted_variant_runs(self, clean_setup):
        bin_array, code = clean_setup
        config = ClustererConfig(support_weighted=True)
        outcome = GridClusterer(config).cluster(rule_measures(bin_array, code),
                                                0.0005, 0.6)
        assert outcome.n_rules >= 1

    def test_pruning_disabled_keeps_slivers(self, clean_setup):
        bin_array, code = clean_setup
        pruned = GridClusterer(
            ClustererConfig(merge_clusters=False)
        ).cluster(rule_measures(bin_array, code), 0.0005, 0.6)
        unpruned = GridClusterer(
            ClustererConfig(merge_clusters=False, prune_fraction=0.0)
        ).cluster(rule_measures(bin_array, code), 0.0005, 0.6)
        assert unpruned.n_rules >= pruned.n_rules


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"smoothing_threshold": 0.0}, r"threshold must be in \(0, 1\]"),
        ({"smoothing_threshold": 1.5}, r"threshold must be in \(0, 1\]"),
        ({"smoothing_passes": -1}, "passes must be non-negative"),
        ({"prune_fraction": 1.0}, r"fraction must be in \[0, 1\)"),
        ({"prune_fraction": -0.1}, r"fraction must be in \[0, 1\)"),
        ({"min_cluster_cells": 0}, "min_cells must be at least 1"),
        ({"merge_cover_fraction": 0.0},
         r"cover_fraction must be in \(0, 1\]"),
        ({"merge_cover_fraction": 1.5},
         r"cover_fraction must be in \(0, 1\]"),
        # Checked even where the stage that reads it is switched off.
        ({"merge_cover_fraction": 1.5, "merge_clusters": False},
         r"cover_fraction must be in \(0, 1\]"),
        ({"smoothing_threshold": 0.0, "smoothing": False},
         r"threshold must be in \(0, 1\]"),
    ])
    def test_rejects_bad_values_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ClustererConfig(**kwargs)

    def test_accepts_boundary_values(self):
        ClustererConfig(smoothing_threshold=1.0, smoothing_passes=0,
                        prune_fraction=0.0, min_cluster_cells=1,
                        merge_cover_fraction=1.0)


class TestClusteredRuleFromRect:
    def test_interval_translation(self, clean_setup):
        bin_array, code = clean_setup
        rect = GridRect(0, 2, 0, 1)
        rule = clustered_rule_from_rect(rect, bin_array, code)
        x_low, _ = bin_array.x_layout.bin_interval(0)
        _, x_high = bin_array.x_layout.bin_interval(2)
        assert rule.x_interval.low == x_low
        assert rule.x_interval.high == x_high
        assert rule.rect == rect

    def test_last_bin_closes_interval(self, clean_setup):
        bin_array, code = clean_setup
        last = bin_array.n_x - 1
        rule = clustered_rule_from_rect(
            GridRect(last, last, 0, 0), bin_array, code
        )
        assert rule.x_interval.closed_high
        assert not rule.y_interval.closed_high

    def test_measures_match_region_counts(self, clean_setup):
        bin_array, code = clean_setup
        rect = GridRect(0, 4, 0, 4)
        rule = clustered_rule_from_rect(rect, bin_array, code)
        target, total = bin_array.region_counts(0, 4, 0, 4, code)
        assert rule.support == pytest.approx(target / bin_array.n_total)
        if total:
            assert rule.confidence == pytest.approx(target / total)
