"""Unit tests for the threshold lattice and the heuristic optimizer."""

import pytest

from repro.core import clusterer as clusterer_module
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.clusterer import GridClusterer
from repro.core.mdl import MDLWeights
from repro.core.optimizer import (
    HeuristicOptimizer,
    OptimizerConfig,
    ThresholdLattice,
    _spread,
)
from repro.core.verifier import Verifier
from repro.extensions.annealing import AnnealingConfig, AnnealingOptimizer
from repro.extensions.factorial import factorial_search


@pytest.fixture()
def lattice(f2_binner):
    code = f2_binner.rhs_encoding.code_of("A")
    return ThresholdLattice(f2_binner.bin_array, code)


class TestThresholdLattice:
    def test_support_counts_ascending_and_occurring(self, lattice,
                                                    f2_binner):
        counts = lattice.support_counts
        assert list(counts) == sorted(set(counts))
        grid = f2_binner.bin_array.count_grid(0)
        occurring = set(int(c) for c in grid.flatten() if c > 0)
        assert set(counts) == occurring

    def test_support_fractions(self, lattice):
        fractions = lattice.support_fractions()
        assert len(fractions) == len(lattice.support_counts)
        assert fractions[0] == pytest.approx(
            lattice.support_counts[0] / lattice.n_total
        )

    def test_confidences_shrink_with_support(self, lattice):
        low = lattice.confidences_at(1)
        high = lattice.confidences_at(lattice.support_counts[-1])
        assert len(high) <= len(low)
        assert set(high) <= set(low)

    def test_coarsen_supports_keeps_extremes(self, lattice):
        coarse = lattice.coarsen_supports(5)
        fractions = lattice.support_fractions()
        assert len(coarse) <= 5
        assert coarse[0] == fractions[0]
        assert coarse[-1] == fractions[-1]

    def test_coarsen_confidences_bounded(self, lattice):
        coarse = lattice.coarsen_confidences(1, 4)
        assert len(coarse) <= 4


class TestSpread:
    def test_short_lists_unchanged(self):
        assert _spread([1.0, 2.0], 5) == [1.0, 2.0]

    def test_spread_keeps_endpoints(self):
        values = [float(v) for v in range(100)]
        got = _spread(values, 7)
        assert len(got) == 7
        assert got[0] == 0.0 and got[-1] == 99.0

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            _spread([1.0], 0)


class TestOptimizerConfig:
    def test_defaults_valid(self):
        OptimizerConfig()

    @pytest.mark.parametrize("kwargs", [
        {"max_support_levels": 0},
        {"max_confidence_levels": 0},
        {"patience": 0},
        {"epsilon": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestHeuristicOptimizer:
    def make_optimizer(self, table, **config_kwargs):
        config = OptimizerConfig(
            max_support_levels=6, max_confidence_levels=4,
            **config_kwargs,
        )
        return HeuristicOptimizer(
            clusterer=GridClusterer(),
            verifier=Verifier(table, "group", "A", sample_size=1000,
                              repeats=3),
            weights=MDLWeights(),
            config=config,
        )

    def test_search_returns_best_trial(self, f2_binner, f2_clean_table):
        code = f2_binner.rhs_encoding.code_of("A")
        optimizer = self.make_optimizer(f2_clean_table)
        result = optimizer.search(f2_binner.bin_array, code)
        assert result.best.mdl_cost == min(
            trial.mdl_cost for trial in result.history
        )
        assert result.best.n_clusters == len(result.segmentation)
        # The winner is the last trial that improved on every earlier
        # one; the trials after it are the wasted search.
        winner = len(result.history) - 1 - result.trials_after_best
        assert result.history[winner] is result.best
        assert all(
            trial.mdl_cost >= result.best.mdl_cost - optimizer.config.epsilon
            for trial in result.history[winner + 1:]
        )

    def test_clean_data_yields_three_clusters(self, f2_binner,
                                              f2_clean_table):
        code = f2_binner.rhs_encoding.code_of("A")
        optimizer = self.make_optimizer(f2_clean_table)
        result = optimizer.search(f2_binner.bin_array, code)
        assert result.best.n_clusters == 3

    def test_search_starts_at_lowest_support(self, f2_binner,
                                             f2_clean_table):
        code = f2_binner.rhs_encoding.code_of("A")
        optimizer = self.make_optimizer(f2_clean_table)
        result = optimizer.search(f2_binner.bin_array, code)
        lattice = ThresholdLattice(f2_binner.bin_array, code)
        assert result.history[0].min_support == pytest.approx(
            lattice.support_fractions()[0]
        )

    def test_supports_visited_in_ascending_order(self, f2_binner,
                                                 f2_clean_table):
        code = f2_binner.rhs_encoding.code_of("A")
        optimizer = self.make_optimizer(f2_clean_table)
        result = optimizer.search(f2_binner.bin_array, code)
        supports = [trial.min_support for trial in result.history]
        assert supports == sorted(supports)

    def test_time_budget_stops_search(self, f2_binner, f2_clean_table):
        code = f2_binner.rhs_encoding.code_of("A")
        optimizer = self.make_optimizer(
            f2_clean_table, time_budget_seconds=0.0
        )
        # A zero budget still runs the first support level's trials? No —
        # the deadline check precedes each level, so at least one level
        # must be allowed; with budget 0 the search stops immediately and
        # must raise because no trial ran.
        with pytest.raises(ValueError):
            optimizer.search(f2_binner.bin_array, code)

    def test_on_trial_hook_sees_every_trial(self, f2_binner,
                                            f2_clean_table):
        code = f2_binner.rhs_encoding.code_of("A")
        seen = []
        optimizer = HeuristicOptimizer(
            clusterer=GridClusterer(),
            verifier=Verifier(f2_clean_table, "group", "A",
                              sample_size=400, repeats=2),
            config=OptimizerConfig(max_support_levels=4,
                                   max_confidence_levels=3),
            on_trial=seen.append,
        )
        result = optimizer.search(f2_binner.bin_array, code)
        assert seen == list(result.history)

    def test_missing_target_rejected(self, f2_binner):
        optimizer = HeuristicOptimizer(
            clusterer=GridClusterer(),
            verifier=None,  # never reached
        )
        bin_array = f2_binner.bin_array
        # Build a lattice query for a code whose counts are all zero by
        # constructing an empty array of the same shape.
        from repro.binning.bin_array import BinArray
        empty = BinArray(
            bin_array.x_layout, bin_array.y_layout,
            bin_array.rhs_encoding,
        )
        with pytest.raises(ValueError, match="does not occur"):
            optimizer.search(empty, 0)


class TestWinnerOnlyRules:
    """Trials are scored on their rectangles: value-space rules are
    built for the winning trial alone, whichever search runs."""

    @pytest.fixture()
    def translated(self, monkeypatch):
        translate = clusterer_module.clustered_rule_from_rect
        rects = []

        def recording(rect, bin_array, rhs_code):
            rects.append(rect)
            return translate(rect, bin_array, rhs_code)

        monkeypatch.setattr(clusterer_module, "clustered_rule_from_rect",
                            recording)
        return rects

    def test_fit(self, translated, f2_table):
        config = ARCSConfig(optimizer=OptimizerConfig(
            max_support_levels=4, max_confidence_levels=4,
        ))
        result = ARCS(config).fit(f2_table, "age", "salary", "group", "A")
        assert len(result.history) > 1
        assert sum(trial.n_clusters for trial in result.history) > len(
            translated
        )
        assert translated == list(result.outcome.pruning.kept)
        assert result.segmentation.rules == result.outcome.rules

    @pytest.mark.parametrize("search", ["annealing", "factorial"])
    def test_alternative_searches(self, translated, search, f2_binner,
                                  f2_clean_table):
        code = f2_binner.rhs_encoding.code_of("A")
        verifier = Verifier(f2_clean_table, "group", "A",
                            sample_size=400, repeats=2)
        if search == "annealing":
            result = AnnealingOptimizer(
                GridClusterer(), verifier,
                config=AnnealingConfig(min_temperature=0.3),
            ).search(f2_binner.bin_array, code)
        else:
            result = factorial_search(f2_binner.bin_array, code,
                                      GridClusterer(), verifier, rounds=2)
        assert len(result.history) > 1
        assert translated == [rule.rect for rule in result.segmentation]
        assert sum(trial.n_clusters for trial in result.history) > len(
            translated
        )
