"""Simulated-annealing threshold optimizer (paper Section 5).

"Other search techniques such as simulated annealing can also be used in
the optimization step."  This optimizer walks the same occurring-value
threshold lattice as the heuristic optimizer, but moves by Metropolis
steps: a random neighbour (one step along the support or confidence axis)
is always accepted when it lowers the MDL cost and accepted with
probability ``exp(-delta / temperature)`` when it raises it; the
temperature decays geometrically.  Trials are cached by lattice position,
so revisiting a state costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.binning.bin_array import BinArray
from repro.core.clusterer import GridClusterer
from repro.core.mdl import MDLWeights
from repro.core.optimizer import (
    OptimizerResult,
    ThresholdLattice,
    TrialRecord,
    run_trial,
    segmentation_from_outcome,
)
from repro.core.verifier import Verifier
from repro.mining.engine import rule_measures


@dataclass(frozen=True)
class AnnealingConfig:
    """Annealing schedule and lattice-coarsening knobs."""

    max_support_levels: int = 16
    max_confidence_levels: int = 8
    initial_temperature: float = 2.0
    cooling: float = 0.85
    steps_per_temperature: int = 4
    min_temperature: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_support_levels <= 0 or self.max_confidence_levels <= 0:
            raise ValueError("level counts must be positive")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if self.initial_temperature <= 0 or self.min_temperature <= 0:
            raise ValueError("temperatures must be positive")
        if self.steps_per_temperature <= 0:
            raise ValueError("steps_per_temperature must be positive")


@dataclass
class AnnealingOptimizer:
    """Drop-in alternative to the heuristic optimizer (same result type)."""

    clusterer: GridClusterer
    verifier: Verifier
    weights: MDLWeights = field(default_factory=MDLWeights)
    config: AnnealingConfig = field(default_factory=AnnealingConfig)

    def search(self, bin_array: BinArray, rhs_code: int) -> OptimizerResult:
        lattice = ThresholdLattice(bin_array, rhs_code)
        supports = lattice.coarsen_supports(self.config.max_support_levels)
        if not supports:
            raise ValueError(
                "the target RHS value does not occur in the binned data"
            )
        # A fixed confidence axis per support index keeps the state space
        # a simple grid; confidences are recomputed per support level.
        confidence_axes = []
        for support in supports:
            support_count = max(1, int(round(support * lattice.n_total)))
            axis = lattice.coarsen_confidences(
                support_count, self.config.max_confidence_levels
            )
            confidence_axes.append(axis if axis else [0.0])

        measures = rule_measures(bin_array, rhs_code)
        rng = np.random.default_rng(self.config.seed)
        cache: dict[tuple[int, int], tuple] = {}
        history: list[TrialRecord] = []

        def evaluate(si: int, ci: int):
            ci = min(ci, len(confidence_axes[si]) - 1)
            key = (si, ci)
            if key not in cache:
                cache[key] = run_trial(
                    self.clusterer, self.verifier, self.weights,
                    measures, supports[si], confidence_axes[si][ci],
                )
                history.append(cache[key][0])
            return cache[key]

        # Start where the heuristic search starts: lowest support, and the
        # middle of its confidence axis.
        si, ci = 0, len(confidence_axes[0]) // 2
        current_trial, _ = evaluate(si, ci)
        best_key = (si, min(ci, len(confidence_axes[si]) - 1))
        best_trial = current_trial

        temperature = self.config.initial_temperature
        while temperature > self.config.min_temperature:
            for _ in range(self.config.steps_per_temperature):
                nsi, nci = _neighbour(
                    si, ci, len(supports),
                    len(confidence_axes[si]), rng,
                )
                trial, _ = evaluate(nsi, nci)
                delta = trial.mdl_cost - current_trial.mdl_cost
                metropolis = (
                    delta <= 0
                    or (math.isfinite(delta)
                        and rng.random() < math.exp(-delta / temperature))
                )
                if metropolis:
                    si, ci = nsi, min(nci, len(confidence_axes[nsi]) - 1)
                    current_trial = trial
                    if trial.mdl_cost < best_trial.mdl_cost:
                        best_trial = trial
                        best_key = (si, ci)
            temperature *= self.config.cooling

        _, outcome = cache[best_key]
        return OptimizerResult(
            best=best_trial,
            segmentation=segmentation_from_outcome(
                outcome, bin_array, rhs_code
            ),
            outcome=outcome,
            history=tuple(history),
            stopped_by="annealing schedule",
        )


def _neighbour(si: int, ci: int, n_supports: int, n_confidences: int,
               rng: np.random.Generator) -> tuple[int, int]:
    """One random lattice step, clamped to the grid."""
    if rng.random() < 0.5:
        si = int(np.clip(si + (1 if rng.random() < 0.5 else -1),
                         0, n_supports - 1))
    else:
        ci = int(np.clip(ci + (1 if rng.random() < 0.5 else -1),
                         0, n_confidences - 1))
    return si, ci
