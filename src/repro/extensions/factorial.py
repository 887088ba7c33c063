"""Factorial-design threshold search (paper Section 5).

"The technique of factorial design by Fisher can greatly reduce the number
of experiments necessary when searching for 'optimal' solutions."  Here a
classic two-level full factorial (Box, Hunter & Hunter) runs over the two
ARCS factors — minimum support and minimum confidence — each at a low and
a high level:

* the four corner runs are evaluated (cluster → verify → MDL);
* the *main effect* of each factor is the average cost change from its
  low to its high level, and the *interaction effect* the usual
  half-difference of differences;
* the search range then shrinks toward the better level of each factor
  and the design repeats, for a fixed number of rounds.

Compared with the heuristic optimizer's lattice walk, each round costs
exactly four runs, and the effect estimates tell the user *which* factor
is driving segmentation quality — the experiment-economy argument the
paper cites Fisher for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binning.bin_array import BinArray
from repro.core.clusterer import GridClusterer
from repro.core.mdl import MDLWeights
from repro.core.optimizer import (
    ThresholdLattice,
    TrialRecord,
    run_trial,
    segmentation_from_outcome,
)
from repro.core.verifier import Verifier
from repro.mining.engine import rule_measures


@dataclass(frozen=True)
class RoundEffects:
    """Effect estimates of one factorial round (costs, in MDL bits)."""

    support_levels: tuple[float, float]
    confidence_levels: tuple[float, float]
    support_effect: float
    confidence_effect: float
    interaction_effect: float
    corner_costs: tuple[float, float, float, float]


@dataclass(frozen=True)
class FactorialReport:
    """The best trial found, its artefacts, and per-round effects."""

    best: TrialRecord
    segmentation: object
    rounds: tuple[RoundEffects, ...]
    history: tuple[TrialRecord, ...]


def factorial_search(bin_array: BinArray, rhs_code: int,
                     clusterer: GridClusterer, verifier: Verifier,
                     weights: MDLWeights | None = None,
                     rounds: int = 3,
                     shrink: float = 0.5) -> FactorialReport:
    """Run a shrinking two-level factorial over (support, confidence).

    Parameters
    ----------
    rounds:
        Number of shrink-and-repeat iterations (4 runs each, shared
        corners cached across rounds).
    shrink:
        Range contraction per round toward the better level of each
        factor (0.5 halves the range each round).
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    if not 0.0 < shrink < 1.0:
        raise ValueError("shrink must be in (0, 1)")
    weights = weights or MDLWeights()
    lattice = ThresholdLattice(bin_array, rhs_code)
    fractions = lattice.support_fractions()
    if not fractions:
        raise ValueError(
            "the target RHS value does not occur in the binned data"
        )
    support_lo, support_hi = fractions[0], fractions[-1]
    all_confidences = lattice.confidences_at(1)
    confidence_lo = all_confidences[0] if all_confidences else 0.0
    confidence_hi = all_confidences[-1] if all_confidences else 1.0

    measures = rule_measures(bin_array, rhs_code)
    cache: dict[tuple[float, float], tuple] = {}
    history: list[TrialRecord] = []

    def run(support: float, confidence: float):
        key = (round(support, 12), round(confidence, 12))
        if key not in cache:
            cache[key] = run_trial(clusterer, verifier, weights, measures,
                                   support, confidence)
            history.append(cache[key][0])
        return cache[key]

    round_effects: list[RoundEffects] = []
    best_trial = None
    best_outcome = None
    for _ in range(rounds):
        corners = [
            run(support_lo, confidence_lo),
            run(support_hi, confidence_lo),
            run(support_lo, confidence_hi),
            run(support_hi, confidence_hi),
        ]
        # Empty segmentations cost infinity; cap them for the effect
        # contrasts so one bad corner still yields finite, directional
        # effect estimates.
        finite = [
            trial.mdl_cost for trial, _ in corners
            if trial.mdl_cost != float("inf")
        ]
        cap = (max(finite) if finite else 0.0) + 10.0
        costs = [min(trial.mdl_cost, cap) for trial, _ in corners]
        # Standard 2^2 effect contrasts on the (-, +) coding.
        support_effect = ((costs[1] + costs[3]) - (costs[0] + costs[2])) / 2
        confidence_effect = (
            (costs[2] + costs[3]) - (costs[0] + costs[1])
        ) / 2
        interaction = ((costs[0] + costs[3]) - (costs[1] + costs[2])) / 2
        round_effects.append(
            RoundEffects(
                support_levels=(support_lo, support_hi),
                confidence_levels=(confidence_lo, confidence_hi),
                support_effect=support_effect,
                confidence_effect=confidence_effect,
                interaction_effect=interaction,
                corner_costs=tuple(costs),
            )
        )
        for trial, outcome in corners:
            if best_trial is None or trial.mdl_cost < best_trial.mdl_cost:
                best_trial, best_outcome = trial, outcome

        # Shrink toward the better level of each factor.
        support_span = (support_hi - support_lo) * shrink
        if support_effect > 0:  # high support hurts -> move range down
            support_hi = support_lo + support_span
        else:
            support_lo = support_hi - support_span
        confidence_span = (confidence_hi - confidence_lo) * shrink
        if confidence_effect > 0:
            confidence_hi = confidence_lo + confidence_span
        else:
            confidence_lo = confidence_hi - confidence_span

    if best_trial is None:
        raise ValueError("factorial search made no trials")
    return FactorialReport(
        best=best_trial,
        segmentation=segmentation_from_outcome(
            best_outcome, bin_array, rhs_code
        ),
        rounds=tuple(round_effects),
        history=tuple(history),
    )
