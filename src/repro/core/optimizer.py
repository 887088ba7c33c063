"""Threshold search: the lattice of Figure 10 and the heuristic optimizer.

Finding the support/confidence pair that yields the best segmentation is a
combinatorial optimisation the paper attacks heuristically (Section 3.7):

* Only threshold values that *actually occur* in the binned data matter —
  any other value is equivalent to the next occurring one.  The
  :class:`ThresholdLattice` enumerates the distinct per-cell support counts
  (one pass) and, per support level, the distinct confidences of the cells
  still alive at that support (second pass) — the paper's Figure 10
  structure.
* The search starts from a *low* support threshold and walks upward
  ("most 'optimal' segmentations were derived from grids with lower
  support thresholds"), letting dynamic pruning discard the noise a
  permissive threshold admits; support rises to shave background noise and
  outliers "until there is no improvement of the clustered association
  rules (within some epsilon)" or the time budget expires.

Each candidate pair runs the full downstream pipeline (cluster → verify →
MDL, :func:`run_trial`) and the pair with the lowest MDL cost wins.
Because the engine re-mines from rule measures divided once per search
(:func:`~repro.mining.engine.rule_measures`) and the verifier scores the
kept rectangles on its samples' grid cells, each trial costs grid-sized
work, not data passes; only the winner's rectangles are translated into
value-space rules.  Where the process can use one, a persistent forked
helper runs half of each support level's trials
(:mod:`repro.core.search_helper`); the level is consumed in lattice
order, so every result is the serial loop's.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field
from dataclasses import replace as _replace

import numpy as np

from repro.core.segmentation import Segmentation
from repro.binning.bin_array import BinArray
from repro.core import search_helper
from repro.core.clusterer import ClusteringOutcome, GridClusterer
from repro.core.mdl import MDLWeights
from repro.core.verifier import SampleCells, VerificationReport, Verifier
from repro.mining.engine import RuleMeasures, rule_measures
from repro.obs import metrics, trace
from repro.obs.tracing import current_span
from repro.obs.report import RunCapture, RunReport

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ThresholdLattice:
    """The support/confidence values that occur in a BinArray (Fig 10).

    ``support_counts`` are the distinct nonzero per-cell counts for the
    target RHS value, ascending; :meth:`confidences_at` gives the distinct
    confidences among cells whose count reaches a given support level.
    """

    bin_array: BinArray
    rhs_code: int
    support_counts: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        counts = self.bin_array.unique_support_counts(self.rhs_code)
        object.__setattr__(
            self, "support_counts", tuple(int(c) for c in counts)
        )

    @property
    def n_total(self) -> int:
        return self.bin_array.n_total

    def support_fractions(self) -> list[float]:
        """The occurring support thresholds as fractions of N."""
        if self.n_total == 0:
            return []
        return [count / self.n_total for count in self.support_counts]

    def confidences_at(self, support_count: int) -> list[float]:
        """Distinct confidences among cells with count >= the level."""
        values = self.bin_array.unique_confidences(
            self.rhs_code, min_count=support_count
        )
        return [float(v) for v in values]

    def coarsen_supports(self, max_levels: int) -> list[float]:
        """At most ``max_levels`` support fractions, evenly spread over the
        occurring values (always including the lowest, where the search
        starts, and the highest)."""
        fractions = self.support_fractions()
        return _spread(fractions, max_levels)

    def coarsen_confidences(self, support_count: int,
                            max_levels: int) -> list[float]:
        """At most ``max_levels`` confidence values at a support level."""
        return _spread(self.confidences_at(support_count), max_levels)


def _spread(values: list[float], max_levels: int) -> list[float]:
    if max_levels <= 0:
        raise ValueError("max_levels must be positive")
    if len(values) <= max_levels:
        return list(values)
    indices = np.unique(
        np.linspace(0, len(values) - 1, max_levels).round().astype(int)
    )
    return [values[i] for i in indices]


@dataclass(frozen=True)
class TrialRecord:
    """One optimizer trial: the thresholds and everything they produced."""

    min_support: float
    min_confidence: float
    n_clusters: int
    report: VerificationReport
    mdl_cost: float

    def __str__(self) -> str:
        return (
            f"support>={self.min_support:.5f} "
            f"confidence>={self.min_confidence:.3f}: "
            f"{self.n_clusters} clusters, "
            f"error={self.report.error_rate:.4f}, "
            f"mdl={self.mdl_cost:.3f}"
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Search-budget knobs for the heuristic optimizer.

    Parameters
    ----------
    max_support_levels:
        How many occurring support values to visit (spread over the full
        occurring range, lowest first — the paper's search direction).
    max_confidence_levels:
        How many occurring confidence values to try per support level.
    patience:
        Stop after this many consecutive support levels without an MDL
        improvement beyond ``epsilon`` (the paper's "no significant
        improvement" criterion).
    epsilon:
        Minimum MDL improvement that counts as progress.
    time_budget_seconds:
        Wall-clock budget; ``None`` disables the clock (the paper's
        verifier also stops when "the budgeted time has expired").
    """

    max_support_levels: int = 16
    max_confidence_levels: int = 8
    patience: int = 3
    epsilon: float = 1e-9
    time_budget_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_support_levels <= 0 or self.max_confidence_levels <= 0:
            raise ValueError("level counts must be positive")
        if self.patience <= 0:
            raise ValueError("patience must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


@dataclass(frozen=True)
class OptimizerResult:
    """The winning trial, its artefacts, and the full search history."""

    best: TrialRecord
    segmentation: Segmentation
    outcome: ClusteringOutcome
    history: tuple[TrialRecord, ...]
    stopped_by: str
    run_report: RunReport | None = None

    @property
    def n_trials(self) -> int:
        return len(self.history)

    @property
    def trials_after_best(self) -> int:
        """Trials the search ran after its winning trial: the search
        that a stop at the winner would have saved."""
        position = next(
            index for index, trial in enumerate(self.history)
            if trial is self.best
        )
        return len(self.history) - 1 - position


@dataclass
class HeuristicOptimizer:
    """The feedback loop of paper Figure 2, minimising MDL cost.

    ``on_trial``, when set, is called with each :class:`TrialRecord` as
    it completes — the hook the CLI's verbose mode and progress
    reporting use.
    """

    clusterer: GridClusterer
    verifier: Verifier
    weights: MDLWeights = field(default_factory=MDLWeights)
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    on_trial: object = None

    def search(self, bin_array: BinArray,
               rhs_code: int) -> OptimizerResult:
        """Walk the threshold lattice from low support upward.

        Returns the lowest-MDL segmentation found.  Raises ``ValueError``
        when the target value never occurs (there is nothing to segment).

        When observability is enabled the search runs under a
        :class:`~repro.obs.report.RunCapture`: standalone searches get
        their own :class:`~repro.obs.report.RunReport` on
        ``result.run_report``, while a search inside ``ARCS.fit``
        contributes a child span to the enclosing run's report instead.
        """
        with RunCapture("optimizer.search", config={
            "optimizer": asdict(self.config),
            "mdl_weights": asdict(self.weights),
        }) as capture:
            result = self._search(bin_array, rhs_code)
            capture.span.set("trials_after_best", result.trials_after_best)
        if capture.report is not None:
            result = _replace(result, run_report=capture.report)
        return result

    def _search(self, bin_array: BinArray,
                rhs_code: int) -> OptimizerResult:
        lattice = ThresholdLattice(bin_array, rhs_code)
        supports = lattice.coarsen_supports(self.config.max_support_levels)
        if not supports:
            raise ValueError(
                "the target RHS value does not occur in the binned data"
            )
        deadline = (
            None if self.config.time_budget_seconds is None
            else time.monotonic() + self.config.time_budget_seconds
        )
        measures = rule_measures(bin_array, rhs_code)
        helper = None if deadline is not None else search_helper.acquire(
            bin_array.n_x * bin_array.n_y
        )
        if helper is None:
            return self._walk(supports, lattice, measures, deadline, None)
        try:
            helper.begin(measures, self.clusterer, self.weights,
                         self.verifier.sample_cells(bin_array.x_layout,
                                                    bin_array.y_layout))
            result = self._walk(supports, lattice, measures, deadline,
                                helper)
            span = current_span()
            if span is not None:
                span.set("helper_trials", helper.remote_trials)
            return result
        finally:
            helper.release()

    def _walk(self, supports: list[float], lattice: ThresholdLattice,
              measures: RuleMeasures, deadline: float | None,
              helper) -> OptimizerResult:
        """The search loop.  With a ``helper`` each level's trials run
        in two processes, and the level is consumed in lattice order
        once both halves are in (:mod:`repro.core.search_helper`)."""
        history: list[TrialRecord] = []
        best: TrialRecord | None = None
        best_outcome: (ClusteringOutcome | search_helper.RemoteOutcome
                       | None) = None
        stale_levels = 0
        stopped_by = "exhausted"

        for support in supports:
            if deadline is not None and time.monotonic() >= deadline:
                stopped_by = "time budget"
                break
            support_count = max(1, int(round(support * lattice.n_total)))
            confidences = lattice.coarsen_confidences(
                support_count, self.config.max_confidence_levels
            )

            def run_local(confidence: float):
                return timed_trial(self.clusterer, self.verifier,
                                   self.weights, measures, support,
                                   confidence)

            level = (map(run_local, confidences) if helper is None
                     else helper.level(support, confidences, run_local))
            level_improved = False
            for trial, outcome in level:
                logger.debug("trial %s", trial)
                history.append(trial)
                if self.on_trial is not None:
                    self.on_trial(trial)
                improved = best is None or (
                    trial.mdl_cost < best.mdl_cost - self.config.epsilon
                )
                if improved:
                    best = trial
                    best_outcome = outcome
                    level_improved = True
            if level_improved:
                stale_levels = 0
            else:
                stale_levels += 1
                if stale_levels >= self.config.patience:
                    stopped_by = "no improvement"
                    break

        if best is None or best_outcome is None:
            raise ValueError("optimizer made no trials")
        if isinstance(best_outcome, search_helper.RemoteOutcome):
            best_outcome = self._remote_outcome(helper, best_outcome, best,
                                                measures)
        bin_array, rhs_code = measures.bin_array, measures.rhs_code
        result = OptimizerResult(
            best=best,
            segmentation=segmentation_from_outcome(
                best_outcome, bin_array, rhs_code
            ),
            outcome=best_outcome,
            history=tuple(history),
            stopped_by=stopped_by,
        )
        metrics.inc("optimizer.trials_after_best", result.trials_after_best)
        logger.info(
            "threshold search stopped by %s after %d trials (%d after "
            "the best); best %s", stopped_by, len(history),
            result.trials_after_best, best,
        )
        return result

    def _remote_outcome(self, helper, remote: search_helper.RemoteOutcome,
                        best: TrialRecord,
                        measures: RuleMeasures) -> ClusteringOutcome:
        """The winning helper trial's clustering outcome: fetched from
        the helper, or clustered again here when the helper is gone."""
        parts = helper.outcome(remote)
        if parts is None:
            return self.clusterer.cluster(measures, best.min_support,
                                          best.min_confidence)
        raw_grid, smoothed_grid, clusters, pruning = parts
        return ClusteringOutcome(
            raw_grid=raw_grid,
            smoothed_grid=smoothed_grid,
            clusters=clusters,
            pruning=pruning,
            bin_array=measures.bin_array,
            rhs_code=measures.rhs_code,
        )


def timed_trial(
    clusterer: GridClusterer, verifier: Verifier | SampleCells,
    weights: MDLWeights, measures: RuleMeasures, min_support: float,
    min_confidence: float,
) -> tuple[TrialRecord, ClusteringOutcome]:
    """:func:`run_trial` counted in ``optimizer.trials`` and
    ``optimizer.trial_seconds`` under an ``optimizer.trial`` span: one
    trial of a search, in the fit process or in the search helper."""
    metrics.inc("optimizer.trials")
    trial_start = time.perf_counter()
    with trace("optimizer.trial", min_support=min_support,
               min_confidence=min_confidence) as span:
        trial, outcome = run_trial(
            clusterer, verifier, weights, measures, min_support,
            min_confidence,
        )
        span.set("n_clusters", trial.n_clusters)
        span.set("mdl_cost", trial.mdl_cost)
    metrics.observe("optimizer.trial_seconds",
                    time.perf_counter() - trial_start)
    return trial, outcome


def run_trial(
    clusterer: GridClusterer, verifier: Verifier | SampleCells,
    weights: MDLWeights, measures: RuleMeasures, min_support: float,
    min_confidence: float,
) -> tuple[TrialRecord, ClusteringOutcome]:
    """One threshold pair through cluster → verify → MDL.

    ``measures`` are the search's rule measures, built once for all its
    trials.  The kept rectangles are verified on the grid
    (:meth:`Verifier.verify_rects`, or the same method of the
    verifier's :class:`~repro.core.verifier.SampleCells` for the
    measures' layouts); no value-space rule is built, so a search pays
    for rules only when it reads the winner's.
    """
    outcome = clusterer.cluster(measures, min_support, min_confidence)
    kept = outcome.pruning.kept
    bin_array = measures.bin_array
    report = verifier.verify_rects(
        bin_array.x_layout, bin_array.y_layout, kept
    )
    trial = TrialRecord(
        min_support=min_support,
        min_confidence=min_confidence,
        n_clusters=len(kept),
        report=report,
        mdl_cost=weights.cost(len(kept), report.mean_errors),
    )
    return trial, outcome


def segmentation_from_outcome(outcome: ClusteringOutcome,
                              bin_array: BinArray,
                              rhs_code: int) -> Segmentation:
    """Wrap a clustering outcome's rules as a :class:`Segmentation`,
    handling the empty case explicitly."""
    return Segmentation(
        rules=outcome.rules,
        x_attribute=bin_array.x_layout.attribute,
        y_attribute=bin_array.y_layout.attribute,
        rhs_attribute=bin_array.rhs_encoding.attribute,
        rhs_value=bin_array.rhs_encoding.values[rhs_code],
    )
