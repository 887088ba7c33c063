"""ARCS: the end-to-end Association Rule Clustering System (Figure 2).

:class:`ARCS` wires the whole paper together: bin the data once, then run
the feedback loop — mine at the current thresholds, smooth, BitOp-cluster,
prune, verify on samples, score with MDL, adjust the thresholds — until
the heuristic optimizer sees no further improvement or the time budget
runs out.  "Our system is fully automated and does not require any
user-specified thresholds": the caller names the two LHS attributes, the
RHS attribute and the criterion value, and gets a segmentation back.

The fitted :class:`ARCSResult` keeps the binner and BinArray, so
:meth:`ARCSResult.remine` demonstrates the paper's headline systems
property — re-mining at different thresholds without touching the data.
"""

from __future__ import annotations

import logging

from dataclasses import asdict, dataclass, field

from repro.core.segmentation import Segmentation
from repro.binning.binner import Binner, bin_table
from repro.binning.strategies import EQUI_WIDTH, suggest_bin_count
from repro.core.clusterer import (
    ClustererConfig,
    ClusteringOutcome,
    GridClusterer,
)
from repro.core.mdl import MDLWeights
from repro.core.optimizer import (
    HeuristicOptimizer,
    OptimizerConfig,
    OptimizerResult,
    TrialRecord,
    segmentation_from_outcome,
)
from repro.core.verifier import Verifier
from repro.data.schema import Table
from repro.mining.engine import rule_measures
from repro.obs import trace
from repro.obs.report import RunCapture, RunReport

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ARCSConfig:
    """All ARCS knobs, with the paper's defaults.

    Parameters
    ----------
    n_bins_x, n_bins_y:
        Bins per LHS attribute ("currently the number of bins for each
        attribute is preset at 50").
    auto_bins:
        Size the grid to the data instead:
        :func:`~repro.binning.strategies.suggest_bin_count` keeps the
        average occupied cell populated, reproducing the paper's 50
        bins at its sweep sizes and degrading gracefully on small
        tables (overrides ``n_bins_x``/``n_bins_y``).
    binning_strategy:
        ``equi-width`` (paper default), ``equi-depth`` or ``homogeneity``.
    clusterer:
        Smoothing/pruning configuration (paper defaults: smoothing on,
        1% pruning).
    optimizer:
        Threshold-search budget.
    mdl_weights:
        The ``(w_c, w_e)`` bias pair (paper default: 1, 1).
    sample_size, sample_repeats:
        The verifier's repeated k-out-of-n scheme.
    single_target_memory:
        Build the BinArray in the paper's reduced ``n_seg = 1`` mode.
    seed:
        Seed for the verifier's sampling.
    """

    n_bins_x: int = 50
    n_bins_y: int = 50
    auto_bins: bool = False
    binning_strategy: str = EQUI_WIDTH
    clusterer: ClustererConfig = field(default_factory=ClustererConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    mdl_weights: MDLWeights = field(default_factory=MDLWeights)
    sample_size: int = 1000
    sample_repeats: int = 5
    single_target_memory: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_bins_x <= 0 or self.n_bins_y <= 0:
            raise ValueError("bin counts must be positive")


@dataclass
class ARCSResult:
    """A fitted segmentation plus everything needed to inspect or re-mine.

    Attributes
    ----------
    segmentation:
        The clustered association rules for the criterion value.
    best_trial:
        The winning thresholds and their verification/MDL scores.
    history:
        Every trial the optimizer ran, in order.
    binner:
        The fitted binner (layouts, encoding, populated BinArray).
    outcome:
        The winning trial's full clustering pipeline artefacts.
    stopped_by:
        Why the search ended (``"no improvement"``, ``"time budget"`` or
        ``"exhausted"``).
    run_report:
        The :class:`~repro.obs.report.RunReport` of this fit (span tree,
        metrics, config fingerprint) when observability was enabled via
        :func:`repro.obs.enable`; ``None`` otherwise.
    """

    segmentation: Segmentation
    best_trial: TrialRecord
    history: tuple[TrialRecord, ...]
    binner: Binner
    outcome: ClusteringOutcome
    rhs_code: int
    clusterer: GridClusterer
    stopped_by: str
    run_report: RunReport | None = None

    @property
    def rules(self):
        """The clustered rules of the winning segmentation."""
        return self.segmentation.rules

    def remine(self, min_support: float,
               min_confidence: float) -> Segmentation:
        """Recompute the segmentation at explicit thresholds.

        No data pass happens — the BinArray is resident, so this is the
        paper's "nearly instantaneous" threshold change.
        """
        outcome = self.clusterer.cluster(
            rule_measures(self.binner.bin_array, self.rhs_code),
            min_support, min_confidence,
        )
        return segmentation_from_outcome(
            outcome, self.binner.bin_array, self.rhs_code
        )

    def describe(self) -> str:
        """Paper-style report: the rules, then the winning thresholds."""
        lines = [self.segmentation.describe(), "", str(self.best_trial)]
        return "\n".join(lines)


@dataclass
class ARCS:
    """The Association Rule Clustering System.

    Typical use::

        arcs = ARCS()
        result = arcs.fit(table, "age", "salary", "group", "A")
        print(result.segmentation.describe())

    After a call to :meth:`fit` or :meth:`fit_all` with observability
    enabled, :attr:`last_run_report` holds the run's
    :class:`~repro.obs.report.RunReport` (``fit_all`` produces one
    report covering every criterion value).
    """

    config: ARCSConfig = field(default_factory=ARCSConfig)
    last_run_report: RunReport | None = field(
        default=None, compare=False, repr=False
    )

    def fit(self, table: Table, x_attribute: str, y_attribute: str,
            rhs_attribute: str, target_value,
            verification_table: Table | None = None,
            on_trial=None) -> ARCSResult:
        """Run the full ARCS pipeline on ``table``.

        ``verification_table`` optionally supplies held-out data for the
        verifier; by default the verifier samples the training table, as
        the paper does ("a sample of tuples from the source database").
        ``on_trial`` is called with each optimizer
        :class:`~repro.core.optimizer.TrialRecord` as it completes
        (progress reporting).

        When observability is enabled (:func:`repro.obs.enable`) the
        whole fit runs under a run capture and the resulting
        :class:`~repro.obs.report.RunReport` is attached to the returned
        result as ``run_report``.
        """
        config = self.config
        logger.info(
            "ARCS.fit: %d tuples, LHS (%s, %s), criterion %s = %r",
            len(table), x_attribute, y_attribute, rhs_attribute,
            target_value,
        )
        with RunCapture("arcs.fit", config={
            "arcs": asdict(config),
            "x_attribute": x_attribute,
            "y_attribute": y_attribute,
            "rhs_attribute": rhs_attribute,
            "target_value": target_value,
        }) as capture:
            if config.auto_bins:
                bins = suggest_bin_count(len(table))
                n_bins_x = n_bins_y = bins
            else:
                n_bins_x, n_bins_y = config.n_bins_x, config.n_bins_y
            binner = bin_table(
                table, x_attribute, y_attribute, rhs_attribute,
                n_bins_x=n_bins_x,
                n_bins_y=n_bins_y,
                strategy=config.binning_strategy,
                target_value=(
                    target_value if config.single_target_memory else None
                ),
            )
            rhs_code = binner.rhs_encoding.code_of(target_value)
            clusterer = GridClusterer(config.clusterer)
            verifier = Verifier(
                table=verification_table or table,
                rhs_attribute=rhs_attribute,
                target_value=target_value,
                sample_size=config.sample_size,
                repeats=config.sample_repeats,
                seed=config.seed,
            )
            optimizer = HeuristicOptimizer(
                clusterer=clusterer,
                verifier=verifier,
                weights=config.mdl_weights,
                config=config.optimizer,
                on_trial=on_trial,
            )
            search: OptimizerResult = optimizer.search(
                binner.bin_array, rhs_code
            )
        self.last_run_report = capture.report
        return ARCSResult(
            segmentation=search.segmentation,
            best_trial=search.best,
            history=search.history,
            binner=binner,
            outcome=search.outcome,
            rhs_code=rhs_code,
            clusterer=clusterer,
            stopped_by=search.stopped_by,
            run_report=capture.report,
        )

    def fit_all(self, table: Table, x_attribute: str, y_attribute: str,
                rhs_attribute: str,
                verification_table: Table | None = None) -> dict:
        """One segmentation per RHS value, from a single binning pass.

        This is the paper's Section 3.1 memory argument made concrete:
        "by maintaining this data structure in memory we can compute an
        entirely new segmentation for a different value of the
        segmentation criteria without the need to re-bin the original
        data."  The BinArray holds counts for every RHS value, so only
        the optimizer loop runs per value.

        Returns a mapping from RHS value to :class:`ARCSResult`.  RHS
        values that never occur in the data are skipped.  Incompatible
        with ``single_target_memory`` (that mode only keeps one value's
        counts).
        """
        config = self.config
        if config.single_target_memory:
            raise ValueError(
                "fit_all needs the full BinArray; disable "
                "single_target_memory"
            )
        with RunCapture("arcs.fit_all", config={
            "arcs": asdict(config),
            "x_attribute": x_attribute,
            "y_attribute": y_attribute,
            "rhs_attribute": rhs_attribute,
        }) as capture:
            if config.auto_bins:
                bins = suggest_bin_count(len(table))
                n_bins_x = n_bins_y = bins
            else:
                n_bins_x, n_bins_y = config.n_bins_x, config.n_bins_y
            binner = bin_table(
                table, x_attribute, y_attribute, rhs_attribute,
                n_bins_x=n_bins_x,
                n_bins_y=n_bins_y,
                strategy=config.binning_strategy,
            )
            clusterer = GridClusterer(config.clusterer)

            results = {}
            for rhs_value in binner.rhs_encoding.values:
                rhs_code = binner.rhs_encoding.code_of(rhs_value)
                if not binner.bin_array.count_grid(rhs_code).any():
                    logger.debug("skipping %s = %r: no occurrences",
                                 rhs_attribute, rhs_value)
                    continue
                verifier = Verifier(
                    table=verification_table or table,
                    rhs_attribute=rhs_attribute,
                    target_value=rhs_value,
                    sample_size=config.sample_size,
                    repeats=config.sample_repeats,
                    seed=config.seed,
                )
                optimizer = HeuristicOptimizer(
                    clusterer=clusterer,
                    verifier=verifier,
                    weights=config.mdl_weights,
                    config=config.optimizer,
                )
                with trace("fit_value", rhs_value=rhs_value):
                    search = optimizer.search(
                        binner.bin_array, rhs_code
                    )
                results[rhs_value] = ARCSResult(
                    segmentation=search.segmentation,
                    best_trial=search.best,
                    history=search.history,
                    binner=binner,
                    outcome=search.outcome,
                    rhs_code=rhs_code,
                    clusterer=clusterer,
                    stopped_by=search.stopped_by,
                )
        self.last_run_report = capture.report
        return results
