"""The paper's primary contribution: ARCS and the BitOp algorithm.

Modules, in pipeline order (paper Figure 2):

* :mod:`repro.core.rules` — intervals, binned rules, grid rectangles and
  clustered association rules.
* :mod:`repro.core.grid` — the bitmap grid of qualifying rule cells.
* :mod:`repro.core.smoothing` — the low-pass filter preprocessing step.
* :mod:`repro.core.bitop` — the BitOp rectangle enumerator and the greedy
  cover built on it, plus naive cover baselines for ablations.
* :mod:`repro.core.pruning` — dynamic pruning of too-small clusters.
* :mod:`repro.core.clusterer` — the smoothing → BitOp → pruning pipeline.
* :mod:`repro.core.verifier` — sampled false-positive/false-negative error.
* :mod:`repro.core.mdl` — the MDL cost of a segmentation.
* :mod:`repro.core.optimizer` — the threshold lattice and the heuristic
  feedback-loop optimizer.
* :mod:`repro.core.arcs` — the end-to-end ARCS system.
"""

from repro.core.arcs import ARCS, ARCSConfig, ARCSResult
from repro.core.bitop import BitOpClusterer
from repro.core.clusterer import ClustererConfig, GridClusterer
from repro.core.grid import RuleGrid
from repro.core.mdl import mdl_cost
from repro.core.optimizer import HeuristicOptimizer, OptimizerConfig, ThresholdLattice
from repro.core.rules import BinnedRule, ClusteredRule, GridRect, Interval
from repro.core.smoothing import smooth_binary, smooth_support
from repro.core.verifier import VerificationReport, Verifier

__all__ = [
    "ARCS",
    "ARCSConfig",
    "ARCSResult",
    "BitOpClusterer",
    "ClustererConfig",
    "GridClusterer",
    "RuleGrid",
    "mdl_cost",
    "HeuristicOptimizer",
    "OptimizerConfig",
    "ThresholdLattice",
    "BinnedRule",
    "ClusteredRule",
    "GridRect",
    "Interval",
    "smooth_binary",
    "smooth_support",
    "Verifier",
    "VerificationReport",
]
