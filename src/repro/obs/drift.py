"""Model drift scoring: distribution divergences and traffic windows.

ARCS's whole model is a binned occupancy grid: training streamed every
tuple into a :class:`~repro.binning.bin_array.BinArray`, and the mined
rectangles only claim validity where that grid had mass.  *Model*
observability therefore reduces to one question — does serving traffic
still land where training data landed? — which this module answers with
two standard divergences over binned count distributions:

* **PSI** (:func:`psi`, the Population Stability Index) — the classic
  model-monitoring score ``sum((q - p) * ln(q / p))``.  Unbounded;
  folklore thresholds are 0.1 ("drifting") and 0.2 ("act").  Zero-count
  bins are clipped to :data:`PSI_EPSILON` (no renormalisation — the
  conventional treatment) so the score stays finite.
* **Jensen-Shannon divergence** (:func:`js_divergence`) — the
  symmetrised, smoothed KL divergence, in bits (log base 2), bounded to
  ``[0, 1]`` which makes it the better dashboard gauge.

Both are deterministic pure-numpy reductions; their per-bin scalar
twins live in :mod:`repro.perf.reference` (``psi_scalar``,
``js_divergence_scalar``) and the two are held **bit-identical** by
``tests/test_perf_equivalence.py``.  To keep that guarantee the final
reduction on both sides is ``np.sum`` over the per-bin term array —
summation order is part of the contract.

:class:`TrafficWindow` is the matching accumulator: per-bin marginal
and joint hit counts, per-rule (segment) hit counts, and out-of-range
tallies for one tumbling window of scored requests.  It is a plain
single-threaded value object — the thread-safe ring of windows lives in
:mod:`repro.serve.monitor`, which owns the locking.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_PSI_ALERT",
    "PSI_EPSILON",
    "TrafficWindow",
    "js_divergence",
    "psi",
]

#: Probability floor substituted for empty bins in :func:`psi` (the
#: conventional clip; without it one empty bin makes PSI infinite).
PSI_EPSILON = 1e-6

#: Default PSI alerting threshold: the folklore "distribution shift is
#: significant, investigate" level.
DEFAULT_PSI_ALERT = 0.2


def _distribution(counts, side: str) -> np.ndarray:
    """Flatten and normalise a count array into probabilities."""
    values = np.asarray(counts, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError(f"{side} distribution has no bins")
    if np.any(values < 0):
        raise ValueError(f"{side} distribution has negative counts")
    total = float(np.sum(values))
    if total <= 0.0:
        raise ValueError(
            f"{side} distribution is empty (all counts zero)"
        )
    return values / total


def psi(expected, observed) -> float:
    """Population Stability Index between two binned count arrays.

    ``expected`` is the reference (training occupancy), ``observed`` the
    live traffic; both are count arrays over the *same* bin grid (any
    shape — grids are flattened).  Empty bins are clipped to
    :data:`PSI_EPSILON` on both sides.  Raises :class:`ValueError` when
    either side is all-zero or the shapes disagree.
    """
    p = _distribution(expected, "expected")
    q = _distribution(observed, "observed")
    if p.size != q.size:
        raise ValueError(
            f"distributions have different bin counts: {p.size} vs "
            f"{q.size}"
        )
    p = np.maximum(p, PSI_EPSILON)
    q = np.maximum(q, PSI_EPSILON)
    terms = (q - p) * np.log(q / p)
    return float(np.sum(terms))


def js_divergence(expected, observed) -> float:
    """Jensen-Shannon divergence in bits, bounded to ``[0, 1]``.

    ``JS(p, q) = (KL(p||m) + KL(q||m)) / 2`` with ``m = (p + q) / 2``;
    zero-probability bins contribute zero (the ``0 * log 0`` limit), so
    no epsilon is needed.  Same shape/emptiness contract as :func:`psi`.
    """
    p = _distribution(expected, "expected")
    q = _distribution(observed, "observed")
    if p.size != q.size:
        raise ValueError(
            f"distributions have different bin counts: {p.size} vs "
            f"{q.size}"
        )
    midpoint = 0.5 * (p + q)

    def _kl_terms(side: np.ndarray) -> np.ndarray:
        terms = np.zeros_like(side)
        mask = side > 0.0
        terms[mask] = side[mask] * np.log(side[mask] / midpoint[mask])
        return terms

    nats = 0.5 * float(np.sum(_kl_terms(p))) \
        + 0.5 * float(np.sum(_kl_terms(q)))
    return nats / float(np.log(2.0))


class TrafficWindow:
    """Binned traffic occupancy accumulated over one tumbling window.

    Tracks, for one model: joint and marginal hit counts over the
    model's training grid (when a grid is known), per-rule hit counts
    (slot 0 is the no-rule fallback, slot ``r + 1`` is rule ``r``),
    out-of-range tallies per axis, and request/point totals.  Instances
    are *not* thread-safe — :class:`repro.serve.monitor.TrafficMonitor`
    serialises access.
    """

    __slots__ = (
        "n_x", "n_y", "n_rules", "opened", "points", "requests",
        "x_counts", "y_counts", "totals", "rule_hits",
        "out_of_range_x", "out_of_range_y",
    )

    def __init__(self, n_x: int, n_y: int, n_rules: int,
                 opened: float = 0.0):
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        self.n_rules = int(n_rules)
        self.opened = float(opened)
        self.points = 0
        self.requests = 0
        self.out_of_range_x = 0
        self.out_of_range_y = 0
        self.rule_hits = np.zeros(self.n_rules + 1, dtype=np.int64)
        if self.n_x and self.n_y:
            self.x_counts = np.zeros(self.n_x, dtype=np.int64)
            self.y_counts = np.zeros(self.n_y, dtype=np.int64)
            self.totals = np.zeros((self.n_x, self.n_y), dtype=np.int64)
        else:  # no grid known (artefact saved without a reference)
            self.x_counts = None
            self.y_counts = None
            self.totals = None

    @property
    def has_grid(self) -> bool:
        return self.totals is not None

    def add(self, x_bins: np.ndarray | None, y_bins: np.ndarray | None,
            rule_indices: np.ndarray, out_of_range_x: int = 0,
            out_of_range_y: int = 0) -> None:
        """Accumulate one scored request (a batch of points)."""
        rules = np.asarray(rule_indices, dtype=np.int64)
        self.requests += 1
        self.points += int(rules.size)
        if rules.size:
            self.rule_hits += np.bincount(
                np.clip(rules, -1, self.n_rules - 1) + 1,
                minlength=self.n_rules + 1,
            )
        if not self.has_grid or x_bins is None or y_bins is None:
            return
        x_bins = np.asarray(x_bins, dtype=np.int64)
        y_bins = np.asarray(y_bins, dtype=np.int64)
        self.x_counts += np.bincount(x_bins, minlength=self.n_x)
        self.y_counts += np.bincount(y_bins, minlength=self.n_y)
        self.totals += np.bincount(
            x_bins * self.n_y + y_bins, minlength=self.n_x * self.n_y
        ).reshape(self.n_x, self.n_y)
        self.out_of_range_x += int(out_of_range_x)
        self.out_of_range_y += int(out_of_range_y)

    def add_point(self, x_bin: int | None, y_bin: int | None,
                  rule_index: int, out_of_range_x: int = 0,
                  out_of_range_y: int = 0) -> None:
        """:meth:`add` for a one-point request, by scalar indexing."""
        self.requests += 1
        self.points += 1
        self.rule_hits[min(max(rule_index, -1), self.n_rules - 1) + 1] += 1
        if not self.has_grid or x_bin is None or y_bin is None:
            return
        self.x_counts[x_bin] += 1
        self.y_counts[y_bin] += 1
        self.totals[x_bin, y_bin] += 1
        self.out_of_range_x += out_of_range_x
        self.out_of_range_y += out_of_range_y

    @property
    def fallback_points(self) -> int:
        """Points that fell outside every rectangle (no-rule fallback)."""
        return int(self.rule_hits[0])

    @property
    def coverage_fraction(self) -> float | None:
        """In-segment fraction of the window, ``None`` when empty."""
        if self.points == 0:
            return None
        return 1.0 - self.fallback_points / self.points

    def copy(self) -> "TrafficWindow":
        """An independent deep copy (snapshot for lock-free readers)."""
        clone = TrafficWindow(self.n_x, self.n_y, self.n_rules,
                              opened=self.opened)
        clone.points = self.points
        clone.requests = self.requests
        clone.out_of_range_x = self.out_of_range_x
        clone.out_of_range_y = self.out_of_range_y
        clone.rule_hits = self.rule_hits.copy()
        if self.has_grid:
            clone.x_counts = self.x_counts.copy()
            clone.y_counts = self.y_counts.copy()
            clone.totals = self.totals.copy()
        return clone

    @classmethod
    def merged(cls, windows: list["TrafficWindow"]) -> "TrafficWindow":
        """Sum a list of compatible windows into one aggregate."""
        if not windows:
            raise ValueError("cannot merge zero windows")
        first = windows[0]
        out = first.copy()
        for window in windows[1:]:
            if (window.n_x, window.n_y, window.n_rules) != (
                    first.n_x, first.n_y, first.n_rules):
                raise ValueError(
                    "cannot merge windows over different grids"
                )
            out.points += window.points
            out.requests += window.requests
            out.out_of_range_x += window.out_of_range_x
            out.out_of_range_y += window.out_of_range_y
            out.rule_hits += window.rule_hits
            if out.has_grid and window.has_grid:
                out.x_counts += window.x_counts
                out.y_counts += window.y_counts
                out.totals += window.totals
            out.opened = min(out.opened, window.opened)
        return out
