"""Bin layout strategies for quantitative attributes (paper Section 2.1).

The paper partitions each quantitative LHS attribute into *equi-width* bins
(equal interval size) and notes that equi-depth bins (equal tuple count,
as in Srikant & Agrawal) and homogeneity-based bins (each bin internally
uniform, as in Whang et al.) would slot in unchanged.  All three are
implemented here behind a single :class:`BinLayout` abstraction so the rest
of the system is strategy-agnostic.

A :class:`BinLayout` is a monotone sequence of ``n_bins + 1`` edges over the
attribute's range.  Bin ``i`` covers the half-open interval
``[edges[i], edges[i+1])`` except the last bin, which is closed above so the
range maximum lands in a bin.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

EQUI_WIDTH = "equi-width"
EQUI_DEPTH = "equi-depth"
HOMOGENEITY = "homogeneity"

STRATEGIES = (EQUI_WIDTH, EQUI_DEPTH, HOMOGENEITY)


@dataclass(frozen=True)
class BinLayout:
    """A fixed partition of a quantitative attribute into bins.

    Attributes
    ----------
    attribute:
        Name of the attribute the layout partitions.
    edges:
        Strictly increasing array of ``n_bins + 1`` bin boundaries.
    """

    attribute: str
    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise ValueError("a layout needs at least two edges")
        if not np.all(np.diff(edges) > 0):
            raise ValueError(
                f"edges for {self.attribute!r} must be strictly increasing"
            )
        object.__setattr__(self, "edges", edges)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    @property
    def low(self) -> float:
        return float(self.edges[0])

    @property
    def high(self) -> float:
        return float(self.edges[-1])

    def assign(self, values: np.ndarray) -> np.ndarray:
        """Map values to bin indices in ``[0, n_bins)``.

        Values outside the layout's range are clamped into the first or
        last bin — the generator clips perturbed values, so out-of-range
        inputs only occur when callers bin foreign data, and clamping is
        the least surprising behaviour there.  NaNs are rejected: a NaN
        would otherwise land silently in the last bin and corrupt its
        counts.

        One path for every strategy: each value's bin is guessed by a
        table lookup over ``8 * n_bins`` uniform cells of the range
        (:meth:`_guess_table`), and a guess is kept only if it passes
        the bracket check against the real edges.  The rest are
        recomputed as ``searchsorted(edges, v, "right") - 1``, clipped.
        Every index is thus checked or computed by the exact formula, so
        the result equals
        :func:`repro.perf.reference.assign_bins_scalar`.
        """
        values = np.asarray(values, dtype=np.float64)
        if np.isnan(values).any():
            raise ValueError(
                f"column {self.attribute!r} contains NaN; clean the "
                "data before binning"
            )
        scale, guesses, lower, upper = self._guess_table()
        if scale:
            # Clamping to the range first keeps (v - low) * scale finite.
            cells = np.maximum(values, self.low)
            np.minimum(cells, self.high, out=cells)
            cells -= self.low
            cells *= scale
            np.minimum(cells, len(guesses) - 1, out=cells)
            indices = guesses[cells.astype(np.intp)]
        else:
            indices = np.zeros(len(values), dtype=np.intp)
        rejected = ~((lower[indices] <= values) & (values < upper[indices]))
        if rejected.any():
            rows = np.flatnonzero(rejected)
            exact = np.searchsorted(self.edges, values[rows], side="right")
            indices[rows] = np.clip(exact - 1, 0, self.n_bins - 1)
        return indices

    def _guess_table(self) -> tuple:
        """``(scale, guesses, lower, upper)``, built once per layout.

        ``guesses[c]`` is the bin holding the left end of uniform cell
        ``c``; value ``v`` falls in cell ``(v - low) * scale``.  A zero
        scale means the range cannot be divided, and every guess is 0.
        ``lower``/``upper`` are each bin's bracket, with bin 0 open
        below and the last bin open above, matching the clamp.
        """
        cached = self.__dict__.get("_guess_cache")
        if cached is None:
            n_cells = 8 * self.n_bins
            width = self.high - self.low
            scale = n_cells / width
            if np.isfinite(width) and np.isfinite(scale):
                starts = self.low + np.arange(n_cells) * (width / n_cells)
                guesses = np.clip(
                    np.searchsorted(self.edges, starts, side="right") - 1,
                    0, self.n_bins - 1,
                )
            else:
                # A range too wide or too narrow to divide: every guess
                # is bin 0 and the bracket check sends the rest to
                # searchsorted.
                scale, guesses = 0.0, None
            lower = self.edges[:-1].copy()
            lower[0] = -np.inf
            upper = self.edges[1:].copy()
            upper[-1] = np.inf
            cached = (scale, guesses, lower, upper)
            object.__setattr__(self, "_guess_cache", cached)
        return cached

    def bin_interval(self, index: int) -> tuple[float, float]:
        """Return the ``(low, high)`` bounds of bin ``index``."""
        if not 0 <= index < self.n_bins:
            raise IndexError(
                f"bin {index} out of range for {self.n_bins} bins"
            )
        return float(self.edges[index]), float(self.edges[index + 1])

    def span_interval(self, first: int, last: int) -> tuple[float, float]:
        """Return the bounds of the contiguous bin range ``first..last``
        (inclusive), used when a cluster of bins is translated back to a
        value-space interval for a clustered rule."""
        low, _ = self.bin_interval(first)
        if last < first:
            raise ValueError(f"empty bin span {first}..{last}")
        _, high = self.bin_interval(last)
        return low, high


def equi_width_layout(attribute: str, low: float, high: float,
                      n_bins: int) -> BinLayout:
    """Equal-interval bins over ``[low, high]`` (the paper's default)."""
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    if not low < high:
        raise ValueError(f"empty range [{low}, {high}]")
    return BinLayout(attribute, np.linspace(low, high, n_bins + 1))


def equi_depth_layout(attribute: str, values: np.ndarray,
                      n_bins: int) -> BinLayout:
    """Quantile bins: each bin holds roughly the same number of tuples.

    Duplicate quantile edges (heavy ties) are collapsed, so the realised
    bin count can be lower than requested; the layout always covers the
    observed value range.
    """
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot build equi-depth bins from no data")
    quantiles = np.linspace(0.0, 1.0, n_bins + 1)
    edges = np.quantile(values, quantiles)
    edges = np.unique(edges)
    if len(edges) < 2:
        # Degenerate constant column: one bin of nominal width.
        center = float(edges[0])
        edges = np.array([center, center + 1.0])
    return BinLayout(attribute, edges)


def _uniformity_deficit(values: np.ndarray, low: float, high: float,
                        probes: int = 8) -> float:
    """How far the empirical CDF of ``values`` on ``[low, high]`` deviates
    from uniform (a Kolmogorov–Smirnov-style sup statistic on a probe
    grid).  Zero means perfectly uniform."""
    if len(values) == 0 or high <= low:
        return 0.0
    probe_points = np.linspace(low, high, probes + 2)[1:-1]
    empirical = np.searchsorted(np.sort(values), probe_points) / len(values)
    uniform = (probe_points - low) / (high - low)
    return float(np.max(np.abs(empirical - uniform)))


def homogeneity_layout(attribute: str, values: np.ndarray, n_bins: int,
                       tolerance: float = 0.05) -> BinLayout:
    """Homogeneity-based bins: split where the data is least uniform.

    Greedy top-down, following the homogeneity criterion of Whang, Kim
    and Wiederhold that the paper cites as an alternative binner:
    starting from one bin over the observed range, the bin whose
    contents deviate most from a uniform distribution (beyond
    ``tolerance``) is split at its median.  When every bin is already
    uniform but the budget is not exhausted, the most populous bin is
    split instead — ARCS needs the grid's *resolution* regardless, and
    on uniformity-signal-free data that degrades to balanced bins
    rather than a useless 1-bin layout.
    """
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        raise ValueError("cannot build homogeneity bins from no data")
    low, high = float(values[0]), float(values[-1])
    if low == high:
        return BinLayout(attribute, np.array([low, low + 1.0]))

    edges = [low, high]

    def bin_contents(index: int) -> np.ndarray:
        left, right = edges[index], edges[index + 1]
        return values[(values >= left) & (values <= right)]

    while len(edges) - 1 < n_bins:
        # Prefer the least-uniform bin; fall back to the most populous.
        worst_index, worst_margin = -1, 0.0
        fullest_index, fullest_count = -1, 1
        for i in range(len(edges) - 1):
            inside = bin_contents(i)
            # A bin with fewer than two distinct values cannot be
            # improved by splitting (point masses from boundary
            # clipping land here).
            if len(inside) < 2 or inside[0] == inside[-1]:
                continue
            score = _uniformity_deficit(inside, edges[i], edges[i + 1])
            # A small sample's empirical CDF deviates from uniform by
            # ~1.36/sqrt(n) (the 95% KS critical value) even when the
            # data IS uniform; only deviations beyond that are signal.
            threshold = max(tolerance, 1.36 / np.sqrt(len(inside)))
            margin = score - threshold
            if margin > worst_margin:
                worst_index, worst_margin = i, margin
            if len(inside) > fullest_count:
                fullest_index, fullest_count = i, len(inside)
        # Resolution guard: a grossly oversized bin starves the grid no
        # matter how uniform it is internally; splitting it first keeps
        # homogeneity binning usable as an ARCS layout.
        average = len(values) / n_bins
        if fullest_index >= 0 and fullest_count > 4 * average:
            split_index = fullest_index
        else:
            split_index = (
                worst_index if worst_index >= 0 else fullest_index
            )
        if split_index < 0:
            break
        left, right = edges[split_index], edges[split_index + 1]
        inside = bin_contents(split_index)
        split = float(np.median(inside))
        if not left < split < right:
            # The median collapsed onto an edge atom; isolate the atom
            # by splitting just above the bin's smallest distinct value
            # (one split, after which the atom bin is skipped forever).
            above = inside[inside > inside[0]]
            split = float(above[0]) if len(above) else (
                (left + right) / 2.0
            )
        if not left < split < right:
            break
        edges.insert(split_index + 1, split)
    return BinLayout(attribute, np.array(sorted(set(edges))))


def suggest_bin_count(n_tuples: int, target_per_cell: float = 12.0,
                      min_bins: int = 10, max_bins: int = 50) -> int:
    """A data-size-aware bin count for square grids.

    The paper presets 50 bins per attribute and its sweeps start at 20k
    tuples; below that, 2500 cells starve (a cell holding one stray
    tuple reports confidence 1.0 and support thresholds cannot separate
    signal from noise).  This heuristic sizes the grid so the *average
    cell* holds about ``target_per_cell`` tuples:
    ``bins = sqrt(n_tuples / target_per_cell)`` clamped to
    ``[min_bins, max_bins]`` — which reaches the paper's 50 bins at
    |D| >= 30k and degrades gracefully below (12 per cell keeps a 10%
    outlier background distinguishable from true regions).
    """
    if n_tuples <= 0:
        raise ValueError("n_tuples must be positive")
    if target_per_cell <= 0:
        raise ValueError("target_per_cell must be positive")
    if not 0 < min_bins <= max_bins:
        raise ValueError("need 0 < min_bins <= max_bins")
    raw = int(np.sqrt(n_tuples / target_per_cell))
    bins = int(np.clip(raw, min_bins, max_bins))
    logger.debug(
        "suggest_bin_count: %d tuples at ~%g per cell -> %d bins",
        n_tuples, target_per_cell, bins,
    )
    return bins


def make_layout(strategy: str, attribute: str, values: np.ndarray,
                n_bins: int, low: float | None = None,
                high: float | None = None) -> BinLayout:
    """Dispatch to a strategy by name (``equi-width`` is the paper default).

    ``low``/``high`` bound the equi-width layout; the data-driven
    strategies derive their edges from ``values``.
    """
    if strategy == EQUI_WIDTH:
        values = np.asarray(values, dtype=np.float64)
        if low is None:
            low = float(values.min())
        if high is None:
            high = float(values.max())
        return equi_width_layout(attribute, low, high, n_bins)
    if strategy == EQUI_DEPTH:
        return equi_depth_layout(attribute, values, n_bins)
    if strategy == HOMOGENEITY:
        return homogeneity_layout(attribute, values, n_bins)
    raise ValueError(
        f"unknown binning strategy {strategy!r}; expected one of {STRATEGIES}"
    )
