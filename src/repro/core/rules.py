"""Rule data model: intervals, binned rules, rectangles, clustered rules.

Terminology follows paper Section 2.1.  An *association rule* on binned
two-attribute data is ``X = i AND Y = j => C = v`` for bin indices
``(i, j)`` (:class:`BinnedRule`).  A *clustered association rule* replaces
the equalities with bin-range inequalities,
``lo_x <= X < hi_x AND lo_y <= Y < hi_y => C = v``
(:class:`ClusteredRule`); geometrically it is an axis-aligned rectangle of
grid cells (:class:`GridRect`).  :class:`Interval` carries the value-space
bounds with the half-open convention the binner uses.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class Interval:
    """A value interval ``[low, high)`` (or ``[low, high]`` when closed).

    Bins are half-open except the last bin of a layout, which is closed so
    the domain maximum belongs to a bin; clustered rules inherit whichever
    convention their last bin uses.
    """

    low: float
    high: float
    closed_high: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"empty interval [{self.low}, {self.high})")

    def contains(self, values) -> np.ndarray:
        """Vectorised membership test."""
        values = np.asarray(values, dtype=np.float64)
        upper = values <= self.high if self.closed_high else values < self.high
        return (values >= self.low) & upper

    def intersect(self, other: "Interval") -> "Interval | None":
        """The overlapping sub-interval, or ``None`` when disjoint."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low >= high:
            return None
        closed = (
            (self.closed_high if self.high <= other.high else True)
            and (other.closed_high if other.high <= self.high else True)
        )
        return Interval(low, high, closed_high=closed)

    def __str__(self) -> str:
        return f"[{self.low:g}, {self.high:g}{']' if self.closed_high else ')'}"

    def describe(self, attribute: str) -> str:
        """Render as the paper writes rules, e.g. ``40 <= age < 42``."""
        upper = "<=" if self.closed_high else "<"
        return f"{self.low:g} <= {attribute} {upper} {self.high:g}"


@dataclass(frozen=True)
class BinnedRule:
    """An association rule on binned data: ``X = x_bin AND Y = y_bin =>
    C = rhs_value`` with its support and confidence (paper Figure 3
    output)."""

    x_bin: int
    y_bin: int
    rhs_value: object
    support: float
    confidence: float

    def __post_init__(self) -> None:
        if self.x_bin < 0 or self.y_bin < 0:
            raise ValueError("bin indices must be non-negative")
        if not 0.0 <= self.support <= 1.0:
            raise ValueError(f"support {self.support} outside [0, 1]")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True, order=True)
class GridRect:
    """An inclusive rectangle of grid cells: bins ``x_lo..x_hi`` by
    ``y_lo..y_hi``.  This is the geometric form of a cluster."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.x_lo <= self.x_hi):
            raise ValueError(f"bad x range {self.x_lo}..{self.x_hi}")
        if not (0 <= self.y_lo <= self.y_hi):
            raise ValueError(f"bad y range {self.y_lo}..{self.y_hi}")

    @property
    def width(self) -> int:
        """Extent along x, in bins."""
        return self.x_hi - self.x_lo + 1

    @property
    def height(self) -> int:
        """Extent along y, in bins."""
        return self.y_hi - self.y_lo + 1

    @property
    def area(self) -> int:
        """Number of cells covered."""
        return self.width * self.height

    def contains_cell(self, x: int, y: int) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def union_bounding(self, other: "GridRect") -> "GridRect":
        """The bounding box of both rectangles."""
        return GridRect(
            min(self.x_lo, other.x_lo), max(self.x_hi, other.x_hi),
            min(self.y_lo, other.y_lo), max(self.y_hi, other.y_hi),
        )

    def __str__(self) -> str:
        return (
            f"[x {self.x_lo}..{self.x_hi}] x [y {self.y_lo}..{self.y_hi}]"
        )


@dataclass(frozen=True)
class ClusteredRule:
    """A clustered association rule (paper Section 2.1):

    ``lo_x <= X < hi_x  AND  lo_y <= Y < hi_y  =>  C = rhs_value``

    with the aggregate support and confidence of the covered cells.  The
    originating bin rectangle is kept as provenance so the rule can be
    traced back onto the grid.
    """

    x_attribute: str
    y_attribute: str
    x_interval: Interval
    y_interval: Interval
    rhs_attribute: str
    rhs_value: object
    support: float
    confidence: float
    rect: GridRect | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.support <= 1.0:
            raise ValueError(f"support {self.support} outside [0, 1]")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    def matches(self, x_values, y_values) -> np.ndarray:
        """Vectorised LHS membership test for points ``(x, y)``."""
        return self.x_interval.contains(x_values) & self.y_interval.contains(
            y_values
        )

    def __str__(self) -> str:
        lhs = (
            f"{self.x_interval.describe(self.x_attribute)} AND "
            f"{self.y_interval.describe(self.y_attribute)}"
        )
        return (
            f"{lhs} => {self.rhs_attribute} = {self.rhs_value} "
            f"(support={self.support:.4f}, confidence={self.confidence:.3f})"
        )
