"""Noise models for the synthetic data (paper Sections 3.3 and 4.1).

Two distinct imperfections make the clustering problem hard, and the paper
names both:

* **Perturbation** models fuzzy boundaries between the function's disjuncts:
  after the group label is assigned, each labelled quantitative attribute is
  nudged by an additive amount drawn uniformly from
  ``[-p * width, +p * width]`` where ``width`` is the attribute's domain
  width and ``p`` the perturbation factor (paper: 5%).  Tuples near a region
  boundary can thus cross it while keeping the original label.

* **Outliers** are tuples "assigned to a given group label but [that] do not
  match any of the defining rules for that group" — we realise this by
  flipping the label of a uniformly chosen fraction ``U`` of tuples
  (paper: 10%).  A flipped tuple keeps its attribute values, so by
  construction it no longer satisfies its group's generating rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import Table


def perturb_quantitative(table: Table, attributes: Sequence[str],
                         factor: float, rng: np.random.Generator) -> Table:
    """Return a copy of ``table`` with the named quantitative attributes
    perturbed additively by up to ``factor`` of their domain width.

    Perturbed values are clipped back into the attribute's declared (or
    observed) range so downstream binning never sees out-of-domain values.
    """
    if not 0.0 <= factor < 1.0:
        raise ValueError("perturbation factor must be in [0, 1)")
    result = table
    for name in attributes:
        spec = table.spec(name)
        if not spec.is_quantitative:
            raise ValueError(f"cannot perturb categorical attribute {name!r}")
        low, high = table.observed_range(name)
        width = high - low
        noise = rng.uniform(-factor * width, factor * width, size=len(table))
        perturbed = np.clip(table.column(name) + noise, low, high)
        result = result.with_column(spec, perturbed)
    return result


def inject_outliers(labels: np.ndarray, fraction: float,
                    rng: np.random.Generator,
                    groups: Sequence = ("A", "other")) -> np.ndarray:
    """Return a copy of ``labels`` with a ``fraction`` of entries flipped.

    For the two-group case each selected label becomes the other group; for
    more groups a uniformly random *different* group is chosen.  Selected
    indices are drawn without replacement, so the outlier fraction is exact
    up to rounding.  ``labels`` may be values or integer codes (with
    ``groups`` then given as codes).

    All flips draw in one ``rng.integers`` call with a per-label bound.
    That consumes the random stream exactly as one call per label did
    (:func:`repro.perf.reference.inject_outliers_scalar`), so the output
    is the same.  When every label is one of two groups, every bound is 1
    and nothing is drawn.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("outlier fraction must be in [0, 1)")
    groups = list(groups)
    if len(groups) < 2:
        raise ValueError("need at least two groups to create outliers")
    flipped = labels.copy()
    n_outliers = int(round(fraction * len(labels)))
    if n_outliers == 0:
        return flipped
    chosen = rng.choice(len(labels), size=n_outliers, replace=False)
    current = flipped[chosen]
    # other[i, j]: group j is an alternative for chosen label i.
    other = np.stack(
        [np.asarray(current != group, dtype=bool) for group in groups],
        axis=1,
    )
    draws = rng.integers(other.sum(axis=1))
    picked = np.argmax(np.cumsum(other, axis=1) > draws[:, None], axis=1)
    replacements = np.empty(len(groups), dtype=flipped.dtype)
    for position, group in enumerate(groups):
        replacements[position] = group
    flipped[chosen] = replacements[picked]
    return flipped
