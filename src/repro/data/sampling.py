"""Sampling utilities for the ARCS verifier (paper Section 3.6).

The verifier estimates a segmentation's error on a *sample* of the source
database rather than a full pass.  To tighten the estimate the paper uses
"repeated k out of n sampling": draw several independent samples of k rows
and average the per-sample error rates.  These helpers produce the index
sets; the verifier owns the error computation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def repeat_rng(seed: int, repeat: int) -> np.random.Generator:
    """A deterministic generator for one repeat of a seeded experiment.

    Seeding each repeat independently (rather than drawing repeats from
    one sequential stream) makes repeat ``r``'s sample a pure function of
    ``(seed, r)`` — so any subset or order of repeats reproduces the
    same per-repeat draws.
    """
    if repeat < 0:
        raise ValueError("repeat index must be non-negative")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(repeat,))
    )


def sample_indices(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Return ``k`` distinct row indices drawn uniformly from ``range(n)``."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    return rng.choice(n, size=k, replace=False)


def repeat_indices(n: int, k: int, seed: int,
                   repeat_ids: Sequence[int]) -> np.ndarray:
    """The ``(len(repeat_ids), k)`` index matrix of a seeded experiment.

    Row ``i`` is repeat ``repeat_ids[i]``'s k-of-n sample, drawn from
    ``repeat_rng(seed, repeat_ids[i])`` — a pure function of
    ``(seed, repeat, n, k)``, whatever else is in the batch.  This is
    the one place the verifier's sampling rule lives.
    """
    return np.stack([
        sample_indices(n, k, repeat_rng(seed, repeat))
        for repeat in repeat_ids
    ])


def repeated_k_of_n(n: int, k: int, repeats: int,
                    rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield ``repeats`` independent k-of-n samples (paper Section 3.6).

    Each yielded array holds ``k`` distinct indices; successive samples are
    independent draws, so the same row may appear in several samples.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    for _ in range(repeats):
        yield sample_indices(n, k, rng)
