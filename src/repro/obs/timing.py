"""Micro-benchmark timing built on the tracing clock.

The perf-budget harness (``benchmarks/perf_budget.py``) and ad-hoc
profiling need one thing the span tree does not give directly: the best
repeatable wall time of a small callable.  :func:`best_of` is a
minimal ``timeit``-style loop on :func:`time.perf_counter` — the same
monotonic clock every :class:`~repro.obs.tracing.Span` uses — that
reports the *minimum* over trials (the standard estimator for a noisy
machine: the minimum is the run least disturbed by other load).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

__all__ = ["best_of"]


def best_of(fn: Callable[[], object], trials: int = 5,
            number: int = 1) -> float:
    """Best wall time of ``fn`` in seconds per call.

    Runs ``trials`` batches of ``number`` back-to-back calls and returns
    the fastest batch divided by ``number``.  No warm-up is added —
    callers that need one (first-call JIT/cache effects) run ``fn`` once
    beforehand.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if number <= 0:
        raise ValueError("number must be positive")
    best = None
    for _ in range(trials):
        started = perf_counter()
        for _ in range(number):
            fn()
        elapsed = perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best / number

