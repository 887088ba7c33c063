"""Per-layer timing wrappers for the traced benchmark run.

A traced run patches a timing wrapper over each layer's public
functions, at the binding the program actually calls through: the
clusterer calls ``repro.core.clusterer.merge_clusters``, so that name is
wrapped, not ``repro.core.merging.merge_clusters``.  Every wrapper adds
to three counters of the active ``repro.obs.metrics`` registry:

* ``e2e.<layer>.calls`` - calls;
* ``e2e.<layer>.total_s`` - wall time inside the call;
* ``e2e.<layer>.self_s`` - that time minus the time of wrapped calls
  nested inside it on the same thread.

Counters, not a private table, because forked serving workers inherit
the wrappers and their registries reach the harness through the fleet
sum on ``GET /metrics``.  A target the tree no longer has is reported
as absent and left alone, so deleting a layer never breaks the run.
"""

from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.obs import metrics

PREFIX = "e2e."


def _merge_counts(args, kwargs, result) -> dict:
    return {"clusters_in": len(args[0]), "clusters_out": len(result)}


def _score_counts(args, kwargs, result) -> dict:
    return {"batches": 1, "points": int(result.size)}


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module`` plus a dotted ``attribute``
    (``"Class.method"`` for methods), credited to ``layer``.  ``counts``
    maps ``(args, kwargs, result)`` to extra counter increments."""

    layer: str
    module: str
    attribute: str
    counts: Callable | None = None

    @property
    def path(self) -> str:
        return f"{self.module}.{self.attribute}"


TARGETS: tuple[Target, ...] = (
    Target("binning", "repro.core.arcs", "bin_table"),
    Target("binning", "repro.binning.bin_array", "BinArray.add_chunk"),
    Target("binning", "repro.binning.bin_array", "BinArray.remove_chunk"),
    Target("mining", "repro.core.clusterer", "rule_pairs"),
    Target("core.smoothing", "repro.core.clusterer", "smooth_binary"),
    Target("core.bitop", "repro.core.bitop", "BitOpClusterer.cluster"),
    Target("core.merging", "repro.core.clusterer", "merge_clusters",
           _merge_counts),
    Target("core.pruning", "repro.core.clusterer", "prune_clusters"),
    Target("core.clusterer", "repro.core.clusterer",
           "GridClusterer.cluster"),
    Target("core.verifier", "repro.core.verifier", "Verifier.verify"),
    Target("core.optimizer", "repro.core.optimizer",
           "HeuristicOptimizer.search"),
    Target("stream", "repro.stream.refitter", "StreamRefitter.ingest"),
    Target("stream", "repro.stream.refitter", "StreamRefitter.refit"),
    Target("persistence", "repro.stream.refitter", "save_segmentation"),
    Target("serve.service", "repro.serve.service",
           "PredictionService.dispatch"),
    Target("serve.registry", "repro.serve.registry",
           "ModelRegistry.resolve"),
    Target("serve.registry", "repro.serve.registry",
           "ModelRegistry.refresh"),
    Target("serve.workers", "repro.serve.workers", "ScorerPublisher.sync"),
    Target("serve.workers", "repro.serve.workers",
           "SharedScorerCache.resolve"),
    Target("serve.workers", "repro.serve.workers",
           "SharedScorerCache.sync"),
    Target("serve.scorer", "repro.serve.workers", "compile_scorer"),
    Target("serve.scorer", "repro.serve.service", "compile_scorer"),
    Target("serve.scorer", "repro.serve.scorer",
           "CompiledScorer.score_batch", _score_counts),
    Target("serve.batching", "repro.serve.batching", "BatchQueue.submit"),
    Target("serve.monitor", "repro.serve.monitor", "TrafficMonitor.record"),
)

#: Layers measured inside the benchmark's own process (fits, watch).
FIT_LAYERS = (
    "binning", "mining", "core.smoothing", "core.bitop", "core.merging",
    "core.pruning", "core.clusterer", "core.verifier", "core.optimizer",
    "stream", "persistence",
)
#: Layers measured inside the server's processes (read from the fleet).
SERVE_LAYERS = (
    "serve.service", "serve.registry", "serve.workers", "serve.scorer",
    "serve.batching", "serve.monitor",
)

_frames = threading.local()


def _resolve(target: Target) -> tuple[object, str, Callable] | None:
    """``(owner, name, function)`` for a target, or ``None`` if absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *parents, name = target.attribute.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    function = getattr(owner, name, None)
    if not callable(function):
        return None
    return owner, name, function


def _timed(target: Target, function: Callable) -> Callable:
    calls = f"{PREFIX}{target.layer}.calls"
    total = f"{PREFIX}{target.layer}.total_s"
    own = f"{PREFIX}{target.layer}.self_s"

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        stack = getattr(_frames, "stack", None)
        if stack is None:
            stack = _frames.stack = []
        nested = [0.0]
        stack.append(nested)
        started = perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            metrics.inc(calls)
            metrics.inc(total, elapsed)
            metrics.inc(own, max(elapsed - nested[0], 0.0))
        if target.counts is not None:
            for name, amount in target.counts(args, kwargs, result).items():
                metrics.inc(f"{PREFIX}{target.layer}.{name}", amount)
        return result

    return wrapper


def absent_targets(targets: tuple[Target, ...] = TARGETS) -> list[str]:
    """Targets this tree no longer has (nothing is patched)."""
    return [target.path for target in targets if _resolve(target) is None]


class Installed:
    """Wrappers patched over the program; :meth:`restore` undoes them."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.absent: list[str] = []
        self._originals: list[tuple[object, str, Callable]] = []
        for target in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target.path)
                continue
            owner, name, function = found
            self._originals.append((owner, name, function))
            setattr(owner, name, _timed(target, function))

    def restore(self) -> None:
        for owner, name, function in reversed(self._originals):
            setattr(owner, name, function)
        self._originals = []

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def layer_counters(counters: dict) -> dict[str, float]:
    """The ``e2e.*`` counters of a metrics snapshot, prefix stripped."""
    return {
        key[len(PREFIX):]: value for key, value in counters.items()
        if key.startswith(PREFIX)
    }


def layer_metrics(counters: dict, layers, wall_seconds: float) -> dict:
    """``<layer>.calls/total_s/self_s/share`` for ``layers``, from the
    stripped counters; ``share`` is self time over ``wall_seconds``."""
    out = {}
    for layer in layers:
        self_s = float(counters.get(f"{layer}.self_s", 0.0))
        out[f"{layer}.calls"] = counters.get(f"{layer}.calls", 0)
        out[f"{layer}.total_s"] = float(counters.get(f"{layer}.total_s",
                                                     0.0))
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = ratio(self_s, wall_seconds)
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
