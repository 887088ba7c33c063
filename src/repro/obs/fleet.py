"""Fleet telemetry: one observable whole out of N serving workers.

The pre-fork server (:mod:`repro.serve.workers`) gives every forked
worker its own :class:`~repro.obs.metrics.MetricsRegistry` and event
sink — correct for fork safety, but it fragments observability: a
``/metrics`` scrape used to reflect only the one worker that answered
it.  This module is the parent-side half that closes the gap:

* each worker periodically (and finally, on drain) ships its
  ``MetricsRegistry.snapshot()``, event-sink counts and served model
  ids to the parent over the existing ack queue;
* the parent's :class:`FleetAggregator` absorbs the payloads with
  **kind-aware** semantics — counters and histogram buckets sum through
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, while
  gauges are re-labeled ``{worker="N"}`` instead of summed (two
  workers' queue depths are independent readings; a summed drift PSI
  is meaningless);
* the merged snapshot is re-published as an **atomically replaced JSON
  document** (write-temp-then-``os.replace``, so a reader never sees
  a torn write) that every worker re-reads through a
  :class:`FleetView`, so *any* worker answering ``GET /metrics`` serves
  the fleet-wide view, and ``GET /fleet`` exposes the per-worker
  lifecycle surface (pid, uptime, spawn generation, restart count,
  served models, snapshot age, drain state).

Restarts are handled monotonically: when a worker comes back with a new
incarnation, its previous incarnation's counters and histograms are
folded into a per-slot base accumulator (gauges are dropped — a dead
process has no current value), so fleet counters never go backwards
just because the watchdog replaced a crashed worker.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from time import perf_counter

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

__all__ = [
    "FLEET_FORMAT",
    "FleetAggregator",
    "FleetView",
]

#: The ``format`` discriminator in every published fleet document.
FLEET_FORMAT = "arcs-fleet-telemetry"


class _WorkerState:
    """The parent's view of one worker slot (guarded by the aggregator
    lock; plain record, no methods that touch shared state)."""

    __slots__ = (
        "pid", "incarnation", "restarts", "snapshot", "events",
        "uptime_seconds", "draining", "last_snapshot_unix",
        "spawned_unix", "models",
    )

    def __init__(self, pid: int | None, incarnation: int):
        self.pid = pid
        self.incarnation = incarnation
        self.restarts = 0
        self.snapshot: dict | None = None
        self.events: dict | None = None
        self.uptime_seconds = 0.0
        self.draining = False
        self.last_snapshot_unix: float | None = None
        self.spawned_unix = time.time()  # wall-clock: ok (ops surface)
        #: Sorted ids of the models the worker served at its last
        #: snapshot; ``None`` before the first one.
        self.models: list[str] | None = None


def _sum_counters(into: dict, counters: dict) -> None:
    for key, value in counters.items():
        into[key] = into.get(key, 0) + value


class FleetAggregator:
    """Absorbs worker telemetry and builds the merged fleet document.

    Thread-safe: :meth:`absorb` runs on the parent's ack loop,
    :meth:`register_worker`/:meth:`note_restart` on the watchdog
    thread, and :meth:`publish` on whichever of them triggered it — all
    state is guarded by ``self._lock``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: dict[int, _WorkerState] = {}
        #: Per-slot accumulator of dead incarnations' counters and
        #: histograms (gauges dropped) — keeps fleet counters monotone
        #: across watchdog restarts.
        self._folds: dict[int, MetricsRegistry] = {}
        self._generation = 0
        self._absorbed = 0
        self._last_publish_seconds: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle notes from the parent's supervision threads
    # ------------------------------------------------------------------
    def register_worker(self, index: int, pid: int | None,
                        incarnation: int) -> None:
        """Record a (re)spawned worker slot before its first snapshot."""
        with self._lock:
            state = self._workers.get(index)
            if state is None:
                self._workers[index] = _WorkerState(pid, incarnation)
                return
            self._fold_locked(index, state, incarnation)
            state.pid = pid
            state.spawned_unix = time.time()  # wall-clock: ok (ops surface)

    def note_restart(self, index: int) -> None:
        """The watchdog replaced a dead worker in this slot."""
        with self._lock:
            state = self._workers.get(index)
            if state is not None:
                state.restarts += 1

    # ------------------------------------------------------------------
    # Telemetry intake
    # ------------------------------------------------------------------
    def absorb(self, index: int, payload: dict) -> None:
        """Take one worker's telemetry payload (see ``_worker_main``:
        pid, incarnation, uptime, drain flag, registry snapshot, event
        counts, served model ids).  A changed incarnation folds the
        previous one's counters/histograms into the slot's base
        first."""
        with self._lock:
            state = self._workers.get(index)
            if state is None:
                state = self._workers[index] = _WorkerState(
                    payload.get("pid"), payload.get("incarnation", 0)
                )
            else:
                self._fold_locked(index, state,
                                  payload.get("incarnation", 0))
            state.pid = payload.get("pid", state.pid)
            state.snapshot = payload.get("snapshot") or {}
            state.events = payload.get("events")
            state.models = payload.get("models")
            state.uptime_seconds = payload.get("uptime_seconds", 0.0)
            state.draining = bool(payload.get("draining", False))
            state.last_snapshot_unix = (
                time.time()  # wall-clock: ok (snapshot-age reporting)
            )
            self._absorbed += 1
            reporting = sum(
                1 for worker in self._workers.values()
                if worker.snapshot is not None and not worker.draining
            )
        metrics.inc("fleet.snapshots_absorbed")
        metrics.set_gauge("fleet.workers_reporting", reporting)

    def _fold_locked(self, index: int, state: _WorkerState,
                     incarnation: int) -> None:
        """Fold a finished incarnation's totals into the slot base.

        Caller holds ``self._lock``.  No-op when the incarnation is
        unchanged; otherwise the old snapshot's counters and histograms
        move into the per-slot accumulator and the slot starts clean at
        the new incarnation.
        """
        if incarnation == state.incarnation:
            return
        if state.snapshot:
            fold = self._folds.get(index)
            if fold is None:
                fold = self._folds[index] = MetricsRegistry()
            fold.merge_snapshot({
                "counters": state.snapshot.get("counters", {}),
                "histograms": state.snapshot.get("histograms", {}),
            })
        state.incarnation = incarnation
        state.snapshot = None
        state.events = None
        state.models = None
        state.uptime_seconds = 0.0
        state.draining = False

    # ------------------------------------------------------------------
    # Aggregation + publication
    # ------------------------------------------------------------------
    def aggregate(self, extra_snapshot: dict | None = None,
                  extra_label: str = "parent") -> dict:
        """The merged fleet snapshot: counters/histograms summed across
        every incarnation of every worker, gauges re-labeled per worker
        (``{worker="N"}``), never summed.  ``extra_snapshot`` (the
        parent's own registry) merges the same way under
        ``{worker="parent"}``."""
        with self._lock:
            folds = [fold.snapshot() for fold in self._folds.values()]
            live = {
                index: state.snapshot
                for index, state in self._workers.items()
                if state.snapshot
            }
        merged = MetricsRegistry()
        for fold in folds:
            merged.merge_snapshot(fold)
        for index, snapshot in live.items():
            merged.merge_snapshot({
                "counters": snapshot.get("counters", {}),
                "histograms": snapshot.get("histograms", {}),
            })
            merged.merge_snapshot(
                {"gauges": snapshot.get("gauges", {})},
                relabel_gauges={"worker": str(index)},
            )
        if extra_snapshot:
            merged.merge_snapshot({
                "counters": extra_snapshot.get("counters", {}),
                "histograms": extra_snapshot.get("histograms", {}),
            })
            merged.merge_snapshot(
                {"gauges": extra_snapshot.get("gauges", {})},
                relabel_gauges={"worker": extra_label},
            )
        return merged.snapshot()

    def _worker_counters_locked(self, index: int,
                                state: _WorkerState) -> dict:
        """This slot's cumulative counter totals across incarnations.
        Caller holds ``self._lock``."""
        totals: dict = {}
        fold = self._folds.get(index)
        if fold is not None:
            _sum_counters(totals, fold.snapshot()["counters"])
        if state.snapshot:
            _sum_counters(totals, state.snapshot.get("counters", {}))
        return totals

    def _describe_worker_locked(self, index: int,
                                state: _WorkerState) -> dict:
        return {
            "pid": state.pid,
            "spawn_generation": state.incarnation,
            "restarts": state.restarts,
            "uptime_seconds": state.uptime_seconds,
            "draining": state.draining,
            "spawned_unix": state.spawned_unix,
            "last_snapshot_unix": state.last_snapshot_unix,
            "models": state.models,
            "events": state.events,
            "counters": self._worker_counters_locked(index, state),
        }

    def build_document(self, extra_snapshot: dict | None = None) -> dict:
        """The full fleet document: lifecycle surface + merged metrics."""
        aggregate = self.aggregate(extra_snapshot)
        with self._lock:
            self._generation += 1
            return {
                "format": FLEET_FORMAT,
                "generation": self._generation,
                "published_unix": (
                    time.time()  # wall-clock: ok (published-age reporting)
                ),
                "last_publish_seconds": self._last_publish_seconds,
                "snapshots_absorbed": self._absorbed,
                "workers": {
                    str(index): self._describe_worker_locked(index, state)
                    for index, state in sorted(self._workers.items())
                },
                "aggregate": aggregate,
            }

    def publish(self, path: str | Path,
                extra_snapshot: dict | None = None) -> dict:
        """Build and atomically replace the fleet document at ``path``.

        Write-to-temp-then-``os.replace`` in the same directory, so a
        worker's concurrent read sees either the previous complete
        document or the new one, never a torn write.  The wall time of
        the merge-plus-write is observed as ``fleet.publish_seconds``
        (the aggregation-overhead number the serving benchmark gates
        on) and surfaces in the *next* document as
        ``last_publish_seconds``.
        """
        started = perf_counter()
        path = Path(path)
        document = self.build_document(extra_snapshot)
        encoded = json.dumps(document, separators=(",", ":"))
        temp = path.with_name(f".{path.name}.tmp")
        temp.write_text(encoded, encoding="utf-8")
        os.replace(temp, path)
        elapsed = perf_counter() - started
        with self._lock:
            self._last_publish_seconds = elapsed
        metrics.observe("fleet.publish_seconds", elapsed)
        return document


class FleetView:
    """A worker's cached reader of the published fleet document.

    ``read`` re-stats the file and re-parses only when it changed
    (mtime + size), so serving the fleet view from a hot ``/metrics``
    endpoint costs one ``stat`` per scrape.  Returns ``None`` until the
    parent's first publish (callers fall back to the process-local
    view).  Thread-safe: handler threads share one view per service.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._stamp: tuple[int, int] | None = None
        self._document: dict | None = None

    def read(self) -> dict | None:
        try:
            stat = self.path.stat()
        except OSError:
            return None
        stamp = (stat.st_mtime_ns, stat.st_size)
        with self._lock:
            if stamp == self._stamp:
                return self._document
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            # Mid-replace or already unlinked: keep serving the last
            # complete document.
            with self._lock:
                return self._document
        if (not isinstance(document, dict)
                or document.get("format") != FLEET_FORMAT):
            logger.warning("ignoring malformed fleet document at %s",
                           self.path)
            with self._lock:
                return self._document
        with self._lock:
            self._stamp = stamp
            self._document = document
            return self._document
