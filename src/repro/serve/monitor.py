"""Live traffic monitoring: drift, coverage and out-of-range tracking.

The serving layer's *model* observability (as opposed to the process
telemetry in :mod:`repro.obs`): every successfully scored
``/predict``/``/predict_batch``/``/explain`` input is re-binned into
the model's **training** grid — the exact bin edges persisted in the
artefact's reference profile — and accumulated into a ring of tumbling
:class:`~repro.obs.drift.TrafficWindow` s.  Each window snapshot is
scored against the training occupancy with PSI and Jensen-Shannon
divergence (:mod:`repro.obs.drift`), per LHS attribute and for the
joint grid.

Window semantics: the *current* window accumulates until
``window_seconds`` have elapsed since it opened, then the first event
after expiry (a scored request or a ``/stats`` read) closes it into the
ring and opens a fresh one; the ring keeps the last ``window_count``
closed windows, and ``recent`` aggregates ring plus current.  Idle gaps
do not synthesise empty windows.  Gauges
(``serve.drift_psi{attr,model}`` etc.) and drift-threshold events are
refreshed whenever stats are computed — on every ``/stats`` read and at
each window rotation — so a Prometheus-only consumer still sees drift
move without ever touching ``/stats``.

Concurrency: handler threads share one :class:`TrafficMonitor` per
model.  All mutable state (the current window, the ring, the alert
map) is guarded by ``self._lock``; readers get deep copies and compute
divergences outside the lock.  Models resolve to monitors by content
hash, so a hot reload that changes an artefact starts a fresh monitor
— mixing windows across two different models would make drift
meaningless.
"""

from __future__ import annotations

import logging
import threading
from bisect import bisect_right
from collections import deque
from time import perf_counter

import numpy as np

from repro.binning.strategies import BinLayout
from repro.data.summary import ReferenceProfile
from repro.obs import events, metrics
from repro.obs.drift import (
    DEFAULT_PSI_ALERT,
    TrafficWindow,
    js_divergence,
    psi,
)
from repro.serve.registry import ServedModel

logger = logging.getLogger(__name__)

__all__ = [
    "MonitorConfigError",
    "TrafficMonitor",
    "TrafficMonitors",
]


class MonitorConfigError(ValueError):
    """Invalid monitor configuration (window length or count).

    Subclasses :class:`ValueError` per the serving layer's exception
    policy, so callers validating configuration generically keep
    working.
    """

#: Default tumbling-window length, seconds.
DEFAULT_WINDOW_SECONDS = 60.0

#: Default number of closed windows retained in the ring.
DEFAULT_WINDOW_COUNT = 4


class TrafficMonitor:
    """Windowed traffic statistics for one served model (thread-safe)."""

    def __init__(self, *, model_id: str, name: str, x_attribute: str,
                 y_attribute: str, n_rules: int,
                 reference: ReferenceProfile | None = None,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 window_count: int = DEFAULT_WINDOW_COUNT,
                 psi_alert: float = DEFAULT_PSI_ALERT,
                 clock=perf_counter):
        if window_seconds <= 0:
            raise MonitorConfigError("window_seconds must be positive")
        if window_count < 1:
            raise MonitorConfigError("window_count must be at least 1")
        self.model_id = model_id
        self.name = name
        self.x_attribute = x_attribute
        self.y_attribute = y_attribute
        self.n_rules = int(n_rules)
        self.reference = reference
        self.window_seconds = float(window_seconds)
        self.window_count = int(window_count)
        self.psi_alert = float(psi_alert)
        self._clock = clock
        if reference is not None and reference.n_total > 0:
            self._x_layout = BinLayout(x_attribute, reference.x_edges)
            self._y_layout = BinLayout(y_attribute, reference.y_edges)
            self._n_x, self._n_y = reference.n_x, reference.n_y
            # The edges as Python floats, for record_point.
            self._x_edge_list = reference.x_edges.tolist()
            self._y_edge_list = reference.y_edges.tolist()
        else:  # old artefact without a reference: coverage only
            self._x_layout = self._y_layout = None
            self._n_x = self._n_y = 0
            self._x_edge_list = self._y_edge_list = None
        self._lock = threading.Lock()
        self._ring: deque[TrafficWindow] = deque(maxlen=self.window_count)
        self._current = TrafficWindow(
            self._n_x, self._n_y, self.n_rules, opened=clock()
        )
        self._alerts: dict[str, bool] = {}

    @property
    def has_reference(self) -> bool:
        return self._x_layout is not None

    # ------------------------------------------------------------------
    # Recording (request path)
    # ------------------------------------------------------------------
    def record(self, x_values, y_values, rule_indices) -> None:
        """Accumulate one successfully scored request.

        ``x_values``/``y_values`` are the (NaN-free — the scorer already
        rejected NaN) input coordinates, ``rule_indices`` the per-point
        rule indices the scorer returned (``-1`` for the fallback).
        """
        x_bins = y_bins = None
        out_x = out_y = 0
        if self.has_reference:
            x = np.asarray(x_values, dtype=np.float64)
            y = np.asarray(y_values, dtype=np.float64)
            x_edges = self._x_layout.edges
            y_edges = self._y_layout.edges
            # Out-of-range is detected before assignment: .assign()
            # clamps, which is what we want for the drift comparison,
            # but the clamp must not hide range escapes.
            out_x = int(np.count_nonzero(
                (x < x_edges[0]) | (x > x_edges[-1])
            ))
            out_y = int(np.count_nonzero(
                (y < y_edges[0]) | (y > y_edges[-1])
            ))
            x_bins = self._x_layout.assign(x)
            y_bins = self._y_layout.assign(y)
        now = self._clock()
        with self._lock:
            rotated = self._rotate_if_due(now)
            self._current.add(x_bins, y_bins, rule_indices, out_x, out_y)
        if rotated:
            # Refresh gauges and alert state at the window boundary so
            # metrics-only consumers see drift move without /stats.
            self.stats()

    def record_point(self, x: float, y: float, rule_index: int) -> None:
        """:meth:`record` for a one-point request, in plain Python.

        The bin is ``bisect_right(edges, v) - 1`` clipped to the grid,
        which is what :meth:`BinLayout.assign` computes, and the range
        escape is two comparisons; the window is counted into by
        :meth:`TrafficWindow.add_point`.  It leaves the same state as
        ``record([x], [y], [rule_index])``.
        """
        x_bin = y_bin = None
        out_x = out_y = 0
        x_edges, y_edges = self._x_edge_list, self._y_edge_list
        if x_edges is not None:
            out_x = 1 if x < x_edges[0] or x > x_edges[-1] else 0
            out_y = 1 if y < y_edges[0] or y > y_edges[-1] else 0
            x_bin = min(max(bisect_right(x_edges, x) - 1, 0), self._n_x - 1)
            y_bin = min(max(bisect_right(y_edges, y) - 1, 0), self._n_y - 1)
        now = self._clock()
        with self._lock:
            rotated = self._rotate_if_due(now)
            self._current.add_point(x_bin, y_bin, rule_index, out_x, out_y)
        if rotated:
            self.stats()

    def _rotate_if_due(self, now: float) -> bool:
        """Close an expired current window into the ring (under
        ``self._lock``); whether it did."""
        if now - self._current.opened < self.window_seconds:
            return False
        self._ring.append(self._current)
        self._current = TrafficWindow(
            self._n_x, self._n_y, self.n_rules, opened=now
        )
        return True

    # ------------------------------------------------------------------
    # Reading (/stats path)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The JSON-ready monitoring block for this model.

        Also publishes the drift/coverage gauges and emits
        ``drift_alert`` events on PSI threshold crossings.
        """
        now = self._clock()
        with self._lock:
            self._rotate_if_due(now)
            current = self._current.copy()
            retained = [window.copy() for window in self._ring]
        recent = TrafficWindow.merged(retained + [current])
        payload = {
            "model": self.name,
            "id": self.model_id,
            "x_attribute": self.x_attribute,
            "y_attribute": self.y_attribute,
            "window_seconds": self.window_seconds,
            "window_count": self.window_count,
            "windows_retained": len(retained),
            "psi_alert_threshold": self.psi_alert,
            "reference": self._reference_block(),
            "current": self._window_stats(current),
            "recent": self._window_stats(recent, include_counts=True),
        }
        self._publish(payload["recent"])
        return payload

    def _reference_block(self) -> dict:
        if not self.has_reference:
            return {"available": False}
        reference = self.reference
        return {
            "available": True,
            "n_total": reference.n_total,
            "grid": [reference.n_x, reference.n_y],
            "x_edges": reference.x_edges.tolist(),
            "y_edges": reference.y_edges.tolist(),
        }

    def _window_stats(self, window: TrafficWindow,
                      include_counts: bool = False) -> dict:
        stats = {
            "requests": window.requests,
            "points": window.points,
            "fallback_points": window.fallback_points,
            "coverage_fraction": window.coverage_fraction,
            "rule_hits": window.rule_hits[1:].tolist(),
            "out_of_range": None,
            "drift_psi": None,
            "drift_js": None,
        }
        if self.has_reference and window.points > 0:
            reference = self.reference
            stats["out_of_range"] = {
                self.x_attribute: window.out_of_range_x / window.points,
                self.y_attribute: window.out_of_range_y / window.points,
            }
            stats["drift_psi"] = {
                self.x_attribute: psi(reference.x_counts,
                                      window.x_counts),
                self.y_attribute: psi(reference.y_counts,
                                      window.y_counts),
                "joint": psi(reference.totals, window.totals),
            }
            stats["drift_js"] = {
                self.x_attribute: js_divergence(reference.x_counts,
                                                window.x_counts),
                self.y_attribute: js_divergence(reference.y_counts,
                                                window.y_counts),
                "joint": js_divergence(reference.totals, window.totals),
            }
        if include_counts and window.has_grid:
            stats["x_counts"] = window.x_counts.tolist()
            stats["y_counts"] = window.y_counts.tolist()
            stats["totals"] = window.totals.tolist()
        return stats

    def _publish(self, recent: dict) -> None:
        """Update gauges from a ``recent`` stats block and emit alert
        transitions."""
        coverage = recent["coverage_fraction"]
        if coverage is not None:
            metrics.set_gauge("serve.coverage_fraction", coverage,
                              labels={"model": self.name})
        drift_psi = recent["drift_psi"]
        if drift_psi is None:
            return
        for attr, value in drift_psi.items():
            metrics.set_gauge("serve.drift_psi", value,
                              labels={"attr": attr, "model": self.name})
        for attr, value in recent["drift_js"].items():
            metrics.set_gauge("serve.drift_js", value,
                              labels={"attr": attr, "model": self.name})
        for attr, fraction in recent["out_of_range"].items():
            metrics.set_gauge("serve.out_of_range", fraction,
                              labels={"attr": attr, "model": self.name})
        alerts = {
            attr: value >= self.psi_alert
            for attr, value in drift_psi.items()
        }
        with self._lock:
            previous = self._alerts
            self._alerts = alerts
        for attr, alerting in alerts.items():
            if alerting == previous.get(attr, False):
                continue
            events.emit(
                "drift_alert",
                model=self.name,
                model_id=self.model_id,
                attribute=attr,
                psi=drift_psi[attr],
                threshold=self.psi_alert,
                state="alert" if alerting else "cleared",
            )
            logger.warning(
                "drift %s for %s attribute %r: PSI %.4f (threshold %g)",
                "alert" if alerting else "cleared",
                self.name, attr, drift_psi[attr], self.psi_alert,
            )


class TrafficMonitors:
    """Per-model monitors keyed by content hash (thread-safe).

    A hot reload that changes an artefact changes its content hash, so
    the changed model transparently gets a fresh monitor; monitors for
    models no longer served are dropped by :meth:`prune`.
    """

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 window_count: int = DEFAULT_WINDOW_COUNT,
                 psi_alert: float = DEFAULT_PSI_ALERT,
                 clock=perf_counter):
        self.window_seconds = float(window_seconds)
        self.window_count = int(window_count)
        self.psi_alert = float(psi_alert)
        self._clock = clock
        self._lock = threading.Lock()
        self._monitors: dict[str, TrafficMonitor] = {}

    def for_model(self, model: ServedModel) -> TrafficMonitor:
        """The monitor for ``model``, created on first sight."""
        monitor = self._monitors.get(model.model_id)
        if monitor is not None:
            return monitor
        with self._lock:
            monitor = self._monitors.get(model.model_id)
            if monitor is None:
                segmentation = model.segmentation
                monitor = TrafficMonitor(
                    model_id=model.model_id,
                    name=model.name,
                    x_attribute=segmentation.x_attribute,
                    y_attribute=segmentation.y_attribute,
                    n_rules=len(segmentation),
                    reference=model.reference,
                    window_seconds=self.window_seconds,
                    window_count=self.window_count,
                    psi_alert=self.psi_alert,
                    clock=self._clock,
                )
                self._monitors[model.model_id] = monitor
            return monitor

    def prune(self, active_ids: set[str]) -> None:
        """Drop monitors for models no longer in the registry."""
        with self._lock:
            if set(self._monitors) <= active_ids:
                return
            self._monitors = {
                model_id: monitor
                for model_id, monitor in self._monitors.items()
                if model_id in active_ids
            }

    def __len__(self) -> int:
        return len(self._monitors)
