"""Run reports: one machine-readable record per instrumented run.

:class:`RunCapture` brackets a run (``ARCS.fit``, ``fit_all``, a CLI
``remine`` ...): it installs a root tracing span and a fresh per-run
metrics registry, and on exit assembles a :class:`RunReport` — the span
tree, the run's metrics snapshot and a config fingerprint — which the
pipeline attaches to its result objects and the CLI serializes with
``--metrics-out``.

Captures nest: an ``optimizer.search`` capture opened inside an
``arcs.fit`` capture degrades to a child span of the outer run, so a run
yields exactly one report covering everything.  When observability is
disabled the capture is inert and costs two context-variable operations.

Everything here is stdlib-only (``json``, ``time``, ``hashlib``,
``dataclasses``, ``contextvars``) so importing the obs layer never pulls
in heavy dependencies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextvars import ContextVar
from pathlib import Path

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

__all__ = ["RunReport", "RunCapture", "config_fingerprint"]

#: Identifies report JSON files (mirrors repro.persistence's format tags).
REPORT_FORMAT = "arcs-run-report"
REPORT_VERSION = 1


def config_fingerprint(config) -> dict:
    """A JSON-ready ``{"values": ..., "sha256": ...}`` pair for a config.

    Accepts a dataclass, a mapping, or any JSON-serializable value;
    non-serializable leaves are stringified.  The digest is computed over
    the canonical (sorted-key) JSON, so two runs with identical
    configuration produce identical fingerprints across processes.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        values = dataclasses.asdict(config)
    elif isinstance(config, dict):
        values = dict(config)
    else:
        values = {"value": config}
    canonical = json.dumps(values, sort_keys=True, default=str)
    return {
        "values": json.loads(
            json.dumps(values, default=str)
        ),
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


@dataclasses.dataclass
class RunReport:
    """The machine-readable record of one instrumented run.

    Attributes
    ----------
    name:
        The run's root span name (``"arcs.fit"``, ``"cli.remine"``...).
    started_at:
        Wall-clock start (``time.time()``), for correlating runs.
    duration_seconds:
        Total run time from the monotonic clock.
    config:
        The :func:`config_fingerprint` of the run's configuration.
    trace:
        The serialized span tree (``None`` when tracing was disabled).
    metrics:
        The per-run metrics snapshot (empty when metrics were disabled).
    """

    name: str
    started_at: float
    duration_seconds: float
    config: dict = dataclasses.field(default_factory=dict)
    trace: dict | None = None
    metrics: dict = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def span_tree(self) -> "_tracing.Span | None":
        """The run's root span, rebuilt from the serialized tree."""
        if self.trace is None:
            return None
        return _tracing.Span.from_dict(self.trace)

    def self_seconds(self) -> dict[str, float]:
        """Span self time summed by span name, never below zero.

        A span's self time is its duration minus its children's.  The
        search helper's trial spans ran beside the fit process's own,
        so an ``optimizer.search`` span's children can add up to more
        than its duration; its self time then reads zero
        (:attr:`~repro.obs.tracing.Span.self_seconds`).
        """
        root = self.span_tree()
        totals: dict[str, float] = {}
        if root is not None:
            for _, span in root.walk():
                totals[span.name] = (totals.get(span.name, 0.0)
                                     + span.self_seconds)
        return totals

    def counters(self) -> dict:
        return self.metrics.get("counters", {})

    def gauges(self) -> dict:
        return self.metrics.get("gauges", {})

    def histograms(self) -> dict:
        return self.metrics.get("histograms", {})

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "name": self.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "config": self.config,
            "trace": self.trace,
            "metrics": self.metrics,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        if payload.get("format") != REPORT_FORMAT:
            raise ValueError(
                f"not a run report (format={payload.get('format')!r})"
            )
        return cls(
            name=payload["name"],
            started_at=payload["started_at"],
            duration_seconds=payload["duration_seconds"],
            config=payload.get("config", {}),
            trace=payload.get("trace"),
            metrics=payload.get("metrics", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def to_prometheus(self) -> str:
        """The report's metrics in the Prometheus text format.

        Empty snapshot (metrics were disabled) renders as an empty
        exposition, which scrapers accept.
        """
        from repro.obs.prometheus import render_prometheus

        return render_prometheus(self.metrics)

    def write(self, path) -> None:
        """Serialize to ``path`` as indented JSON."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def read(cls, path) -> "RunReport":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    # ASCII summary (the CLI's --trace output)
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """An aligned terminal summary: spans by name, then metrics."""
        from repro.viz.report import format_table

        parts = [
            f"run {self.name}: {self.duration_seconds:.3f}s "
            f"(config sha256 {self.config.get('sha256', '-')[:12]})"
        ]
        root = self.span_tree()
        if root is not None:
            aggregated: dict[str, list[float]] = {}
            order: list[str] = []
            for depth, span in root.walk():
                key = "  " * depth + span.name
                if key not in aggregated:
                    aggregated[key] = [0, 0.0, 0.0]
                    order.append(key)
                aggregated[key][0] += 1
                aggregated[key][1] += span.duration or 0.0
                aggregated[key][2] += span.self_seconds
            total = self.duration_seconds or 1.0
            # format_table right-justifies; pad names so the tree
            # indentation survives alignment.
            width = max(len(key) for key in order)
            rows = [
                [key.ljust(width), aggregated[key][0],
                 f"{aggregated[key][1]:.4f}",
                 f"{aggregated[key][2]:.4f}",
                 f"{100.0 * aggregated[key][1] / total:.1f}%"]
                for key in order
            ]
            parts.append("")
            parts.append(
                format_table(["span", "calls", "total (s)", "self (s)",
                              "of run"], rows)
            )
        counters = self.counters()
        if counters:
            parts.append("")
            parts.append(format_table(
                ["counter", "value"],
                [[name, value] for name, value in counters.items()],
            ))
        gauges = self.gauges()
        if gauges:
            parts.append("")
            parts.append(format_table(
                ["gauge", "value"],
                [[name, value] for name, value in gauges.items()],
            ))
        histograms = self.histograms()
        if histograms:
            parts.append("")
            parts.append(format_table(
                ["histogram", "count", "mean", "min", "max"],
                [
                    [name, h["count"], h["mean"],
                     "-" if h["min"] is None else h["min"],
                     "-" if h["max"] is None else h["max"]]
                    for name, h in histograms.items()
                ],
            ))
        return "\n".join(parts)


#: The innermost live capture (nesting detection); independent of the
#: tracing context so metrics-only runs nest correctly too.
_active_capture: ContextVar["RunCapture | None"] = ContextVar(
    "repro_obs_active_capture", default=None
)


class RunCapture:
    """Context manager bracketing one instrumented run.

    ``capture.report`` is populated on exit when observability was
    enabled and this was the outermost capture; otherwise it stays
    ``None`` (nested captures contribute a child span to the enclosing
    run instead of producing their own report).
    """

    def __init__(self, name: str, config=None):
        self.name = name
        self.config = config
        self.report: RunReport | None = None
        self._token = None
        self._outer: RunCapture | None = None
        self._root: _tracing.Span | None = None
        self._child = None
        self._registry: _metrics.MetricsRegistry | None = None
        self._previous_registry: _metrics.MetricsRegistry | None = None
        self._started_at = 0.0
        self._perf_start = 0.0

    @property
    def span(self):
        """The span this capture records: its root span, or its child
        span in an enclosing run; a no-op span when tracing is off."""
        if self._child is not None:
            return self._child
        if self._root is not None:
            return self._root
        return _tracing.NOOP_SPAN

    def __enter__(self) -> "RunCapture":
        self._outer = _active_capture.get()
        self._token = _active_capture.set(self)
        if self._outer is not None:
            # Nested run: record a child span in the enclosing trace.
            self._child = _tracing.trace(self.name)
            self._child.__enter__()
            return self
        if _tracing.enabled():
            self._root = _tracing.Span(self.name)
            self._root.__enter__()
        if _metrics.enabled():
            self._registry = _metrics.MetricsRegistry()
            self._previous_registry = _metrics.swap_registry(
                self._registry
            )
        self._started_at = time.time()  # wall-clock: ok (run timestamp)
        self._perf_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active_capture.reset(self._token)
        if self._child is not None:
            self._child.__exit__(exc_type, exc, tb)
            return False
        duration = time.perf_counter() - self._perf_start
        if self._root is not None:
            self._root.__exit__(exc_type, exc, tb)
        snapshot: dict = {}
        if self._registry is not None:
            snapshot = self._registry.snapshot()
            _metrics.swap_registry(self._previous_registry)
            if self._previous_registry is not None:
                # Keep process-wide totals accumulating across runs.
                self._previous_registry.merge(self._registry)
        if self._root is not None or snapshot:
            self.report = RunReport(
                name=self.name,
                started_at=self._started_at,
                duration_seconds=(
                    self._root.duration if self._root is not None
                    else duration
                ),
                config=config_fingerprint(self.config)
                if self.config is not None else {},
                trace=(
                    self._root.to_dict() if self._root is not None
                    else None
                ),
                metrics=snapshot,
            )
            self._emit_events(exc_type)
        return False

    def _emit_events(self, exc_type) -> None:
        """Log the finished run to the event sink, if one is installed.

        One ``run`` event for the capture itself, then one ``stage``
        event per top-level pipeline span — enough to reconstruct the
        run's shape from the event log alone without parsing the full
        span tree.
        """
        from repro.obs import events as _events

        if not _events.events_enabled() or self.report is None:
            return
        report = self.report
        _events.emit(
            "run",
            name=report.name,
            duration_seconds=report.duration_seconds,
            config_sha256=report.config.get("sha256"),
            error=exc_type.__name__ if exc_type is not None else None,
        )
        root = report.span_tree()
        if root is None:
            return
        for stage in root.children:
            _events.emit(
                "stage",
                run=report.name,
                stage=stage.name,
                duration_seconds=stage.duration,
                **{f"attr_{k}": v for k, v in stage.attributes.items()},
            )
