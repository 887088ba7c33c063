"""Observability for the ARCS pipeline: tracing, metrics, run reports.

Three small, stdlib-only layers the rest of the codebase imports:

* :mod:`repro.obs.tracing` — nestable, thread-safe :class:`Span` trees
  opened with :func:`trace`, timing every pipeline stage of a run;
* :mod:`repro.obs.metrics` — a process-local registry of named
  counters/gauges/histograms fed through :func:`~repro.obs.metrics.inc`
  and friends;
* :mod:`repro.obs.report` — :class:`RunCapture` brackets one run and
  produces a :class:`RunReport` (span tree + metrics snapshot + config
  fingerprint) that serializes to JSON and renders an ASCII summary.

Layered on top of those three:

* :mod:`repro.obs.prometheus` — renders any metrics snapshot in the
  Prometheus text exposition format (and ships a tiny validating
  parser for tests and smoke jobs);
* :mod:`repro.obs.events` — structured JSONL event logs with
  size-capped rotation;
* :mod:`repro.obs.trace_export` — span trees as Chrome trace-event
  JSON, loadable in Perfetto;
* :mod:`repro.obs.profiler` — a stdlib sampling profiler emitting
  collapsed (flamegraph) stacks.

Everything is **disabled by default** and each instrumentation point
degrades to a global read plus ``None``/branch check, so an
uninstrumented process pays nothing measurable.  Turn collection on
with::

    from repro import obs

    obs.enable()
    result = repro.ARCS().fit(table, "age", "salary", "group", "A")
    print(result.run_report.summary())
    result.run_report.write("report.json")

or from the CLI with ``--trace`` / ``--metrics-out PATH``.
"""

from __future__ import annotations

from repro.obs import events, metrics, tracing
from repro.obs.events import EventSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import SamplingProfiler
from repro.obs.prometheus import parse_prometheus, render_prometheus
from repro.obs.report import RunCapture, RunReport, config_fingerprint
from repro.obs.trace_export import chrome_trace, write_chrome_trace
from repro.obs.tracing import Span, current_span, trace

__all__ = [
    "EventSink",
    "MetricsRegistry",
    "RunCapture",
    "RunReport",
    "SamplingProfiler",
    "Span",
    "chrome_trace",
    "config_fingerprint",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "events",
    "metrics",
    "parse_prometheus",
    "render_prometheus",
    "trace",
    "tracing",
    "write_chrome_trace",
]


def enable(*, trace_spans: bool = True,
           collect_metrics: bool = True) -> None:
    """Turn observability on (both layers by default)."""
    if trace_spans:
        tracing.enable()
    if collect_metrics:
        metrics.enable()


def disable() -> None:
    """Turn both layers off; instrumentation reverts to no-ops."""
    tracing.disable()
    metrics.disable()


def enabled() -> bool:
    """Whether any observability layer is currently enabled."""
    return tracing.enabled() or metrics.enabled()
