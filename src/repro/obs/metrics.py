"""Process-local metrics: named counters, gauges and histograms.

The pipeline reports *what happened* through a small fixed vocabulary of
named instruments (see ``docs/observability.md`` for the catalogue):

* **counters** — monotonically increasing totals
  (``binner.tuples_binned``, ``optimizer.trials``);
* **gauges** — last-written values (``binner.occupancy_fraction``);
* **histograms** — count/total/min/max summaries of a value stream plus
  fixed cumulative buckets, so p50/p95/p99 can be estimated
  (``serve.request_seconds``).

Instruments may carry **labels** — a small ``{key: value}`` mapping that
splits one logical metric into independent series, Prometheus-style
(``serve.request_seconds{endpoint="predict"}``).  Each distinct label
combination is its own instrument; snapshots flatten the series into
``name{key="value",...}`` keys (sorted by label key, values escaped), a
format :func:`parse_series_key` round-trips.

Metrics are **off by default**.  Instrumented code calls the module
helpers :func:`inc`, :func:`set_gauge` and :func:`observe`, which are a
single global read plus ``None`` check when disabled — cheap enough to
leave in hot paths.  :func:`enable` installs a process-global
:class:`MetricsRegistry`; the capture layer temporarily swaps in a fresh
per-run registry so a :class:`~repro.obs.report.RunReport` contains
exactly one run's numbers, then merges them back so process totals keep
accumulating.  :meth:`MetricsRegistry.merge_snapshot` absorbs a
snapshot produced in *another process* (the parallel verifier's workers
ship their per-block snapshots back over the pool).

The registry is guarded by a lock (instrument creation and snapshot);
individual updates rely on the GIL like every mainstream Python metrics
client, which is sufficient for ``+=`` on ints/floats.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enable",
    "disable",
    "enabled",
    "active",
    "swap_registry",
    "reinit_after_fork",
    "inc",
    "set_gauge",
    "observe",
    "parse_series_key",
    "series_key",
]

#: Default histogram bucket upper bounds (seconds-flavoured, the
#: Prometheus client default); an implicit +Inf bucket is always last.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _unescape_label(value: str) -> str:
    return (value.replace(r"\n", "\n").replace(r"\"", '"')
            .replace(r"\\", "\\"))


def series_key(name: str, labels: dict | None = None) -> str:
    """The flattened ``name{key="value",...}`` snapshot key of a series.

    Labels are sorted by key and values escaped, so equal label sets
    always produce the same key; a label-less series is just ``name``.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


_SERIES_RE = re.compile(r"\A(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?\Z")
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
                       r'"(?P<value>(?:[^"\\]|\\.)*)"')


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a flattened snapshot key back into ``(name, labels)``."""
    match = _SERIES_RE.match(key)
    if match is None:
        return key, {}
    raw = match.group("labels")
    if raw is None:
        return match.group("name"), {}
    labels = {
        found.group("key"): _unescape_label(found.group("value"))
        for found in _LABEL_RE.finditer(raw)
    }
    return match.group("name"), labels


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A streaming summary of observed values with fixed buckets.

    Alongside count/total/min/max, every observation lands in one of the
    fixed buckets (``value <= bound``, implicit +Inf last), which is
    enough to estimate quantiles by linear interpolation within the
    bucket holding the target rank — the same estimator as PromQL's
    ``histogram_quantile``, bounded by the observed min/max at the
    edges.
    """

    __slots__ = ("name", "labels", "count", "total", "minimum", "maximum",
                 "buckets", "bucket_counts")

    def __init__(self, name: str, labels: dict | None = None,
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        bounds = DEFAULT_BUCKETS if buckets is None else tuple(buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must strictly increase")
        self.buckets: tuple[float, ...] = bounds
        #: Per-bucket (non-cumulative) counts; last slot is +Inf.
        self.bucket_counts: list[int] = [0] * (len(bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0.0
        for index, bucket in enumerate(self.bucket_counts):
            if not bucket:
                continue
            previous = running
            running += bucket
            if running < rank:
                continue
            low = (self.minimum if index == 0
                   else self.buckets[index - 1])
            high = (self.maximum if index == len(self.buckets)
                    else self.buckets[index])
            low = max(low, self.minimum)
            high = min(high, self.maximum)
            if high <= low:
                return high
            return low + (high - low) * (rank - previous) / bucket
        return self.maximum if self.maximum is not None else 0.0

    def summary(self) -> dict:
        """The JSON-ready snapshot entry for this histogram."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "buckets": [
                [("+Inf" if bound == float("inf") else bound), cum]
                for bound, cum in self.cumulative_buckets()
            ],
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are keyed by :func:`series_key` — the metric name plus
    the sorted, escaped label set — so the same name with different
    labels yields independent series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str, labels: dict | None = None) -> Counter:
        key = series_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(name, labels)
            return instrument

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        key = series_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(name, labels)
            return instrument

    def histogram(self, name: str, labels: dict | None = None,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        key = series_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(
                    name, labels, buckets
                )
            return instrument

    # ------------------------------------------------------------------
    # Convenience emitters
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int | float = 1,
            labels: dict | None = None) -> None:
        self.counter(name, labels).inc(amount)

    def set_gauge(self, name: str, value: float,
                  labels: dict | None = None) -> None:
        self.gauge(name, labels).set(value)

    def observe(self, name: str, value: float,
                labels: dict | None = None) -> None:
        self.histogram(name, labels).observe(value)

    # ------------------------------------------------------------------
    # Snapshot / merge / reset
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {
                    key: c.value for key, c in sorted(
                        self._counters.items()
                    )
                },
                "gauges": {
                    key: g.value for key, g in sorted(
                        self._gauges.items()
                    )
                },
                "histograms": {
                    key: h.summary()
                    for key, h in sorted(self._histograms.items())
                },
            }

    def merge(self, other: "MetricsRegistry") -> None:
        """Absorb another registry: counters add, gauges take the other's
        value, histograms combine summaries and bucket counts."""
        self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snapshot: dict,
                       relabel_gauges: dict | None = None) -> None:
        """Absorb a :meth:`snapshot` payload, possibly from another
        process (the parallel verifier ships worker snapshots back over
        the pool).  Histograms with explicit buckets merge per bucket
        and require both sides to share the same bounds; bucket-less
        summaries (older payloads) merge count/total/min/max only.

        Gauges never sum — a merged gauge overwrites (last wins), which
        is wrong across *distinct sources* (two workers' loaded-model
        counts are independent readings, not one).  ``relabel_gauges``
        adds the given labels to every incoming gauge so each source
        lands on its own series (``serve.models_loaded{worker="0"}``)
        instead of clobbering a peer's value; the fleet aggregator
        passes ``{"worker": str(index)}``."""
        for key, value in snapshot.get("counters", {}).items():
            name, labels = parse_series_key(key)
            self.counter(name, labels).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = parse_series_key(key)
            if relabel_gauges:
                labels = {**labels, **relabel_gauges}
            self.gauge(name, labels).set(value)
        for key, summary in snapshot.get("histograms", {}).items():
            name, labels = parse_series_key(key)
            theirs_buckets = summary.get("buckets")
            bounds = None
            if theirs_buckets:
                bounds = tuple(
                    float("inf") if entry[0] == "+Inf" else entry[0]
                    for entry in theirs_buckets
                )[:-1]
            histogram = self.histogram(name, labels, bounds)
            histogram.count += summary["count"]
            histogram.total += summary["total"]
            for bound, pick in (("min", min), ("max", max)):
                theirs = summary[bound]
                if theirs is None:
                    continue
                attr = "minimum" if bound == "min" else "maximum"
                ours = getattr(histogram, attr)
                merged = theirs if ours is None else pick(ours, theirs)
                setattr(histogram, attr, merged)
            if bounds is None:
                continue
            if bounds != histogram.buckets:
                raise ValueError(
                    f"cannot merge histogram {key!r}: bucket bounds "
                    f"differ ({bounds} vs {histogram.buckets})"
                )
            previous = 0
            for index, (_, cumulative) in enumerate(theirs_buckets):
                histogram.bucket_counts[index] += cumulative - previous
                previous = cumulative

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived processes)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The active registry; ``None`` means metrics are disabled and every
#: module-level emitter is a no-op.
_active: MetricsRegistry | None = None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) the process-global registry."""
    global _active
    if registry is None:
        registry = _active if _active is not None else MetricsRegistry()
    _active = registry
    return registry


def disable() -> None:
    """Disable metrics collection; emitters become no-ops."""
    global _active
    _active = None


def enabled() -> bool:
    """Whether a registry is installed (metrics are being collected)."""
    return _active is not None


def active() -> MetricsRegistry | None:
    """The currently installed registry, or ``None`` when disabled."""
    return _active


def swap_registry(
    registry: MetricsRegistry | None,
) -> MetricsRegistry | None:
    """Atomically replace the active registry, returning the previous
    one.  The capture layer uses this to scope metrics to a run."""
    global _active
    previous = _active
    _active = registry
    return previous


def reinit_after_fork() -> None:
    """Give the active registry a fresh lock (forked children only).

    A thread in the parent may hold the registry lock at ``fork`` time;
    the child's inherited copy would then be locked forever with no
    owning thread, deadlocking the child's first emit.  Registered as
    an ``os.register_at_fork`` child hook by the multi-process serving
    front end (:mod:`repro.serve.workers`).
    """
    registry = _active
    if registry is not None:
        registry._lock = threading.Lock()


# ----------------------------------------------------------------------
# Hot-path emitters: one global read + None check when disabled.
# ----------------------------------------------------------------------
def inc(name: str, amount: int | float = 1,
        labels: dict | None = None) -> None:
    """Increment a counter on the active registry, if any."""
    registry = _active
    if registry is not None:
        registry.inc(name, amount, labels)


def set_gauge(name: str, value: float,
              labels: dict | None = None) -> None:
    """Set a gauge on the active registry, if any."""
    registry = _active
    if registry is not None:
        registry.set_gauge(name, value, labels)


def observe(name: str, value: float,
            labels: dict | None = None) -> None:
    """Record a histogram observation on the active registry, if any."""
    registry = _active
    if registry is not None:
        registry.observe(name, value, labels)
