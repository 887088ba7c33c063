"""The prediction service: endpoint logic plus the HTTP layer.

Two halves, separable for testing:

* :class:`PredictionService` — the transport-free endpoint logic.  Each
  method takes/returns plain dicts, raises :class:`ServiceError` with
  an HTTP status for bad requests, and is instrumented with the
  ``serve.*`` counters and histograms (catalogue in
  ``docs/observability.md``).  Unit tests drive this directly.
* :class:`PredictionServer` / :class:`PredictionHandler` — a
  stdlib-only threaded HTTP front (``http.server.ThreadingHTTPServer``)
  that parses JSON bodies, maps :class:`ServiceError` to status codes
  and logs through the module logger instead of printing.

Endpoints::

    GET  /healthz        liveness + model count + worker identity
    GET  /models         registry listing with artefact metadata
    GET  /metrics        metrics (JSON, or Prometheus text via
                         ?format=prometheus / an Accept: text/plain);
                         under the multi-process server this serves the
                         published *fleet* aggregate by default —
                         ?scope=local forces this process's own view
    GET  /fleet          fleet lifecycle surface: per-worker pid,
                         uptime, spawn generation, restart count,
                         served models, snapshot age and drain state
    GET  /stats          model observability: windowed traffic drift
                         (PSI + JS per attribute), segment coverage and
                         out-of-range fractions per model
    GET  /debug/profile  sample the process for ?seconds=N, return
                         collapsed (flamegraph) stacks
    POST /predict        {"model", "x", "y"} -> segment membership
    POST /predict_batch  {"model", "x": [...], "y": [...]} -> arrays
    POST /explain        {"model", "x", "y"} -> the rule that fired

Every successfully scored input is also fed to the per-model
:class:`~repro.serve.monitor.TrafficMonitor`, which re-bins it into the
model's training grid and maintains the drift/coverage state behind
``/stats`` (see ``docs/observability.md``).  Monitor bookkeeping never
fails a prediction: recording errors are logged and swallowed.

Models resolve by content-hash id or by name; resolution triggers the
registry's rate-limited hot-reload check, and an in-flight request
keeps the :class:`~repro.serve.registry.ServedModel` it resolved even
if a reload swaps the snapshot mid-request.  When tracing is enabled
(``repro.obs``), every request is bracketed by a ``serve.<endpoint>``
span; handler threads have no ambient run capture, so these are
recorded as self-contained root spans in a bounded ring buffer
(:attr:`PredictionService.recent_spans`).
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from urllib.parse import parse_qs

import numpy as np

from repro.obs import events, metrics, tracing
from repro.obs.profiler import profile_for
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus, render_registry
from repro.obs.tracing import Span
from repro.serve.monitor import TrafficMonitors
from repro.serve.registry import ModelRegistry, ServedModel
from repro.serve.scorer import CompiledScorer, ScoringError

logger = logging.getLogger(__name__)

__all__ = [
    "PredictionHandler",
    "PredictionServer",
    "PredictionService",
    "REQUEST_ID_HEADER",
    "ServiceError",
    "TextResponse",
]

#: Scoring calls allowed in flight at once per service; one more is
#: shed with HTTP 429 (``serve.shed_total{endpoint}``) instead of
#: queueing behind the others.
MAX_IN_FLIGHT = 256

#: Upper bound on one ``/debug/profile`` sampling window; keeps a typo'd
#: ``seconds=`` from parking a handler thread for an hour.
MAX_PROFILE_SECONDS = 30.0

#: The request-id correlation header: echoed on every response, and the
#: same value lands in the request's access-log/``drift_alert``/``shed``
#: events (see :mod:`repro.obs.events`).
REQUEST_ID_HEADER = "X-Arcs-Request-Id"

#: Client-supplied request ids are honoured only in this shape — one
#: log-safe token, so a header cannot smuggle newlines or JSON into the
#: event stream.
_REQUEST_ID_RE = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")


def _request_id_for(inbound: str | None) -> str:
    """The request id to use: a sane client-supplied one, else fresh.

    A fresh id is 64 random bits as 16 hex digits, drawn from the
    stdlib :mod:`random` generator, which is several times cheaper
    than ``uuid4`` per request.  Ids are random, not derived from the
    request: serving sits outside the pipeline's determinism boundary,
    and uniqueness across N workers is the property correlation needs.
    The stdlib reseeds :mod:`random` in every forked child, so pre-fork
    workers do not draw the same sequence.
    """
    if inbound and _REQUEST_ID_RE.match(inbound):
        return inbound
    return f"{random.getrandbits(64):016x}"


class ServiceError(Exception):
    """A client-visible failure with its HTTP status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class TextResponse:
    """A plain-text endpoint body carrying its own content type.

    Endpoints normally return dicts that the HTTP layer serializes as
    JSON; the Prometheus exposition and the profiler's collapsed stacks
    are text formats, so those endpoints return one of these instead.
    """

    __slots__ = ("text", "content_type")

    def __init__(self, text: str,
                 content_type: str = "text/plain; charset=utf-8"):
        self.text = text
        self.content_type = content_type


def _require(payload: dict, key: str):
    if not isinstance(payload, dict) or key not in payload:
        raise ServiceError(400, f"missing required field {key!r}")
    return payload[key]


def _is_number_type(kind: type) -> bool:
    """JSON numbers only: ``bool`` is an ``int`` subclass, not a number."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _number(payload: dict, key: str) -> float:
    value = _require(payload, key)
    if not _is_number_type(type(value)):
        raise ServiceError(400, f"field {key!r} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float64
        raise ServiceError(
            400, f"field {key!r} is out of the float64 range"
        ) from None


def _number_array(payload: dict, key: str) -> np.ndarray:
    value = _require(payload, key)
    # One pass over the elements collects their distinct types.
    if not isinstance(value, list) or not all(
            map(_is_number_type, set(map(type, value)))):
        raise ServiceError(400, f"field {key!r} must be a list of numbers")
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer literal beyond float64
        raise ServiceError(
            400, f"field {key!r} holds a number out of the float64 range"
        ) from None


def _interval_dict(interval) -> dict:
    return {
        "low": interval.low,
        "high": interval.high,
        "closed_high": interval.closed_high,
    }


def _compile_for(model: ServedModel) -> CompiledScorer:
    """A model's scorer, compiled once when the registry loaded it."""
    return model.scorer


class PredictionService:
    """Endpoint logic over a :class:`ModelRegistry` (transport-free).

    At most :data:`MAX_IN_FLIGHT` scoring calls run at once; the next
    is shed with 429.  The threaded server and every pre-fork worker
    (:mod:`repro.serve.workers`) run this same class over their own
    registry.
    """

    def __init__(self, registry: ModelRegistry,
                 recent_span_limit: int = 64,
                 monitors: TrafficMonitors | None = None,
                 fleet_view=None):
        self.registry = registry
        self.started = perf_counter()
        #: Per-request root spans when tracing is enabled (ring buffer).
        self.recent_spans: deque[Span] = deque(maxlen=recent_span_limit)
        #: Per-model traffic monitors behind /stats (injectable for
        #: tests that need a fake clock or tighter windows).
        self.monitors = (
            monitors if monitors is not None else TrafficMonitors()
        )
        self._in_flight = threading.BoundedSemaphore(MAX_IN_FLIGHT)
        #: ``ServedModel -> CompiledScorer``; tests substitute slow
        #: scorers through it.
        self.scorer_for = _compile_for
        #: Extra keys merged into /healthz (worker identity etc.); set
        #: once before serving starts, read-only afterwards.
        self.health_extra: dict = {}
        #: Zero-argument callable returning the latest published fleet
        #: document (or ``None``); serve workers plug in
        #: :meth:`repro.obs.fleet.FleetView.read`.  ``None`` means this
        #: process *is* the whole fleet (threaded server).
        self.fleet_view = fleet_view
        self._draining = threading.Event()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting scoring work; in-flight requests complete.

        New ``/predict``/``/predict_batch``/``/explain`` calls are
        refused with 503 from this point on; read-only endpoints keep
        answering so orchestrators can watch the drain.  Idempotent.
        """
        if not self._draining.is_set():
            logger.info("drain started: scoring endpoints now return 503")
        self._draining.set()

    # ------------------------------------------------------------------
    # Model resolution
    # ------------------------------------------------------------------
    def _resolve(self, payload: dict) -> ServedModel:
        key = _require(payload, "model")
        if not isinstance(key, str):
            raise ServiceError(400, "field 'model' must be a string")
        self.registry.maybe_refresh()
        try:
            return self.registry.resolve(key)
        except KeyError as error:
            raise ServiceError(404, str(error.args[0])) from None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self, payload: dict | None = None) -> dict:
        self.registry.maybe_refresh()
        return {
            "status": "draining" if self.draining else "ok",
            "models": len(self.registry),
            "uptime_seconds": perf_counter() - self.started,
            **self.health_extra,
        }

    def models(self, payload: dict | None = None) -> dict:
        self.registry.maybe_refresh()
        return {
            "models": [
                model.describe() for model in self.registry.models()
            ],
        }

    def metrics_snapshot(
            self, payload: dict | None = None) -> dict | TextResponse:
        fmt = (payload or {}).get("format", "json")
        if fmt not in ("json", "prometheus"):
            raise ServiceError(
                400, f"unknown metrics format {fmt!r}; "
                     "expected 'json' or 'prometheus'"
            )
        scope = (payload or {}).get("scope", "fleet")
        if scope not in ("fleet", "local"):
            raise ServiceError(
                400, f"unknown metrics scope {scope!r}; "
                     "expected 'fleet' or 'local'"
            )
        # Under the multi-process server every worker serves the
        # parent's published aggregate, so a scrape reports the same
        # fleet-wide totals no matter which worker answered it.  Falls
        # back to the process-local registry before the first publish
        # (and always under the threaded server, where this process is
        # the whole fleet).
        document = (
            self.fleet_view() if scope == "fleet"
            and self.fleet_view is not None else None
        )
        if document is not None:
            snapshot = document.get("aggregate", {})
            if fmt == "prometheus":
                return TextResponse(render_prometheus(snapshot),
                                    PROMETHEUS_CONTENT_TYPE)
            return {
                "enabled": True,
                "scope": "fleet",
                "generation": document.get("generation"),
                "metrics": snapshot,
            }
        if fmt == "prometheus":
            return TextResponse(render_registry(),
                                PROMETHEUS_CONTENT_TYPE)
        registry = metrics.active()
        return {
            "enabled": registry is not None,
            "scope": "local",
            "metrics": registry.snapshot() if registry is not None
            else {},
        }

    def profile(self, payload: dict | None = None) -> TextResponse:
        """Sample the whole process and return collapsed stacks."""
        raw = (payload or {}).get("seconds", 1.0)
        try:
            seconds = float(raw)
        except (TypeError, ValueError):
            raise ServiceError(
                400, f"field 'seconds' must be a number, got {raw!r}"
            ) from None
        if seconds <= 0:
            raise ServiceError(400, "field 'seconds' must be positive")
        collapsed = profile_for(min(seconds, MAX_PROFILE_SECONDS))
        return TextResponse(collapsed or "# no samples collected\n")

    def stats(self, payload: dict | None = None) -> dict:
        """Model observability: drift, coverage and out-of-range state
        per served model over the monitor's tumbling windows."""
        self.registry.maybe_refresh()
        served = self.registry.models()
        self.monitors.prune({model.model_id for model in served})
        return {
            "uptime_seconds": perf_counter() - self.started,
            "models": {
                model.name: self.monitors.for_model(model).stats()
                for model in served
            },
        }

    def fleet(self, payload: dict | None = None) -> dict:
        """The fleet lifecycle surface (parent-published document).

        Under the multi-process server this is the parent's last
        published document — per-worker pid, uptime, spawn generation,
        restart count, served models, drain state and counter totals —
        with snapshot/publish ages computed at read time.  The threaded
        server (and a worker before the first publish) reports itself
        as a single-member fleet in ``mode: "process"``.
        """
        document = (
            self.fleet_view() if self.fleet_view is not None else None
        )
        if document is None:
            return {
                "mode": "process",
                "status": "draining" if self.draining else "ok",
                "workers": {
                    "0": {
                        "pid": os.getpid(),
                        "worker": events.worker_identity(),
                        "spawn_generation": 0,
                        "restarts": 0,
                        "uptime_seconds": perf_counter() - self.started,
                        "draining": self.draining,
                    },
                },
            }
        now = time.time()  # wall-clock: ok (age of published telemetry)
        workers = {}
        for index, entry in document.get("workers", {}).items():
            entry = dict(entry)
            shipped = entry.get("last_snapshot_unix")
            entry["last_snapshot_age_seconds"] = (
                max(now - shipped, 0.0) if shipped is not None else None
            )
            workers[index] = entry
        published = document.get("published_unix")
        return {
            "mode": "fleet",
            "generation": document.get("generation"),
            "published_unix": published,
            "published_age_seconds": (
                max(now - published, 0.0) if published is not None
                else None
            ),
            "last_publish_seconds": document.get("last_publish_seconds"),
            "snapshots_absorbed": document.get("snapshots_absorbed"),
            "workers": workers,
        }

    def predict(self, payload: dict) -> dict:
        model = self._resolve(payload)
        x, y = _number(payload, "x"), _number(payload, "y")
        index = self._score_one(model, x, y, "predict")
        self._record_point(model, x, y, index)
        return self._prediction(model, index)

    @staticmethod
    def _prediction(model: ServedModel, index: int) -> dict:
        return {
            "model": model.model_id,
            "name": model.name,
            "in_segment": index >= 0,
            "segment": (
                model.segmentation.rhs_value if index >= 0 else None
            ),
            "rule": index if index >= 0 else None,
        }

    def predict_batch(self, payload: dict) -> dict:
        model = self._resolve(payload)
        x = _number_array(payload, "x")
        y = _number_array(payload, "y")
        if len(x) != len(y):
            raise ServiceError(
                400, f"x and y batches differ in length: "
                     f"{len(x)} vs {len(y)}"
            )
        indices = self._score_arrays(model, x, y, "predict_batch")
        self._record_traffic(model, x, y, indices)
        return {
            "model": model.model_id,
            "name": model.name,
            "count": len(x),
            "in_segment": (indices >= 0).tolist(),
            "rule": indices.tolist(),
        }

    def explain(self, payload: dict) -> dict:
        model = self._resolve(payload)
        x, y = _number(payload, "x"), _number(payload, "y")
        index = self._score_one(model, x, y, "explain")
        self._record_point(model, x, y, index)
        response = self._prediction(model, index)
        if index >= 0:
            rule = model.segmentation.rules[index]
            response["explanation"] = {
                "index": index,
                "text": str(rule),
                "x_attribute": rule.x_attribute,
                "y_attribute": rule.y_attribute,
                "x_interval": _interval_dict(rule.x_interval),
                "y_interval": _interval_dict(rule.y_interval),
                "support": rule.support,
                "confidence": rule.confidence,
            }
        else:
            response["explanation"] = None
        return response

    def _score_one(self, model: ServedModel, x: float, y: float,
                   endpoint: str) -> int:
        """Score one point in plain Python (:meth:`CompiledScorer.score`)."""
        return self._bounded(model, endpoint,
                             self.scorer_for(model).score, x, y)

    def _score_arrays(self, model: ServedModel, x_values: np.ndarray,
                      y_values: np.ndarray,
                      endpoint: str) -> np.ndarray:
        """Score a batch (:meth:`CompiledScorer.score_batch`)."""
        return self._bounded(model, endpoint,
                             self.scorer_for(model).score_batch,
                             x_values, y_values)

    def _bounded(self, model: ServedModel, endpoint: str, score, *args):
        """Run one scoring call inline under the in-flight bound.

        Invalid input maps to 400; a call beyond :data:`MAX_IN_FLIGHT`
        concurrent ones is shed with 429 (counted in
        ``serve.shed_total{endpoint}``).
        """
        if not self._in_flight.acquire(blocking=False):
            metrics.inc("serve.shed_total", labels={"endpoint": endpoint})
            events.emit("shed", endpoint=endpoint, model=model.name)
            raise ServiceError(
                429, f"server is at its bound of {MAX_IN_FLIGHT} "
                     "in-flight scoring calls"
            )
        try:
            return score(*args)
        except ScoringError as error:  # NaN input
            raise ServiceError(400, str(error)) from None
        finally:
            self._in_flight.release()

    def _record_traffic(self, model: ServedModel, x_values, y_values,
                        rule_indices) -> None:
        """Feed a scored batch to the model's traffic monitor.

        Monitoring is bookkeeping: a failure here is logged and
        swallowed so it can never turn a served prediction into a 500.
        """
        try:
            self.monitors.for_model(model).record(
                x_values, y_values, rule_indices
            )
        except Exception:
            logger.exception(
                "traffic monitor recording failed for %s", model.name
            )

    def _record_point(self, model: ServedModel, x: float, y: float,
                      rule_index: int) -> None:
        """:meth:`_record_traffic` for one point, in plain Python."""
        try:
            self.monitors.for_model(model).record_point(x, y, rule_index)
        except Exception:
            logger.exception(
                "traffic monitor recording failed for %s", model.name
            )

    # ------------------------------------------------------------------
    # Instrumented dispatch (shared by HTTP and tests)
    # ------------------------------------------------------------------
    def dispatch(self, endpoint: str, payload: dict | None,
                 ) -> tuple[int, dict | TextResponse]:
        """Run one endpoint with metrics + an optional request span.

        Returns ``(status, body)``; service errors become their status
        with an ``{"error": ...}`` body, unexpected errors a 500.

        The request latency and error metrics are emitted from the
        innermost ``finally`` so that a failure in the *bookkeeping*
        itself (span ring buffer, event sink) can never lose the
        observation — they are logged and swallowed instead.
        """
        handler = _ENDPOINTS.get(endpoint)
        if handler is None:
            return 404, {"error": f"no such endpoint {endpoint!r}"}
        metrics.inc("serve.requests")
        metrics.inc(f"serve.requests_{endpoint}")
        started = perf_counter()
        span = (
            Span(f"serve.{endpoint}") if tracing.enabled() else None
        )
        if span is not None:
            span.__enter__()
        status = 500
        try:
            if (endpoint in _SCORING_ENDPOINTS
                    and self._draining.is_set()):
                raise ServiceError(
                    503, "server is draining; no new scoring work "
                         "accepted"
                )
            body = handler(self, payload)
            status = 200
            return status, body
        except ServiceError as error:
            status = error.status
            return status, {"error": error.message}
        except Exception:
            logger.exception("serve.%s failed", endpoint)
            return 500, {"error": "internal server error"}
        finally:
            elapsed = perf_counter() - started
            try:
                if span is not None:
                    span.set("status", status)
                    span.__exit__(None, None, None)
                    self.recent_spans.append(span)
                events.emit("request", endpoint=endpoint,
                            status=status, seconds=elapsed)
            except Exception:
                logger.exception(
                    "request bookkeeping failed for serve.%s", endpoint
                )
            finally:
                if status >= 400:
                    metrics.inc("serve.request_errors",
                                labels={"endpoint": endpoint})
                metrics.observe("serve.request_seconds", elapsed,
                                labels={"endpoint": endpoint})


#: The endpoints refused with 503 while draining (read-only endpoints
#: keep answering so orchestrators can watch the drain finish).
_SCORING_ENDPOINTS = frozenset({"predict", "predict_batch", "explain"})

#: Endpoint name -> bound-method dispatch table (GET entries take an
#: ignored payload so the dispatch signature is uniform).
_ENDPOINTS = {
    "healthz": PredictionService.healthz,
    "models": PredictionService.models,
    "metrics": PredictionService.metrics_snapshot,
    "stats": PredictionService.stats,
    "fleet": PredictionService.fleet,
    "profile": PredictionService.profile,
    "predict": PredictionService.predict,
    "predict_batch": PredictionService.predict_batch,
    "explain": PredictionService.explain,
}

_GET_ROUTES = {
    "/healthz": "healthz",
    "/models": "models",
    "/metrics": "metrics",
    "/stats": "stats",
    "/fleet": "fleet",
    "/debug/profile": "profile",
}

_POST_ROUTES = {
    "/predict": "predict",
    "/predict_batch": "predict_batch",
    "/explain": "explain",
}


#: The stdlib's request-head limits (:mod:`http.client`): a header line
#: of at most 65,536 bytes, and at most 100 lines counting the blank
#: line that ends the head.
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100

#: A header field line as :mod:`email` takes one: a name of visible
#: ASCII other than ``:``, then a colon.
_FIELD_RE = re.compile(rb"([\x21-\x39\x3b-\x7e]*):")

#: A CR that does not end its line, or a NUL: :mod:`email` splits a
#: line at a bare CR, so a proxy and the stdlib could read different
#: fields out of the same bytes.
_BARE_CR_OR_NUL = re.compile(rb"\r(?!\n)|\x00")

#: A request-line version :meth:`BaseHTTPRequestHandler.parse_request`
#: accepts: ASCII digits, at most 10 of them on each side of one dot.
_VERSION_RE = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class PredictionHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP front for a :class:`PredictionService`.

    It parses request heads itself (:meth:`parse_request`) and buffers
    each answer, so the head and the body leave in one send; see "HTTP
    framing" in ``docs/serving.md``.
    """

    #: A buffered ``wfile``: ``handle_one_request`` flushes it after each
    #: request (``finish`` after an error), so the head and the body of
    #: an answer that fits the buffer leave in one send, and the client
    #: wakes once.
    wbufsize = -1

    # Some answers still leave in several sends: "100 Continue" goes
    # ahead of its answer, and one larger than the buffer (a big
    # /predict_batch, /metrics) is cut into pieces.  With Nagle on, a
    # small send after an unacknowledged one waits for its ACK, a
    # ~40 ms stall on a keep-alive connection.
    disable_nagle_algorithm = True

    server: "PredictionServer"
    protocol_version = "HTTP/1.1"

    #: Set per request before routing; echoed by :meth:`_send`.
    _request_id: str | None = None

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        token = self._begin_request()
        self._close_if_body_unread()
        try:
            path, _, query = self.path.partition("?")
            endpoint = _GET_ROUTES.get(path)
            if endpoint is None:
                self._send(404, {"error": f"no such path {path!r}"})
                return
            payload = {
                key: values[-1]
                for key, values in parse_qs(query).items()
            } if query else {}
            if endpoint == "metrics" and "format" not in payload:
                # Content negotiation: a Prometheus scraper asks for
                # the text format; JSON stays the default otherwise.
                accept = self.headers.get("accept", "")
                if "text/plain" in accept or "openmetrics" in accept:
                    payload["format"] = "prometheus"
            status, body = self.server.service.dispatch(
                endpoint, payload or None
            )
            self._send(status, body)
        finally:
            events.reset_request_id(token)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        token = self._begin_request()
        try:
            endpoint = _POST_ROUTES.get(self.path)
            if endpoint is None:
                self._close_if_body_unread()
                self._send(404,
                           {"error": f"no such path {self.path!r}"})
                return
            try:
                payload = self._read_json()
            except ServiceError as error:
                self._send(error.status, {"error": error.message})
                return
            status, body = self.server.service.dispatch(
                endpoint, payload
            )
            self._send(status, body)
        finally:
            events.reset_request_id(token)

    def _begin_request(self):
        """Assign this request's id and bind it to the handler context.

        An inbound ``X-Arcs-Request-Id`` (one log-safe token) is
        honoured so upstream proxies can thread their own ids; anything
        else gets a fresh random id.  Binding through
        :func:`repro.obs.events.set_request_id` is what stamps the same
        id onto every event the request emits (access log, drift
        alerts, sheds); the caller resets the returned token in its
        ``finally``.
        """
        self._request_id = _request_id_for(
            self.headers.get(REQUEST_ID_HEADER.lower())
        )
        return events.set_request_id(self._request_id)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """Parse the request line and read the head into ``headers``,
        a dict by lower-cased field name, without :mod:`email`.

        Limits and verdicts are those of
        :meth:`BaseHTTPRequestHandler.parse_request`, the oracle of the
        tests: the same statuses through the stdlib's ``send_error``,
        the same ``close_connection``, and the same value for each field
        (the first of a repeated field; leading blanks dropped, obs-fold
        continuation lines kept).  As in :mod:`email`, a line starting
        ``From `` is skipped, and a line that is neither a field nor a
        continuation ends the fields; the rest of the head is read and
        ignored.  Three things the stdlib lets through get a 400 and a
        closed connection, because a proxy could frame the body or read
        the fields differently from the handler: a bare CR or a NUL in
        the head, any ``Transfer-Encoding``, and ``Content-Length``
        fields that disagree.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1")
        self.requestline = requestline = requestline.rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            match = _VERSION_RE.fullmatch(version)
            if match is None:
                self.send_error(400, "Bad request version (%r)" % version)
                return False
            number = int(match[1]), int(match[2])
            if number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(505, "Invalid HTTP version (%s)"
                                % version[5:])
                return False
            self.request_version = version
        if len(words) > 3:
            self.send_error(400, "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, "Bad HTTP/0.9 request type (%r)"
                                % command)
                return False
        if path.startswith("//"):  # no scheme-relative redirect targets
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        fields: list[list] = []  # [name, raw value] per field line
        last = None  # the field a continuation line extends
        ended = False  # a line that is no field ended the fields
        for count in range(1, _MAX_HEAD_LINES + 2):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long", "got more than "
                                f"{_MAX_LINE} bytes when reading header line")
                return False
            if count > _MAX_HEAD_LINES:
                self.send_error(431, "Too many headers", "got more than "
                                f"{_MAX_HEAD_LINES} headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            if _BARE_CR_OR_NUL.search(line):
                self.send_error(400, "Bare CR or NUL in the request head")
                return False
            if ended:
                continue
            if line[0] in b" \t":
                if last is not None:
                    last[1] += line
                continue
            if line.startswith(b"From "):  # email's unix-from line
                last = None
                continue
            match = _FIELD_RE.match(line)
            if match is None:
                ended = True
            elif match.end() == 1:  # no name
                last = None
            else:
                last = [match[1].lower().decode("ascii"),
                        line[match.end():].lstrip(b" \t")]
                fields.append(last)
        self.headers = headers = {}
        lengths = set()
        for name, value in fields:
            value = value.rstrip(b"\r\n").decode("iso-8859-1")
            if name == "content-length":
                lengths.add(value.strip())
            headers.setdefault(name, value)
        if "transfer-encoding" in headers:
            self.send_error(400, "Transfer-Encoding is not supported")
            return False
        if len(lengths) > 1:
            self.send_error(400, "Conflicting Content-Length fields")
            return False

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif (connection == "keep-alive"
              and self.protocol_version >= "HTTP/1.1"):
            self.close_connection = False
        if (headers.get("expect", "").lower() == "100-continue"
                and self.protocol_version >= "HTTP/1.1"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        """Send "100 Continue" now: the client waits for it before it
        sends the body, and the buffered ``wfile`` would hold it."""
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def _close_if_body_unread(self) -> None:
        """Close the connection after this answer when the request
        declares a body the handler does not read: on a kept-alive
        connection its bytes would be parsed as the next request."""
        if (self.headers.get("content-length") or "0").strip() != "0":
            self.close_connection = True

    def _read_json(self) -> dict:
        header = (self.headers.get("content-length") or "0").strip()
        # A negative length would make rfile.read() block until the
        # client hangs up; a non-integer one would raise mid-handler.
        # Either way the body's extent is unknown, so the connection
        # cannot be reused for a next request.
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True
            raise ServiceError(
                400, f"invalid Content-Length header {header!r}"
            )
        length = int(header)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError(400, "empty request body; send JSON")
        try:
            payload = json.loads(raw)
        except ValueError:
            raise ServiceError(400, "request body is not valid JSON")
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return payload

    def _send(self, status: int, body: dict | TextResponse) -> None:
        if isinstance(body, TextResponse):
            data = body.text.encode("utf-8")
            content_type = body.content_type
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self._request_id is not None:
            self.send_header(REQUEST_ID_HEADER, self._request_id)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        # BaseHTTPRequestHandler prints to stderr; route through the
        # library's logging convention instead, and build the line only
        # when INFO is on.
        if not logger.isEnabledFor(logging.INFO):
            return
        logger.info("%s %s", self.address_string(), format % args)


class PredictionServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one :class:`PredictionService`.

    Thread-per-connection with daemon threads: an in-flight request
    finishes against the model snapshot it resolved, while
    ``shutdown()`` stops accepting new work.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: PredictionService):
        super().__init__(address, PredictionHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests, CLI)."""
        thread = threading.Thread(
            target=self.serve_forever, name="arcs-serve", daemon=True
        )
        thread.start()
        return thread
