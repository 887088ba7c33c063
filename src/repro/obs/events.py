"""Structured JSONL event logs: one machine-readable line per event.

Where metrics aggregate and spans time, **events** record the
individual occurrences an operator wants to tail or load into an
analysis tool: one access-log event per served request, one stage event
per pipeline span.  Each event is a single JSON object on its own line
(JSONL), so ``tail -f``, ``jq`` and log shippers all work unmodified::

    {"ts": 1754380800.123, "type": "request", "endpoint": "predict",
     "status": 200, "seconds": 0.0004}

Every record also carries a ``pid`` field (and a ``worker`` index when
:func:`set_worker_identity` has named this process), so N forked serve
workers appending to one ``--events-out`` path stay attributable line
by line.  When the serving layer has bound a request id to the current
context (:func:`set_request_id`), it is attached as ``request_id`` —
the same value the client saw in the ``X-Arcs-Request-Id`` response
header, which makes an access-log line, a ``drift_alert`` and a
``shed`` event for one request greppable as a unit.

:class:`EventSink` owns one output file and rotates it at a size cap:
when the file would exceed ``max_bytes`` it is rotated to ``<path>.1``
(shifting older generations up to ``backups``), so an unattended
long-lived server cannot fill the disk.

Like the rest of :mod:`repro.obs`, the module-level :func:`emit` is a
no-op (one global read) until :func:`enable_events` installs a sink —
the CLI does this for ``--events-out PATH`` on ``fit``/``serve``.
"""

from __future__ import annotations

import contextvars
import json
import logging
import os
import threading
import time
from pathlib import Path

from repro.obs import metrics

logger = logging.getLogger(__name__)

__all__ = [
    "EventSink",
    "enable_events",
    "disable_events",
    "forget_events",
    "reinit_after_fork",
    "events_enabled",
    "active_sink",
    "emit",
    "set_request_id",
    "reset_request_id",
    "set_worker_identity",
    "worker_identity",
]

#: Default rotation threshold: 16 MiB per generation.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

#: The request id bound to the current execution context, if any.  A
#: :class:`~contextvars.ContextVar` rather than a thread-local: each
#: HTTP handler thread binds its own id around dispatch, and the value
#: follows the logical request even through helper frames.
_request_id: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "arcs_request_id", default=None
)

#: This process's serve-worker index (``None`` outside serve workers).
_worker_index: int | None = None


def set_request_id(
    request_id: str | None,
) -> contextvars.Token:
    """Bind ``request_id`` to the current context; returns the reset
    token so callers can restore the previous binding in ``finally``."""
    return _request_id.set(request_id)


def reset_request_id(token: contextvars.Token) -> None:
    """Restore the binding captured by :func:`set_request_id`."""
    _request_id.reset(token)


def set_worker_identity(index: int | None) -> None:
    """Name this process as serve worker ``index`` (``None`` clears).

    Called once per forked worker right after observability is re-armed;
    every subsequently emitted event carries ``worker: index``.
    """
    global _worker_index
    _worker_index = index


def worker_identity() -> int | None:
    """This process's serve-worker index, or ``None``."""
    return _worker_index


class EventSink:
    """A thread-safe, size-capped JSONL event writer."""

    def __init__(self, path: str | Path,
                 max_bytes: int = DEFAULT_MAX_BYTES, backups: int = 1):
        if max_bytes < 1024:
            raise ValueError("max_bytes must be at least 1 KiB")
        if backups < 0:
            raise ValueError("backups cannot be negative")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = backups
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = self.path.stat().st_size
        self.emitted = 0
        self.rotations = 0

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, event_type: str, **fields) -> None:
        """Write one event.

        ``ts`` (wall-clock seconds, for correlating with external logs),
        ``type``, ``pid`` and — when set — ``worker``/``request_id``
        are added automatically; remaining fields must be
        JSON-serializable (non-serializable values are stringified).
        Explicit keyword fields win over the automatic ones.
        """
        with self._lock:
            payload = {
                "ts": time.time(),  # wall-clock: ok (log timestamp)
                "type": event_type,
                "pid": os.getpid(),
            }
            if _worker_index is not None:
                payload["worker"] = _worker_index
            request_id = _request_id.get()
            if request_id is not None:
                payload["request_id"] = request_id
            payload.update(fields)
            line = json.dumps(payload, default=str,
                              separators=(",", ":")) + "\n"
            if self._size + len(line) > self.max_bytes:
                self._rotate()
            self._handle.write(line)
            self._handle.flush()
            self._size += len(line)
            self.emitted += 1
            metrics.inc("obs.events_emitted")

    def _rotate(self) -> None:
        """Shift generations: ``path`` → ``path.1`` → ``path.2`` ..."""
        self._handle.close()
        if self.backups == 0:
            self.path.unlink(missing_ok=True)
        else:
            oldest = self.path.with_name(
                f"{self.path.name}.{self.backups}"
            )
            oldest.unlink(missing_ok=True)
            for generation in range(self.backups - 1, 0, -1):
                source = self.path.with_name(
                    f"{self.path.name}.{generation}"
                )
                if source.exists():
                    source.rename(self.path.with_name(
                        f"{self.path.name}.{generation + 1}"
                    ))
            if self.path.exists():
                self.path.rename(
                    self.path.with_name(f"{self.path.name}.1")
                )
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1
        logger.debug("rotated event log %s", self.path)

    def counts(self) -> dict:
        """Emission totals (``emitted``/``rotations``)
        as a JSON-ready dict — the event half of a worker's telemetry
        payload."""
        with self._lock:
            return {
                "emitted": self.emitted,
                "rotations": self.rotations,
            }

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    # Context-manager sugar for scoped use in tests and scripts.
    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


#: The active sink; ``None`` means event logging is disabled and
#: :func:`emit` is a no-op.
_active: EventSink | None = None


def enable_events(sink: EventSink | str | Path, **kwargs) -> EventSink:
    """Install (and return) the process-global event sink.

    Accepts a ready :class:`EventSink` or a path (plus ``EventSink``
    keyword arguments).  An already-installed sink is closed first.
    """
    global _active
    if not isinstance(sink, EventSink):
        sink = EventSink(sink, **kwargs)
    if _active is not None and _active is not sink:
        _active.close()
    _active = sink
    return sink


def disable_events() -> None:
    """Close and uninstall the active sink; :func:`emit` no-ops again."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def forget_events() -> None:
    """Drop the active sink *without* closing it; :func:`emit` no-ops.

    For freshly forked children: the inherited sink shares the parent's
    file descriptor (closing would flush a fork-copied partial buffer
    into the parent's log) and its lock may have been held by a parent
    thread that does not exist in the child.  Dropping the reference is
    the only fork-safe move; the child then installs its own sink.
    """
    global _active
    _active = None


def reinit_after_fork() -> None:
    """Give the active sink a fresh lock (forked children only).

    Counterpart of :func:`repro.obs.metrics.reinit_after_fork`,
    registered as an ``os.register_at_fork`` child hook by the
    multi-process serving front end.  A serve worker forgets this sink
    right afterwards (:func:`forget_events`); the re-armed lock just
    guarantees nothing can deadlock in the window before it does.
    """
    sink = _active
    if sink is not None:
        sink._lock = threading.Lock()


def events_enabled() -> bool:
    """Whether an event sink is installed."""
    return _active is not None


def active_sink() -> EventSink | None:
    """The currently installed sink, or ``None`` when disabled."""
    return _active


def emit(event_type: str, **fields) -> bool:
    """Emit one event on the active sink, if any; returns whether it
    was written.

    Never raises on I/O problems: a failing disk should degrade
    observability, not take the serving path down with it.
    """
    sink = _active
    if sink is None:
        return False
    try:
        sink.emit(event_type, **fields)
    except OSError:
        logger.exception("event sink write failed; event dropped")
        return False
    return True
