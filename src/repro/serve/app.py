"""Assembling and running a prediction server (the ``arcs serve`` glue).

:func:`create_server` wires directory -> registry -> service -> HTTP
server and returns the bound (but not yet serving) server, so callers
control the serving loop: the CLI blocks in :func:`run_server`, tests
call :meth:`~repro.serve.service.PredictionServer.serve_in_background`
and tear down with ``shutdown()``/``server_close()``.

:func:`create_multiprocess_server` is the ``--workers N`` counterpart:
it builds a :class:`~repro.serve.workers.MultiProcessServer` (pre-fork
workers sharing one listening socket) from the same knobs plus a
:class:`~repro.serve.workers.WorkerConfig`; the CLI blocks in
:func:`run_multiprocess_server`, which installs SIGTERM/SIGINT handlers
that trigger a graceful drain.

Binding to port ``0`` asks the OS for a free port — the bound address is
on ``server.server_address`` (and ``server.url``), which is how the
test-suite and smoke jobs avoid port collisions.
"""

from __future__ import annotations

import logging
import signal
import threading
from pathlib import Path

from repro.serve.monitor import (
    DEFAULT_WINDOW_COUNT,
    DEFAULT_WINDOW_SECONDS,
    TrafficMonitors,
)
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionServer, PredictionService
from repro.serve.workers import MultiProcessServer, WorkerConfig

logger = logging.getLogger(__name__)

__all__ = [
    "create_multiprocess_server",
    "create_server",
    "drain_server",
    "run_multiprocess_server",
    "run_server",
]


def create_server(model_dir: str | Path, host: str = "127.0.0.1",
                  port: int = 8799,
                  refresh_interval: float = 1.0,
                  window_seconds: float = DEFAULT_WINDOW_SECONDS,
                  window_count: int = DEFAULT_WINDOW_COUNT,
                  ) -> PredictionServer:
    """Build a ready-to-serve :class:`PredictionServer`.

    The registry load is strict: an invalid artefact in ``model_dir``
    fails startup loudly rather than serving a partial catalogue.
    ``window_seconds``/``window_count`` configure the traffic monitor's
    tumbling drift windows behind ``GET /stats``.
    """
    registry = ModelRegistry(
        model_dir, refresh_interval=refresh_interval
    ).load()
    service = PredictionService(
        registry,
        monitors=TrafficMonitors(window_seconds=window_seconds,
                                 window_count=window_count),
    )
    server = PredictionServer((host, port), service)
    logger.info(
        "prediction server bound to %s serving %d model(s) from %s",
        server.url, len(registry), model_dir,
    )
    return server


def create_multiprocess_server(model_dir: str | Path,
                               host: str = "127.0.0.1",
                               port: int = 8799,
                               workers: int = 2,
                               refresh_interval: float = 1.0,
                               config: WorkerConfig | None = None,
                               ) -> MultiProcessServer:
    """Build (but don't start) the pre-fork multi-worker server."""
    return MultiProcessServer(
        model_dir, host=host, port=port, workers=workers,
        refresh_interval=refresh_interval, config=config,
    )


def drain_server(server: PredictionServer,
                 timeout: float = 30.0) -> None:
    """Gracefully drain a threaded server: 503 new work, finish old.

    Blocks until the serving loop has stopped (or ``timeout``), so it
    must run on a thread that is *not* inside ``serve_forever`` —
    ``shutdown()`` only returns once that loop notices the request.
    :func:`run_server`'s signal handler therefore dispatches this to a
    helper thread; Python delivers signals to the main thread, which
    is exactly the one blocked in ``serve_forever``.
    """
    server.service.begin_drain()
    stopper = threading.Thread(target=server.shutdown,
                               name="arcs-drain", daemon=True)
    stopper.start()
    stopper.join(timeout)


def run_server(server: PredictionServer) -> None:
    """Serve until interrupted or SIGTERMed; always releases the socket.

    SIGTERM triggers a graceful drain: in-flight requests complete, new
    scoring work is refused with 503, and ``server_close()`` joins the
    handler threads.
    """
    def _drain_async(signum: int, frame: object) -> None:
        logger.info("signal %d received; draining", signum)
        threading.Thread(target=drain_server, args=(server,),
                         name="arcs-drain", daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _drain_async)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        logger.info("interrupt received, shutting down")
        drain_server(server)
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()


def run_multiprocess_server(server: MultiProcessServer) -> None:
    """Start the worker pool and block until drained.

    SIGTERM and SIGINT both trigger :meth:`MultiProcessServer.drain`
    (run on a helper thread so the signal handler returns immediately).
    """
    def _drain_async(signum: int, frame: object) -> None:
        logger.info("signal %d received; draining worker pool", signum)
        threading.Thread(target=server.drain, name="arcs-drain",
                         daemon=True).start()

    previous_term = signal.signal(signal.SIGTERM, _drain_async)
    previous_int = signal.signal(signal.SIGINT, _drain_async)
    try:
        server.start()
        server.wait()
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        server.drain()
