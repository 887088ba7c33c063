"""Multi-process serving: pre-fork workers sharing one listening socket.

The threaded server in :mod:`repro.serve.service` is one process behind
the GIL; this module scales it across cores, gunicorn-style:

* the **parent** binds the listening socket and strictly loads the
  model directory, so a bad directory fails before any fork;
* N **workers** are forked with the listening socket and each run the
  full request stack of the threaded server — its own
  :class:`~repro.serve.registry.ModelRegistry` and a
  :class:`~repro.serve.service.PredictionService` scoring inline —
  accepting connections directly from the shared socket (the kernel
  load-balances ``accept`` across processes).  Hot reload is the
  threaded server's too: each request runs the registry's rate-limited
  ``maybe_refresh()``, which loads and compiles new artefacts in that
  worker;
* the parent then supervises: a watchdog restarts crashed workers
  (``serve.worker_restarts``), an ack loop absorbs their telemetry, and
  :meth:`MultiProcessServer.drain` stops everything gracefully.

**Fork safety**: the watchdog forks replacement workers from a
supervision thread while the ack loop keeps running, so a freshly
forked child re-arms the metrics-registry and event-sink locks via
``os.register_at_fork`` hooks (the stdlib ``logging`` module guards its
own handler locks the same way) before
:func:`_reset_child_observability` swaps in per-process instances; the
inherited event sink is forgotten, never closed, so a fork-copied
partial buffer cannot be flushed into the parent's log.

**Fleet telemetry**: per-process registries used to mean a ``/metrics``
scrape reflected only the worker that answered it.  Each worker now
runs a telemetry thread that periodically (and finally, on drain) ships
its registry snapshot, event-sink counts and served model ids to the
parent over the ack queue; the parent's
:class:`~repro.obs.fleet.FleetAggregator` merges them kind-aware
(counters/histograms sum, gauges re-label as ``{worker="N"}``) and
atomically re-publishes the fleet document to a JSON file every worker
re-reads — so any worker's ``/metrics`` serves the fleet-wide view and
``GET /fleet`` exposes the per-worker lifecycle surface (pid, uptime,
spawn generation, restarts, served models, snapshot age, drain state).

**Graceful drain** (SIGTERM via the CLI, or :meth:`drain` directly):
the parent broadcasts ``drain``; each worker stops accepting, answers
new scoring requests with 503, joins its handler threads so in-flight
requests complete, and exits; the parent joins every worker, then
closes the socket.

Results are bit-identical to the single-process scorer: a worker scores
through the same :class:`~repro.serve.scorer.CompiledScorer` code path
— held to the scalar oracle by ``tests/test_serve_workers.py``.

Requires a platform with the ``fork`` start method (Linux, macOS);
:class:`MultiProcessServer` refuses to build elsewhere — the threaded
``--workers 0`` path remains available everywhere.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import shutil
import signal
import socketserver
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from queue import Empty
from time import perf_counter

from repro.obs import events, metrics, tracing
from repro.obs.fleet import FleetAggregator, FleetView
from repro.serve.monitor import (
    DEFAULT_WINDOW_COUNT,
    DEFAULT_WINDOW_SECONDS,
    TrafficMonitors,
)
from repro.serve.registry import ModelRegistry
from repro.serve.service import (
    PredictionHandler,
    PredictionServer,
    PredictionService,
)

logger = logging.getLogger(__name__)

__all__ = [
    "MultiProcessServer",
    "WorkerConfig",
    "WorkerError",
]


class WorkerError(RuntimeError):
    """A worker-pool failure (startup, platform, or shutdown)."""


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker serving knobs, shared by the parent and the CLI."""

    window_seconds: float = DEFAULT_WINDOW_SECONDS
    window_count: int = DEFAULT_WINDOW_COUNT
    #: Re-enabled per worker (fork does not share the JSONL sink).
    events_out: str | None = None
    trace_spans: bool = False
    #: Seconds between telemetry snapshots shipped to the parent; 0
    #: disables the periodic thread (the final on-drain snapshot is
    #: always shipped).
    telemetry_interval: float = 2.0
    #: Where the parent publishes the merged fleet document.  ``None``
    #: (the default) lets :class:`MultiProcessServer` place it in a
    #: private temp directory it cleans up on drain; a caller-pinned
    #: path survives the drain (CI uploads it as an artifact).
    fleet_path: str | None = None


class _AdoptedSocketServer(PredictionServer):
    """A :class:`PredictionServer` over an inherited, listening socket.

    The parent bound and listens; workers must not bind again, so only
    the base server's constructor runs, and the shared socket is
    adopted as the server's own.

    Handler threads are non-daemon (unlike the threaded
    :class:`PredictionServer`): ``ThreadingMixIn`` only tracks — and
    ``server_close`` only joins — non-daemon threads, and the drain
    protocol relies on that join to finish in-flight requests before
    the worker process exits.
    """

    daemon_threads = False

    def __init__(self, listen_socket, service: PredictionService):
        socketserver.BaseServer.__init__(
            self, listen_socket.getsockname()[:2], PredictionHandler)
        self.socket = listen_socket
        self.service = service


_fork_hooks_installed = False


def _install_fork_hooks() -> None:
    """Re-arm obs locks in every forked child (``os.register_at_fork``).

    The watchdog forks replacement workers from a supervision thread
    while the ack loop keeps running; whatever lock any parent thread
    holds at that instant — the metrics registry's, the event
    sink's — is copied into the child in the locked state with no
    owning thread, and the child's first emit would deadlock forever.
    The stdlib ``logging`` module re-inits its own handler locks the
    same way (3.7.4+); these hooks cover the obs state, running before
    any child code so even the window ahead of
    :func:`_reset_child_observability` is safe.  Registration cannot be
    undone, so it happens on first :class:`MultiProcessServer`
    construction rather than at import.
    """
    global _fork_hooks_installed
    if _fork_hooks_installed:
        return
    _fork_hooks_installed = True
    os.register_at_fork(after_in_child=metrics.reinit_after_fork)
    os.register_at_fork(after_in_child=events.reinit_after_fork)


def _reset_child_observability(index: int,
                               config: WorkerConfig) -> None:
    """Give a freshly forked worker its own observability state.

    ``fork`` copies the parent's registries — including buffered sinks —
    mid-flight; a worker must own fresh instances, and metrics become
    per-process from here on (the telemetry thread ships them to the
    parent for fleet aggregation).  The inherited event sink is
    *forgotten*, never closed: closing would flush a fork-copied
    partial buffer into the parent's log through the shared descriptor,
    and its lock may have been held by a parent thread that does not
    exist here (the ``os.register_at_fork`` hooks re-armed it already —
    see :func:`_install_fork_hooks`).  The worker identity is recorded
    before the sink opens, so every event this process ever writes
    carries its ``pid``/``worker`` fields — N workers appending to one
    ``--events-out`` path stay disentangleable.
    """
    metrics.enable(metrics.MetricsRegistry())
    if config.trace_spans:
        tracing.enable()
    events.forget_events()
    events.set_worker_identity(index)
    if config.events_out:
        events.enable_events(config.events_out)


def _telemetry_payload(incarnation: int, started: float,
                       draining: bool,
                       model_registry: ModelRegistry) -> dict:
    """One worker telemetry message: identity, metrics, event counts
    and the ids of the models this worker serves."""
    registry = metrics.active()
    sink = events.active_sink()
    return {
        "pid": os.getpid(),
        "incarnation": incarnation,
        "uptime_seconds": perf_counter() - started,
        "draining": draining,
        "snapshot": registry.snapshot() if registry is not None else {},
        "events": sink.counts() if sink is not None else None,
        "models": sorted(
            model.model_id for model in model_registry.models()
        ),
    }


def _worker_main(index: int, worker_count: int, listen_socket,
                 model_dir, refresh_interval: float, incarnation: int,
                 config: WorkerConfig, control, acks) -> None:
    """One scoring worker: serve the shared socket until told to drain."""
    # The parent owns terminal signals; workers drain on its command
    # (or on parent death, seen as EOF on the control pipe).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    started = perf_counter()
    _reset_child_observability(index, config)
    registry = ModelRegistry(
        model_dir, refresh_interval=refresh_interval
    ).load()
    fleet_view = (
        FleetView(config.fleet_path) if config.fleet_path else None
    )
    service = PredictionService(
        registry,
        monitors=TrafficMonitors(window_seconds=config.window_seconds,
                                 window_count=config.window_count),
        fleet_view=fleet_view.read if fleet_view is not None else None,
    )
    service.health_extra = {
        "worker": index,
        "workers": worker_count,
        "pid": os.getpid(),
        "spawn_generation": incarnation,
    }
    server = _AdoptedSocketServer(listen_socket, service)
    server.serve_in_background()
    logger.info("worker %d serving (pid %d)", index, os.getpid())
    acks.put(("ready", index))

    def _ship_telemetry(draining: bool = False) -> None:
        try:
            acks.put(("telemetry", index,
                      _telemetry_payload(incarnation, started,
                                         draining, registry)))
        except (OSError, ValueError):
            pass  # parent gone; telemetry is best-effort

    telemetry_stop = threading.Event()
    telemetry_thread: threading.Thread | None = None
    if config.telemetry_interval > 0:
        def _telemetry_loop() -> None:
            while not telemetry_stop.wait(config.telemetry_interval):
                _ship_telemetry()

        telemetry_thread = threading.Thread(
            target=_telemetry_loop, name=f"arcs-telemetry-{index}",
            daemon=True,
        )
        telemetry_thread.start()
    try:
        control.recv()  # "drain" is the only command
    except (EOFError, OSError):
        logger.warning("worker %d lost the control channel; draining",
                       index)
    finally:
        service.begin_drain()
        server.shutdown()
        # server_close joins the in-flight handler threads
        # (block_on_close), completing the graceful drain.
        server.server_close()
        telemetry_stop.set()
        if telemetry_thread is not None:
            telemetry_thread.join(timeout=5.0)
        # The final snapshot: every request this worker ever served is
        # now in the registry (handler threads are joined), so the
        # parent's last publish covers the complete totals.
        _ship_telemetry(draining=True)
        logger.info("worker %d drained (pid %d)", index, os.getpid())


# ----------------------------------------------------------------------
# Parent: the pre-fork front end
# ----------------------------------------------------------------------
class MultiProcessServer:
    """N forked scoring workers behind one shared listening socket.

    Construction binds the socket and strictly loads the model
    directory; each worker then loads, hot-reloads and compiles its own
    models every ``refresh_interval`` seconds (0 re-checks on every
    request, negative disables), like the threaded server;
    :meth:`start` forks the workers and the supervision threads;
    :meth:`drain` (or SIGTERM via the CLI) shuts everything down
    gracefully.  ``port=0`` picks a free port — read it back from
    :attr:`url`.
    """

    #: How often the watchdog checks worker liveness, seconds.
    WATCHDOG_INTERVAL = 0.5

    def __init__(self, model_dir: str | Path, host: str = "127.0.0.1",
                 port: int = 8799, workers: int = 2,
                 refresh_interval: float = 1.0,
                 config: WorkerConfig | None = None,
                 start_timeout: float = 30.0):
        if workers < 1:
            raise WorkerError("workers must be at least 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise WorkerError(
                "multi-process serving needs the 'fork' start method "
                "(Linux/macOS); use the threaded server (--workers 0) "
                "on this platform"
            )
        _install_fork_hooks()
        import socket as socket_module

        self.worker_count = int(workers)
        self.refresh_interval = float(refresh_interval)
        self.config = config if config is not None else WorkerConfig()
        self.start_timeout = float(start_timeout)
        self._context = multiprocessing.get_context("fork")
        # Startup validation only: workers own the registries that
        # serve and hot-reload, so this one is never refreshed.
        self.registry = ModelRegistry(
            model_dir, refresh_interval=-1
        ).load()
        self.fleet = FleetAggregator()
        # The fleet document's home: a caller-pinned path survives the
        # drain (CI uploads it); otherwise a private temp directory is
        # created now and removed at the end of drain().
        if self.config.fleet_path:
            self.fleet_path = Path(self.config.fleet_path)
            self._fleet_dir: Path | None = None
        else:
            self._fleet_dir = Path(
                tempfile.mkdtemp(prefix="arcs-fleet-")
            )
            self.fleet_path = self._fleet_dir / "fleet.json"
            self.config = replace(
                self.config, fleet_path=str(self.fleet_path)
            )
        self._socket = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        self._socket.setsockopt(
            socket_module.SOL_SOCKET, socket_module.SO_REUSEADDR, 1
        )
        self._socket.bind((host, port))
        self._socket.listen(128)
        # Every worker wakes on a new connection but only one accepts
        # it.  On a blocking socket the losers would sit in accept()
        # and miss their drain command until the next connection;
        # non-blocking, socketserver reads the BlockingIOError of a
        # lost race as "no request" and goes back to its select loop.
        self._socket.setblocking(False)
        self._lock = threading.Lock()
        self._processes: dict[int, multiprocessing.process.BaseProcess]
        self._processes = {}
        self._controls: dict[int, object] = {}
        #: Per-slot spawn generation: 1 at first fork, +1 per watchdog
        #: respawn — the fleet's monotone-counter fold key.
        self._incarnations: dict[int, int] = {}
        self._acks = self._context.Queue()
        self._ready = threading.Semaphore(0)
        self._stopping = threading.Event()
        #: Set only after every worker is joined: the ack loop must
        #: keep consuming through the drain, or a worker's final
        #: telemetry snapshot could fill the queue's pipe and block its
        #: exit against the parent's join.
        self._acks_done = threading.Event()
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False
        #: The registry start() installed, when the embedding process
        #: had none; drain() disables it after the final publish.
        self._own_metrics: metrics.MetricsRegistry | None = None
        metrics.set_gauge("serve.workers", self.worker_count)
        logger.info(
            "multi-process server bound to %s: %d worker(s), "
            "%d model(s)",
            self.url, self.worker_count, len(self.registry),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._socket.getsockname()[:2]
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._stopping.is_set()

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [
                process.pid for process in self._processes.values()
                if process.pid is not None
            ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MultiProcessServer":
        """Fork the workers and start supervision; returns when ready."""
        if self._started:
            raise WorkerError("server already started")
        self._started = True
        # The parent is the fleet-telemetry owner: its registry feeds
        # the `fleet.*` instruments and rides along in the published
        # aggregate under `{worker="parent"}`.  Workers enable their
        # own registries unconditionally after the fork (see
        # _reset_child_observability); the parent does the same here so
        # aggregation overhead is measured whether or not the embedding
        # process opted into obs.  A registry installed here is this
        # server's, and drain() turns it off again.
        if metrics.active() is None:
            self._own_metrics = metrics.enable(metrics.MetricsRegistry())
        # Fork outside self._lock: the child inherits every lock in
        # its at-fork state, so a fork under a held lock wedges the
        # child the first time it touches that lock.  No supervision
        # thread exists yet, but the recording still happens under the
        # lock so the invariant is uniform with the watchdog's.
        for index in range(self.worker_count):
            process, control = self._spawn(index)
            with self._lock:
                self._processes[index] = process
                self._controls[index] = control
        for thread_target in (self._ack_loop, self._watchdog_loop):
            thread = threading.Thread(
                target=thread_target, daemon=True,
                name=f"arcs-{thread_target.__name__.strip('_')}",
            )
            thread.start()
            self._threads.append(thread)
        deadline = perf_counter() + self.start_timeout
        for _ in range(self.worker_count):
            remaining = deadline - perf_counter()
            if remaining <= 0 or not self._ready.acquire(
                    timeout=max(remaining, 0.001)):
                self.drain(timeout=5.0)
                raise WorkerError(
                    f"workers failed to become ready within "
                    f"{self.start_timeout:.0f}s"
                )
        logger.info("all %d worker(s) ready", self.worker_count)
        return self

    def _spawn(self, index: int):
        """Fork worker ``index``; the caller records the returned
        (process, control pipe) pair under ``self._lock``."""
        parent_end, child_end = self._context.Pipe()
        with self._lock:
            incarnation = self._incarnations.get(index, 0) + 1
            self._incarnations[index] = incarnation
        process = self._context.Process(
            target=_worker_main,
            name=f"arcs-worker-{index}",
            args=(index, self.worker_count, self._socket,
                  self.registry.directory, self.refresh_interval,
                  incarnation, self.config, child_end, self._acks),
            # Daemonic: if the parent dies without draining, workers
            # must not keep the exit hanging — they notice the control
            # pipe EOF and drain themselves anyway.
            daemon=True,
        )
        process.start()
        self.fleet.register_worker(index, process.pid, incarnation)
        child_end.close()
        return process, parent_end

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain workers, join them, close the socket."""
        if self._stopped.is_set():
            return
        self._stopping.set()
        logger.info("drain: asking %d worker(s) to finish",
                    self.worker_count)
        with self._lock:
            processes = dict(self._processes)
            controls = dict(self._controls)
        for index, control in controls.items():
            try:
                control.send(("drain",))
            except (OSError, ValueError):
                logger.warning("worker %d control channel already gone",
                               index)
        deadline = perf_counter() + timeout
        for index, process in processes.items():
            process.join(timeout=max(deadline - perf_counter(), 0.1))
            if process.is_alive():
                logger.warning(
                    "worker %d did not drain within %.0fs; terminating",
                    index, timeout,
                )
                process.terminate()
                process.join(timeout=5.0)
        for control in controls.values():
            try:
                control.close()
            except OSError:
                logger.debug("control pipe already closed")
        # Workers are joined; now the ack loop may stop.  Absorb
        # whatever it had not yet consumed — every worker ships one
        # final telemetry snapshot on its way out, and the last
        # published fleet document must cover those complete totals.
        self._acks_done.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        while True:
            try:
                message = self._acks.get_nowait()
            except (Empty, OSError, ValueError):
                break
            self._handle_ack(message)
        self._acks.close()
        self._socket.close()
        metrics.set_gauge("serve.workers", 0)
        if (self._own_metrics is not None
                and metrics.active() is self._own_metrics):
            metrics.disable()
        if self._fleet_dir is not None:
            # Server-owned temp home for the fleet document; a
            # caller-pinned fleet_path is left in place instead.
            shutil.rmtree(self._fleet_dir, ignore_errors=True)
        self._stopped.set()
        logger.info("drain complete")

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully stopped."""
        return self._stopped.wait(timeout)

    # ------------------------------------------------------------------
    # Supervision threads
    # ------------------------------------------------------------------
    def _ack_loop(self) -> None:
        while not self._acks_done.is_set():
            try:
                message = self._acks.get(timeout=0.25)
            except (Empty, OSError, ValueError):
                continue
            self._handle_ack(message)

    def _handle_ack(self, message) -> None:
        """Process one worker message (ack loop, and drain's catch-up)."""
        kind, index, *rest = message
        try:
            if kind == "ready":
                self._ready.release()
            elif kind == "telemetry":
                self.fleet.absorb(index, rest[0])
                self._publish_fleet()
        except Exception:
            # The ack loop is supervision: a bookkeeping failure
            # must not stop future acks from being processed.
            logger.exception("processing %s ack from worker %d "
                             "failed", kind, index)

    def _publish_fleet(self) -> None:
        """Re-publish the merged fleet document for workers to serve.

        The parent's own registry (restart totals, the ``fleet.*``
        instruments) rides along labeled ``{worker="parent"}`` so
        nothing the parent observes is invisible fleet-wide.
        """
        registry = metrics.active()
        self.fleet.publish(
            self.fleet_path,
            registry.snapshot() if registry is not None else None,
        )

    def _watchdog_loop(self) -> None:
        while not self._stopping.wait(self.WATCHDOG_INTERVAL):
            with self._lock:
                dead = [
                    (index, self._processes[index].exitcode,
                     self._controls.get(index))
                    for index, process in self._processes.items()
                    if not process.is_alive()
                ]
            for index, exitcode, old_control in dead:
                if self._stopping.is_set():
                    break
                logger.warning(
                    "worker %d died (exit %s); restarting",
                    index, exitcode,
                )
                metrics.inc("serve.worker_restarts")
                self.fleet.note_restart(index)
                try:
                    if old_control is not None:
                        old_control.close()
                except OSError:
                    logger.debug("dead worker pipe already closed")
                # Fork outside self._lock (see start()): the child
                # must never inherit a held registry lock.
                process, control = self._spawn(index)
                with self._lock:
                    self._processes[index] = process
                    self._controls[index] = control
                if self._stopping.is_set():
                    # drain() may have snapshotted the control table
                    # before this respawn was recorded; closing the
                    # fresh pipe makes the worker see EOF and drain
                    # itself (it is daemonic either way).
                    try:
                        control.close()
                    except OSError:
                        pass
