"""Multi-process serving: pre-fork workers over shared-memory scorers.

The threaded server in :mod:`repro.serve.service` is one process behind
the GIL; this module scales it across cores, gunicorn-style:

* the **parent** binds the listening socket, validates the model
  directory, compiles every scorer once and *publishes* the compiled
  position tables into ``multiprocessing.shared_memory`` blocks keyed
  by model content hash (:class:`ScorerPublisher`);
* N **workers** are forked with the listening socket and each run the
  full request stack — a :class:`~repro.serve.service.PredictionService`
  scoring inline — accepting connections directly from the shared
  socket (the kernel load-balances ``accept`` across processes).  Their
  scorers come from :class:`SharedScorerCache`, which attaches the
  parent's tables zero-copy (read-only numpy views over the shared
  buffer) and falls back to a local compile when a block is missing;
* the parent then supervises: a refresh loop re-scans the model
  directory (hot reload), publishes new blocks, and broadcasts a
  ``sync`` to every worker; a watchdog restarts crashed workers
  (``serve.worker_restarts``); :meth:`MultiProcessServer.drain` stops
  everything gracefully.

**Shared-memory lifecycle on hot reload**: blocks are content-hash
keyed, so an edited artefact publishes a *new* block under a new name —
never a mutation of a mapped one.  Every publication bumps a
*generation*; every spawned worker counts against the unlink floor from
the moment it forks, workers acknowledge each generation after
re-attaching, and a replaced block is unlinked only once every live
worker has acknowledged a generation at or past its retirement.  An
in-flight request keeps its mapping valid regardless: ``shm_unlink``
removes the name, not existing mappings, and the worker side never
*closes* a mapping while a scorer view over it is alive —
``SharedMemory.close`` unmaps immediately even under live numpy views,
so each attach defers the close to a finalizer on the last view
(:func:`_close_mapping_when_views_die`) and the
:class:`SharedScorerCache` only ever drops references.

**Fork safety**: the watchdog forks replacement workers from a
supervision thread while the refresh and ack loops keep running, so a
freshly forked child re-arms the metrics-registry and event-sink locks
via ``os.register_at_fork`` hooks (the stdlib ``logging`` module
guards its own handler locks the same way) before
:func:`_reset_child_observability` swaps in per-process instances; the
inherited event sink is forgotten, never closed, so a fork-copied
partial buffer cannot be flushed into the parent's log.

**Fleet telemetry**: per-process registries used to mean a ``/metrics``
scrape reflected only the worker that answered it.  Each worker now
runs a telemetry thread that periodically (and finally, on drain) ships
its registry snapshot plus event-sink counts to the parent over the
ack queue; the parent's :class:`~repro.obs.fleet.FleetAggregator`
merges them kind-aware (counters/histograms sum, gauges re-label as
``{worker="N"}``) and atomically re-publishes the fleet document to a
JSON file every worker re-reads — so any worker's ``/metrics`` serves
the fleet-wide view and ``GET /fleet`` exposes the per-worker
lifecycle surface (pid, uptime, spawn generation, restarts, ack
latency, snapshot age, drain state).

**Graceful drain** (SIGTERM via the CLI, or :meth:`drain` directly):
the parent broadcasts ``drain``; each worker stops accepting, answers
new scoring requests with 503, joins its handler threads so in-flight
requests complete, and exits; the parent joins every worker, then
unlinks all shared blocks and closes the socket.

Results are bit-identical to the single-process scorer: an attached
scorer is a :class:`~repro.serve.scorer.CompiledScorer` over byte-exact
copies of the parent's tables, scoring through the same code path —
held to the scalar oracle by ``tests/test_serve_workers.py``.

Requires a platform with the ``fork`` start method (Linux, macOS);
:class:`MultiProcessServer` refuses to build elsewhere — the threaded
``--workers 0`` path remains available everywhere.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import shutil
import signal
import struct
import tempfile
import threading
import weakref
from dataclasses import dataclass, replace
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from queue import Empty
from time import perf_counter

import numpy as np

from repro.core.segmentation import Segmentation
from http.server import ThreadingHTTPServer

from repro.obs import events, metrics, tracing
from repro.obs.fleet import FleetAggregator, FleetView
from repro.serve.monitor import (
    DEFAULT_WINDOW_COUNT,
    DEFAULT_WINDOW_SECONDS,
    TrafficMonitors,
)
from repro.serve.registry import ModelRegistry, ServedModel
from repro.serve.scorer import CompiledScorer, compile_scorer
from repro.serve.service import (
    PredictionHandler,
    PredictionServer,
    PredictionService,
)

logger = logging.getLogger(__name__)

__all__ = [
    "MultiProcessServer",
    "ScorerPublisher",
    "SharedScorerCache",
    "WorkerConfig",
    "WorkerError",
    "attach_scorer",
    "block_name",
    "publish_tables",
]


class WorkerError(RuntimeError):
    """A worker-pool failure (startup, platform, or shutdown)."""


#: Shared-memory block layout: an 8-byte little-endian header length,
#: the JSON header describing each array (dtype, shape, offset), then
#: the raw array bytes, each 16-byte aligned.
_LENGTH = struct.Struct("<Q")
_ALIGN = 16

#: The arrays a compiled scorer is made of, in layout order.
_TABLE_FIELDS = ("x_edges", "y_edges", "table")


def block_name(prefix: str, model_id: str) -> str:
    """The deterministic shared-memory name for one model's tables."""
    return f"{prefix}_{model_id}"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def publish_tables(scorer: CompiledScorer, name: str) -> SharedMemory:
    """Copy a compiled scorer's tables into a new shared-memory block.

    A stale block under the same name (a previous server instance that
    crashed before unlinking) is removed first; content-hash keyed
    names make an *in-use* collision impossible.
    """
    arrays = {field: getattr(scorer, field) for field in _TABLE_FIELDS}
    header: dict = {}
    for field, array in arrays.items():
        header[field] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": 0,
        }
    # The header's own encoded size shifts the array offsets, and the
    # offsets' digit count feeds back into the header text, so iterate
    # to a fixpoint: a header must never be stored with offsets
    # computed from a shorter encoding than the one written (its tail
    # would overlap the first array).  Offsets only grow with header
    # length and their digit count is bounded, so this settles fast.
    while True:
        encoded = json.dumps(header, sort_keys=True).encode("ascii")
        offset = _aligned(_LENGTH.size + len(encoded))
        changed = False
        for field, array in arrays.items():
            if header[field]["offset"] != offset:
                header[field]["offset"] = offset
                changed = True
            offset = _aligned(offset + array.nbytes)
        if not changed:
            break
    total = offset
    try:
        shm = SharedMemory(create=True, name=name, size=total)
    except FileExistsError:
        stale = SharedMemory(name=name)
        stale.close()
        stale.unlink()
        logger.warning("removed stale shared-memory block %s", name)
        shm = SharedMemory(create=True, name=name, size=total)
    shm.buf[:_LENGTH.size] = _LENGTH.pack(len(encoded))
    shm.buf[_LENGTH.size:_LENGTH.size + len(encoded)] = encoded
    for field, array in arrays.items():
        spec = header[field]
        view = np.ndarray(array.shape, dtype=array.dtype,
                          buffer=shm.buf, offset=spec["offset"])
        view[...] = array
    metrics.inc("serve.shm_published")
    logger.debug("published %s (%d bytes)", name, total)
    return shm


def _release_block(shm: SharedMemory, model_id: str) -> None:
    """Close and unlink, tolerating external removal of the file.

    A tmpfs cleaner or an operator ``rm`` under ``/dev/shm`` must not
    wedge the ack loop or leave :meth:`MultiProcessServer.drain`
    half-finished — attached mappings survive the unlink either way.
    """
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        logger.warning("shared block for %s was already removed "
                       "externally", model_id)


def _close_mapping_when_views_die(shm: SharedMemory,
                                  views: tuple[np.ndarray, ...]) -> None:
    """Close ``shm`` only once every view over it has been collected.

    ``SharedMemory.close`` unmaps immediately — numpy views built over
    ``shm.buf`` hold no buffer export that would make it fail, and the
    object's ``__del__`` calls it too — so a close (or a plain garbage
    collection of the handle) racing an in-flight ``score_batch`` turns
    the scorer's arrays into dangling pointers: a segfault, not an
    exception.  Registering a finalizer per view makes *dropping
    references* the only cleanup a holder ever needs: the finalizer
    registry keeps ``shm`` alive exactly as long as the last view, then
    the mapping is closed once.
    """
    # Each mapping needs its own countdown lock, shared by that
    # mapping's view finalizers via the closure.
    lock = threading.Lock()
    remaining = [len(views)]

    def _view_collected() -> None:
        with lock:
            remaining[0] -= 1
            last = remaining[0] == 0
        if last:
            shm.close()

    for view in views:
        weakref.finalize(view, _view_collected)


def attach_scorer(name: str,
                  segmentation: Segmentation,
                  ) -> tuple[CompiledScorer, SharedMemory]:
    """Attach published tables as a zero-copy :class:`CompiledScorer`.

    The returned arrays are read-only views over the shared buffer.
    The mapping outlives them automatically: a finalizer on each view
    defers ``close`` until the last one is collected
    (:func:`_close_mapping_when_views_die`), so callers simply drop
    references when done — closing the returned :class:`SharedMemory`
    by hand while the scorer may still be scoring is unsafe.  Raises
    :class:`FileNotFoundError` when the block does not exist (callers
    fall back to a local compile).
    """
    shm = SharedMemory(name=name)
    (length,) = _LENGTH.unpack_from(shm.buf, 0)
    header = json.loads(bytes(shm.buf[_LENGTH.size:_LENGTH.size + length]))
    arrays = {}
    for field in _TABLE_FIELDS:
        spec = header[field]
        view = np.ndarray(tuple(spec["shape"]),
                          dtype=np.dtype(spec["dtype"]),
                          buffer=shm.buf, offset=spec["offset"])
        view.setflags(write=False)
        arrays[field] = view
    _close_mapping_when_views_die(shm, tuple(arrays.values()))
    scorer = CompiledScorer(segmentation=segmentation, **arrays)
    return scorer, shm


# ----------------------------------------------------------------------
# Parent side: publication and retirement
# ----------------------------------------------------------------------
class ScorerPublisher:
    """Owns the shared-memory blocks for every served model (parent).

    Thread-safe; :meth:`sync` is called from the refresh loop,
    :meth:`note_ack` from the ack loop, and both race the watchdog's
    :meth:`reset_worker` — all state is guarded by ``self._lock``.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._lock = threading.Lock()
        self._generation = 0
        self._blocks: dict[str, SharedMemory] = {}
        #: Blocks replaced or dropped, kept mapped until every live
        #: worker acknowledges the generation that retired them.
        self._retired: list[tuple[int, str, SharedMemory]] = []
        self._acked: dict[int, int] = {}  # worker index -> generation

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def block_for(self, model_id: str) -> str:
        return block_name(self.prefix, model_id)

    def sync(self, models: list[ServedModel]) -> int:
        """Publish blocks for new models, retire removed ones.

        Returns the new generation to broadcast to workers.
        """
        with self._lock:
            self._generation += 1
            current = {model.model_id: model for model in models}
            for model_id, model in current.items():
                if model_id not in self._blocks:
                    scorer = compile_scorer(model.segmentation)
                    self._blocks[model_id] = publish_tables(
                        scorer, block_name(self.prefix, model_id)
                    )
            for model_id in list(self._blocks):
                if model_id not in current:
                    self._retired.append((
                        self._generation, model_id,
                        self._blocks.pop(model_id),
                    ))
                    logger.info(
                        "retiring shared block for %s at generation %d",
                        model_id, self._generation,
                    )
            return self._generation

    def register_worker(self, worker_index: int) -> None:
        """Count a spawned worker against the unlink floor immediately.

        Seeding generation 0 at spawn time keeps the documented "every
        live worker has acknowledged" invariant through the startup
        window: a block retired before a fresh worker delivers its
        first ack stays mapped until that worker actually re-attaches.
        ``setdefault`` so an ack racing the registration is kept.
        """
        with self._lock:
            self._acked.setdefault(worker_index, 0)

    def note_ack(self, worker_index: int, generation: int) -> None:
        """Record a worker's re-attach ack; unlink fully-acked blocks.

        The floor is the minimum over every *registered* worker
        (:meth:`register_worker` seeds each at spawn), so a worker that
        has never acked holds every retirement back until it does.
        """
        with self._lock:
            previous = self._acked.get(worker_index, 0)
            self._acked[worker_index] = max(previous, generation)
            if not self._acked:
                return
            floor = min(self._acked.values())
            keep = []
            for retired_at, model_id, shm in self._retired:
                if retired_at <= floor:
                    _release_block(shm, model_id)
                    metrics.inc("serve.shm_retired")
                    logger.debug("unlinked retired block for %s",
                                 model_id)
                else:
                    keep.append((retired_at, model_id, shm))
            self._retired = keep

    def reset_worker(self, worker_index: int) -> None:
        """A worker died: its acks no longer count until it re-attaches."""
        with self._lock:
            self._acked[worker_index] = 0

    def close(self) -> None:
        """Unlink every block (server shutdown)."""
        with self._lock:
            for model_id, shm in self._blocks.items():
                _release_block(shm, model_id)
            for _, model_id, shm in self._retired:
                _release_block(shm, model_id)
            self._blocks = {}
            self._retired = []


# ----------------------------------------------------------------------
# Worker side: attachment
# ----------------------------------------------------------------------
class SharedScorerCache:
    """Resolves models to scorers, preferring shared tables (worker).

    Drop-in ``scorer_provider`` for
    :class:`~repro.serve.service.PredictionService`: attaches the
    parent's block for the model's content hash, falling back to an
    in-process compile when no block exists (e.g. the parent has not
    published a just-reloaded artefact yet) or when its header is
    unreadable (a torn write from a crashed publisher).  ``sync`` drops
    entries for models no longer served and retries fallbacks, so a
    worker converges onto shared tables at the next generation.

    The cache never closes a shared mapping: a handler thread may be
    mid-request through the attached numpy views, and
    ``SharedMemory.close`` would unmap the buffer under it.  Every
    method only drops references; the mapping closes itself once the
    last view is collected (:func:`_close_mapping_when_views_die`).
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._lock = threading.Lock()
        #: model_id -> (scorer, shm | None); the shm handle marks the
        #: entry as shared (``None`` = local-compile fallback).
        self._entries: dict[str, tuple[CompiledScorer,
                                       SharedMemory | None]] = {}

    def resolve(self, model: ServedModel) -> CompiledScorer:
        with self._lock:
            entry = self._entries.get(model.model_id)
        if entry is not None:
            return entry[0]
        built = self._build(model)
        with self._lock:
            raced = self._entries.get(model.model_id)
            if raced is not None:
                # Another thread attached first; drop ours — its
                # mapping closes once its views are collected.
                return raced[0]
            self._entries[model.model_id] = built
        return built[0]

    def _build(self,
               model: ServedModel) -> tuple[CompiledScorer,
                                            SharedMemory | None]:
        name = block_name(self.prefix, model.model_id)
        try:
            scorer, shm = attach_scorer(name, model.segmentation)
        except FileNotFoundError:
            logger.info(
                "no shared block %s; compiling %s locally",
                name, model.name,
            )
            metrics.inc("serve.shm_attach_fallbacks")
            return compile_scorer(model.segmentation), None
        except (ValueError, KeyError, struct.error) as error:
            # A block exists but its header does not parse: degrade to
            # a local compile rather than turning every request for
            # the model into a 500.
            logger.warning(
                "shared block %s is unreadable (%s: %s); compiling %s "
                "locally", name, type(error).__name__, error, model.name,
            )
            metrics.inc("serve.shm_attach_fallbacks")
            return compile_scorer(model.segmentation), None
        metrics.inc("serve.shm_attached")
        return scorer, shm

    def sync(self, served_ids: set[str]) -> None:
        """Drop stale entries; re-attach fallbacks next time they score.

        Dropped shared entries are released, never closed here — a
        request racing a model removal keeps its views valid, and the
        mapping closes once the last of them is collected.
        """
        with self._lock:
            self._entries = {
                model_id: entry
                for model_id, entry in self._entries.items()
                if model_id in served_ids and entry[1] is not None
            }

    def close(self) -> None:
        """Drop every entry; mappings close as their views die."""
        with self._lock:
            self._entries = {}


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

    The parent bound and listens; workers must not bind again, so the
    stdlib constructor runs with ``bind_and_activate=False`` and the
    fresh unbound socket it makes is swapped for the shared one.

    Handler threads are non-daemon (unlike the threaded
    :class:`PredictionServer`): ``ThreadingMixIn`` only tracks — and
    ``server_close`` only joins — non-daemon threads, and the drain
    protocol relies on that join to finish in-flight requests before
    the worker process exits.
    """

    daemon_threads = False

    def __init__(self, listen_socket, service: PredictionService):
        ThreadingHTTPServer.__init__(
            self, listen_socket.getsockname()[:2], PredictionHandler,
            bind_and_activate=False,
        )
        self.socket.close()
        self.socket = listen_socket
        host, port = listen_socket.getsockname()[:2]
        self.server_name = host
        self.server_port = port
        self.service = service


_fork_hooks_installed = False


def _install_fork_hooks() -> None:
    """Re-arm obs locks in every forked child (``os.register_at_fork``).

    The watchdog forks replacement workers from a supervision thread
    while the refresh and ack loops keep running; whatever lock one of
    them holds at that instant — the metrics registry's, the event
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
                       draining: bool) -> dict:
    """One worker telemetry message: identity + metrics + event counts."""
    registry = metrics.active()
    sink = events.active_sink()
    return {
        "pid": os.getpid(),
        "incarnation": incarnation,
        "uptime_seconds": perf_counter() - started,
        "draining": draining,
        "snapshot": registry.snapshot() if registry is not None else {},
        "events": sink.counts() if sink is not None else None,
    }


def _worker_main(index: int, worker_count: int, listen_socket,
                 model_dir, prefix: str, spawn_generation: int,
                 incarnation: int, config: WorkerConfig, control,
                 acks) -> None:
    """One scoring worker: serve the shared socket until told to drain."""
    # The parent owns terminal signals; workers drain on its command
    # (or on parent death, seen as EOF on the control pipe).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    started = perf_counter()
    _reset_child_observability(index, config)
    registry = ModelRegistry(model_dir, refresh_interval=-1).load()
    cache = SharedScorerCache(prefix)
    fleet_view = (
        FleetView(config.fleet_path) if config.fleet_path else None
    )
    service = PredictionService(
        registry,
        monitors=TrafficMonitors(window_seconds=config.window_seconds,
                                 window_count=config.window_count),
        scorer_provider=cache.resolve,
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
    acks.put(("ready", index, spawn_generation))

    def _ship_telemetry(draining: bool = False) -> None:
        try:
            acks.put(("telemetry", index,
                      _telemetry_payload(incarnation, started,
                                         draining)))
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
        while True:
            try:
                if not control.poll(0.25):
                    continue
                message = control.recv()
            except (EOFError, OSError):
                logger.warning(
                    "worker %d lost the control channel; draining", index
                )
                break
            if message[0] == "sync":
                generation = message[1]
                registry.refresh()
                cache.sync({
                    model.model_id for model in registry.models()
                })
                acks.put(("synced", index, generation))
            elif message[0] == "drain":
                break
    finally:
        service.begin_drain()
        server.shutdown()
        # server_close joins the in-flight handler threads
        # (block_on_close), completing the graceful drain.
        server.server_close()
        cache.close()
        telemetry_stop.set()
        if telemetry_thread is not None:
            telemetry_thread.join(timeout=5.0)
        # The final snapshot: every request this worker ever served is
        # now in the registry (handler threads are joined), so the
        # parent's last publish covers the complete totals.
        _ship_telemetry(draining=True)
        try:
            acks.put(("stopped", index))
        except (OSError, ValueError):
            pass  # parent gone
        logger.info("worker %d drained (pid %d)", index, os.getpid())


# ----------------------------------------------------------------------
# Parent: the pre-fork front end
# ----------------------------------------------------------------------
class MultiProcessServer:
    """N forked scoring workers behind one shared listening socket.

    Construction binds the socket, strictly loads the model directory
    and publishes every compiled scorer to shared memory;
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
        self.registry = ModelRegistry(
            model_dir, refresh_interval=-1
        ).load()
        self.prefix = f"arcs{os.getpid():x}"
        self.publisher = ScorerPublisher(self.prefix)
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
        self.publisher.sync(self.registry.models())
        metrics.set_gauge("serve.workers", self.worker_count)
        logger.info(
            "multi-process server bound to %s: %d worker(s), "
            "%d model(s), prefix %s",
            self.url, self.worker_count, len(self.registry), self.prefix,
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
        # process opted into obs.
        if metrics.active() is None:
            metrics.enable(metrics.MetricsRegistry())
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
        for thread_target in (self._ack_loop, self._refresh_loop,
                              self._watchdog_loop):
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
        # Before the fork: the new worker must hold back retirements
        # from its very first moment, not from its first ack.
        self.publisher.register_worker(index)
        with self._lock:
            incarnation = self._incarnations.get(index, 0) + 1
            self._incarnations[index] = incarnation
        generation = self.publisher.generation
        # Stamp the spawn so the worker's "ready" ack reports its
        # fork-to-ready latency on the fleet surface.
        self.fleet.note_sync_sent(generation)
        process = self._context.Process(
            target=_worker_main,
            name=f"arcs-worker-{index}",
            args=(index, self.worker_count, self._socket,
                  self.registry.directory, self.prefix,
                  generation, incarnation, self.config,
                  child_end, self._acks),
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
        """Graceful shutdown: drain workers, join them, release blocks."""
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
        self.publisher.close()
        self._socket.close()
        metrics.set_gauge("serve.workers", 0)
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
                self.publisher.note_ack(index, rest[0])
                self.fleet.note_sync_ack(index, rest[0])
                self._ready.release()
            elif kind == "synced":
                self.publisher.note_ack(index, rest[0])
                self.fleet.note_sync_ack(index, rest[0])
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

        The parent's own registry (publisher counters, restart totals,
        the ``fleet.*`` instruments) rides along labeled
        ``{worker="parent"}`` so nothing the parent observes is
        invisible fleet-wide.
        """
        registry = metrics.active()
        self.fleet.publish(
            self.fleet_path,
            registry.snapshot() if registry is not None else None,
        )

    def _refresh_loop(self) -> None:
        if self.refresh_interval <= 0:
            return
        while not self._stopping.wait(self.refresh_interval):
            try:
                self.poll_models()
            except Exception:
                logger.exception("model refresh failed; will retry")

    def poll_models(self) -> bool:
        """One hot-reload step: re-scan, publish, broadcast ``sync``.

        Returns whether anything changed.  Called by the refresh loop;
        public so tests (and callers embedding the server) can drive
        reloads deterministically.
        """
        if not self.registry.refresh():
            return False
        generation = self.publisher.sync(self.registry.models())
        self.fleet.note_sync_sent(generation)
        with self._lock:
            controls = dict(self._controls)
        for index, control in controls.items():
            try:
                control.send(("sync", generation))
            except (OSError, ValueError):
                logger.warning(
                    "cannot send sync to worker %d; it will restart",
                    index,
                )
        logger.info("hot reload: generation %d broadcast to %d workers",
                    generation, len(controls))
        return True

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
                self.publisher.reset_worker(index)
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
