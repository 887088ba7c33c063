"""One persistent forked helper process for the threshold search.

Given a search's rule measures and the verifier's samples, an optimizer
trial is a pure function of its two thresholds, so the trials of one
support level do not depend on each other.
:class:`~repro.core.optimizer.HeuristicOptimizer` therefore splits each
support level's confidences between the fit process and one helper
process.  They alternate, because low-confidence trials are the heavy
ones: the fit process runs confidences ``0, 2, 4...`` of the level,
starting with the heaviest, because the helper also pays for the
pipe; the helper runs ``1, 3, 5...``.  The fit process then reads the
helper's records and consumes the whole level in lattice order.  The
patience stop, the history, the winner and the content hash are
exactly the serial loop's, which stays as the oracle and runs whenever
the helper is not chosen.

**Lifecycle.**  The helper is forked once, at the first eligible search,
through the ``fork`` start method only (a ``forkserver`` or ``spawn``
start re-imports the caller's ``__main__``).  It exits on pipe EOF, so
it dies with the fit process even when that one is SIGKILLed, and an
``atexit`` hook closes the pipe and joins it on a normal exit.  An
``os.register_at_fork`` child hook gives every process the fit process
forks later no helper handle (and closes its copy of the pipe), next
to the obs lock re-arm hooks that :mod:`repro.serve.workers` uses.

**Selection** reads only what the process can observe: at least 2 CPUs
in its affinity mask, no other live thread at fork time, no time
budget on the search, a grid of at least :data:`MIN_GRID_CELLS` cells,
the ``repro`` logger below DEBUG (a trial's debug records come from one
process, in lattice order), the helper idle (a non-blocking lock), and
not being the helper itself.  There is no option to turn it on or off.

**What crosses the pipe.**  Per search, grid-sized state only — the
rule measures (with their BinArray), the clusterer, the MDL weights
and the verifier's :class:`~repro.core.verifier.SampleCells` — never
the table.  Per level, the helper's confidences go out, and back come
its :class:`~repro.core.optimizer.TrialRecord`\\ s, the level's metric
deltas (a snapshot of a registry swapped in for the level, merged into
the fit process's active registry) and each trial's ``optimizer.trial``
span subtree, spliced into the search span in lattice order.  A
trial's clustering outcome comes back only when it ends up the winner.
Every request carries an increasing id and every reply echoes it, so a
reply left unread by an interrupted search is discarded, never read as
a later search's answer.

**Failure.**  When the helper dies or answers with an error, the fit
process logs a warning, counts ``optimizer.helper_failures``, retires
the helper for the life of the process, and runs the missing trials
itself: the search finishes serially with the same result.
"""

from __future__ import annotations

import atexit
import contextvars
import gc
import logging
import multiprocessing
import os
import pickle
import signal
import threading
from contextlib import nullcontext
from dataclasses import dataclass

from repro.obs import events, metrics
from repro.obs.tracing import Span, current_span

logger = logging.getLogger(__name__)

#: Grid cells from which a search uses the helper.  On smaller grids a
#: trial costs no more than the round trip that ships the helper's half
#: of a level: on a 2-core x86_64 host, with both cores free, 8x8 grids
#: searched 9% faster with the helper, 6x6 broke even and 4x4 lost 52%
#: (``docs/performance.md``, "threshold search").
MIN_GRID_CELLS = 64

#: Test seam: ``True`` skips the CPU and grid-size gates, ``False``
#: keeps every search serial, ``None`` is the production rule.
_force: bool | None = None

_lock = threading.Lock()
_helper: "_Helper | None" = None
#: Set when a helper failed; no other is forked in this process.
_retired = False
_in_helper = False
_hooks_installed = False


@dataclass(frozen=True)
class RemoteOutcome:
    """Where the clustering outcome of a helper trial stays until the
    search asks for it: the request id of the trial's level and its
    position among the confidences the helper ran."""

    request: int
    position: int


def acquire(grid_cells: int) -> "_Helper | None":
    """The helper for one search, held until :meth:`_Helper.release`,
    or ``None`` when the search should run serially.  The caller has
    already ruled out a time budget."""
    if _in_helper or _retired or _force is False:
        return None
    if _force is None and (_cpus() < 2 or grid_cells < MIN_GRID_CELLS):
        return None
    if logging.getLogger("repro").isEnabledFor(logging.DEBUG):
        return None
    if not _lock.acquire(blocking=False):
        return None
    helper = _helper if _helper is not None else _start()
    if helper is None:
        _lock.release()
    return helper


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _start() -> "_Helper | None":
    """Fork the helper (the caller holds ``_lock``), or ``None`` when
    this process cannot fork it safely."""
    global _helper, _retired, _hooks_installed
    if (threading.active_count() > 1
            or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    if not _hooks_installed:
        _hooks_installed = True
        os.register_at_fork(after_in_child=metrics.reinit_after_fork)
        os.register_at_fork(after_in_child=events.reinit_after_fork)
        os.register_at_fork(after_in_child=_forget_in_child)
    try:
        _helper = _Helper()
    except OSError as error:
        logger.warning("search helper did not start (%s); threshold "
                       "searches run serially", error)
        metrics.inc("optimizer.helper_failures")
        _retired = True
        return None
    # Registered after multiprocessing's own exit hook, so it runs
    # first: that hook joins every child, and the helper only exits
    # once its pipe is closed.
    atexit.unregister(_shutdown)
    atexit.register(_shutdown)
    return _helper


def _forget_in_child() -> None:
    """``after_in_child`` hook: a forked child has no helper, its own
    lock, and no copy of the fit process's end of the pipe."""
    global _helper, _lock
    _lock = threading.Lock()
    helper, _helper = _helper, None
    if helper is not None:
        helper.conn.close()
        # Not this child's child: its exit must not join it.
        multiprocessing.process._children.discard(helper.process)


def _shutdown() -> None:
    """Close the pipe, so the helper exits, and join it."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.stop()


class HelperFailure(Exception):
    """The helper died or could not answer a request."""


class _Helper:
    """The fit process's handle on the helper: the process and its end
    of the pipe, plus the state of the search that holds it."""

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_helper_main, name="arcs-search-helper",
            args=(child_end, self.conn),
        )
        # The helper's collector never scans the objects it inherits,
        # so it does not write to (and copy) their pages.
        gc.freeze()
        try:
            self.process.start()
        except OSError:
            self.conn.close()
            raise
        finally:
            gc.unfreeze()
            child_end.close()
        self._request = 0
        self._traced = False
        self.remote_trials = 0

    # ------------------------------------------------------------------
    # One search
    # ------------------------------------------------------------------
    def begin(self, measures, clusterer, weights, cells) -> None:
        """Ship one search's grid-sized state; trial spans and metric
        deltas come back when the search records them."""
        self.remote_trials = 0
        self._traced = current_span() is not None
        try:
            self._send("search", measures, clusterer, weights, cells,
                       self._traced, metrics.active() is not None)
        except HelperFailure:
            pass  # retired: every level runs here

    def level(self, support: float, confidences: list[float],
              run_local) -> list[tuple]:
        """One support level's ``(trial, outcome)`` pairs in lattice
        order.  ``run_local(confidence)`` runs confidences ``0, 2,
        4...`` here while the helper runs the others; a helper trial's
        outcome is a :class:`RemoteOutcome`."""
        if len(confidences) < 2:
            return [run_local(confidence) for confidence in confidences]
        local, remote = confidences[0::2], confidences[1::2]
        search_span = current_span() if self._traced else None
        mark = len(search_span.children) if search_span else 0
        try:
            request = self._send("level", support, remote)
        except HelperFailure:
            request = None
        local_pairs = [run_local(confidence) for confidence in local]
        reply = None
        if request is not None:
            try:
                reply = self._receive(request)
            except HelperFailure:
                pass
        if reply is None:
            remote_pairs = [run_local(confidence) for confidence in remote]
            remote_spans = (search_span.children[mark + len(local):]
                            if search_span else [])
        else:
            records, span_dicts, snapshot = reply
            registry = metrics.active()
            if snapshot is not None and registry is not None:
                registry.merge_snapshot(snapshot)
            remote_pairs = [
                (record, RemoteOutcome(request, position))
                for position, record in enumerate(records)
            ]
            remote_spans = [Span.from_dict(d) for d in span_dicts or ()]
            self.remote_trials += len(records)
        if search_span:
            spans = [None] * len(confidences)
            spans[1::2] = remote_spans
            spans[0::2] = search_span.children[mark:mark + len(local)]
            search_span.children[mark:] = spans
        pairs = [None] * len(confidences)
        pairs[1::2] = remote_pairs
        pairs[0::2] = local_pairs
        return pairs

    def outcome(self, remote: RemoteOutcome) -> tuple | None:
        """The ``(raw_grid, smoothed_grid, clusters, pruning)`` of a
        helper trial, or ``None`` when the helper cannot send it."""
        try:
            return self._receive(self._send("outcome", remote.request,
                                            remote.position))
        except HelperFailure:
            return None

    def release(self) -> None:
        _lock.release()

    # ------------------------------------------------------------------
    # The pipe
    # ------------------------------------------------------------------
    def _send(self, kind: str, *payload) -> int:
        if _helper is not self:
            raise HelperFailure("retired")
        self._request += 1
        try:
            self.conn.send((kind, self._request, *payload))
        except (OSError, ValueError) as error:
            self._retire(f"send failed: {error!r}")
        return self._request

    def _receive(self, request: int):
        """The reply to ``request``; replies to earlier requests (left
        by an interrupted search) are discarded."""
        while True:
            try:
                kind, answered, *payload = self.conn.recv()
            except (EOFError, OSError, ValueError,
                    pickle.UnpicklingError) as error:
                self._retire(f"receive failed: {error!r}")
            if answered < request:
                continue
            if kind == "error":
                self._retire(f"helper error: {payload[0]}")
            return payload[0] if kind == "outcome" else payload

    def _retire(self, reason: str):
        """Record a failure and stop using the helper; raises
        :class:`HelperFailure` for the caller to fall back on."""
        global _helper, _retired
        logger.warning("search helper failed (%s); threshold searches "
                       "run serially from here", reason)
        metrics.inc("optimizer.helper_failures")
        _retired = True
        if _helper is self:
            _helper = None
            self.stop()
        raise HelperFailure(reason)

    def stop(self) -> None:
        """Close the pipe and join the helper (killing it after 1 s)."""
        self.conn.close()
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


# ----------------------------------------------------------------------
# The helper process
# ----------------------------------------------------------------------
def _helper_main(conn, parent_end) -> None:
    """Entry point of the helper: fresh observability state, no copy of
    the fit process's end of the pipe, and a loop until EOF."""
    global _in_helper
    _in_helper = True
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    metrics.disable()
    events.forget_events()
    # The fit process's current span and run capture live in the
    # forking thread's context; the helper starts from an empty one.
    contextvars.Context().run(_serve, conn)


def _serve(conn) -> None:
    search = None
    while True:
        try:
            kind, request, *payload = conn.recv()
        except EOFError:
            return
        if kind == "search":
            search = _RemoteSearch(*payload)
            continue
        try:
            if kind == "level":
                reply = ("level", request, *search.level(request, *payload))
            else:
                reply = ("outcome", request, search.outcome(*payload))
        # The fit process re-runs these trials itself, where the error
        # surfaces with its own traceback.
        except Exception as error:  # arcs-analyze: ignore[exception-policy]
            reply = ("error", request, f"{type(error).__name__}: {error}")
        conn.send(reply)


class _RemoteSearch:
    """The helper's side of one search: its state and the outcomes of
    the trials it ran, until the next search replaces them."""

    def __init__(self, measures, clusterer, weights, cells, traced,
                 counted):
        self.measures = measures
        self.clusterer = clusterer
        self.weights = weights
        self.cells = cells
        self.traced = traced
        self.counted = counted
        self.outcomes: dict[tuple[int, int], object] = {}

    def level(self, request: int, support: float,
              confidences: list[float]) -> tuple:
        from repro.core.optimizer import timed_trial

        registry = metrics.MetricsRegistry() if self.counted else None
        previous = metrics.swap_registry(registry)
        root = Span("optimizer.search")
        records = []
        try:
            with root if self.traced else nullcontext():
                for position, confidence in enumerate(confidences):
                    trial, outcome = timed_trial(
                        self.clusterer, self.cells, self.weights,
                        self.measures, support, confidence,
                    )
                    records.append(trial)
                    self.outcomes[request, position] = outcome
        finally:
            metrics.swap_registry(previous)
        spans = ([child.to_dict() for child in root.children]
                 if self.traced else None)
        snapshot = registry.snapshot() if registry is not None else None
        return records, spans, snapshot

    def outcome(self, request: int, position: int) -> tuple:
        outcome = self.outcomes[request, position]
        return (outcome.raw_grid, outcome.smoothed_grid, outcome.clusters,
                outcome.pruning)
