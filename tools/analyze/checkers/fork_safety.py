"""``fork-safety``: what the child inherits and what must be re-armed.

With the ``fork`` start method the child process is a byte-for-byte
copy of the parent at fork time: every lock keeps its held/free state,
every buffered writer keeps its unflushed bytes, every thread simply
*vanishes* (only the forking thread survives).  PR 7 hit all three in
production code; this checker codifies them as rules over the call
graph so the next subsystem gets the diagnosis before review.

**A — threads before fork, no re-arm.**  A module that both starts
threads and forks is exposed to the classic posture: a vanished thread
was mid-critical-section and its locks are now wedged in the child.
The sanctioned pattern is registering re-arm hooks once,
``os.register_at_fork(after_in_child=...)``, which recreates the locks
the child inherits.  Reported at the fork site when the fork's module
registers no such hook anywhere.

**B — fork-inherited locks acquired by the child, no re-arm.**  The
child entry point (``Process(target=f)``) transitively acquires a
class-scoped or module lock that parent-side code also acquires: if
the fork lands while the parent holds it, the child deadlocks on first
touch.  Same remedy, same hook exemption.

**C — closing a fork-copied sink.**  The child's copy of a buffered
module-global sink (event log, open file) shares the parent's
unflushed buffer; a child-side ``close()``/``flush()`` writes those
bytes a second time (PR 7's duplicated event lines).  The sanctioned
idiom is a *forgetter* — rebinding the module global **without**
closing (``forget_events()``) before installing a fresh one.  Reported
when the child's reachable closure closes a module global and no
forgetter for that global is reachable from the same entry point (and
no ``after_in_child`` hook is registered by the forking module).

**D — open files crossing the fork boundary via args.**  A file object
passed in ``Process(args=...)`` shares its seek offset with the
parent.  Pass *names* or descriptors intended for sharing (sockets,
pipes, queues are exempt — pre-fork listener passing is the point of
the pattern).

Rules A–C hinge on the *absence* of a hook or forgetter, so they are
gated on ``result.complete`` — a partial scan (pre-commit's staged
files) cannot prove absence and stays silent.  Rule D is positive
evidence and always fires.
"""

from __future__ import annotations

from tools.analyze.driver import AnalysisResult, Checker, Finding

__all__ = ["ForkSafetyChecker"]


class ForkSafetyChecker(Checker):
    name = "fork-safety"
    description = ("fork-inherited threads/locks/sinks without re-arm "
                   "hooks, and handles crossing the fork boundary")
    interests = ()
    needs_callgraph = True

    def finalize(self, result: AnalysisResult) -> None:
        graph = result.callgraph
        if graph is None:
            return
        module_registers: set[str] = set()
        module_threads: dict[str, list[tuple[str, int]]] = {}
        for summary in graph.functions.values():
            if summary.registers_at_fork:
                module_registers.add(summary.module)
            for lineno, _daemon in summary.thread_starts:
                module_threads.setdefault(summary.module, []).append(
                    (summary.qualname, lineno))
        for summary in graph.functions.values():
            if not self.config.wants(summary.rel):
                continue
            for fork in summary.forks:
                if fork.kind == "spawn":
                    continue  # fork+exec replaces the image: A-D moot
                for name in fork.handle_args:
                    self._report(
                        result, summary.rel, fork.lineno,
                        f"file handle {name!r} passed into the "
                        f"child via Process args; the copy shares "
                        f"the parent's offset - pass a name or "
                        f"reopen in the child",
                    )
                if not result.complete:
                    continue
                registered = summary.module in module_registers
                if not registered:
                    threads = module_threads.get(summary.module, [])
                    if threads:
                        where = ", ".join(
                            f"{qual}():{line}"
                            for qual, line in sorted(threads)[:3])
                        self._report(
                            result, summary.rel, fork.lineno,
                            f"process forks here but "
                            f"{summary.module} also starts threads "
                            f"({where}); forked children inherit any "
                            f"lock a vanished thread held - register "
                            f"os.register_at_fork(after_in_child=...) "
                            f"re-arm hooks",
                        )
                self._check_child(result, graph, summary, fork,
                                  registered)

    # ------------------------------------------------------------------
    def _check_child(self, result: AnalysisResult, graph, summary,
                     fork, registered: bool) -> None:
        if not fork.child_targets:
            return
        closure: set[str] = set()
        for target in fork.child_targets:
            if target.startswith("@"):
                continue  # unresolved (dotted/attr) entry point
            closure |= graph.reachable(target)
        if not closure:
            return
        # Rule B: fork-inherited locks the child re-acquires.
        if not registered:
            child_locks: set[str] = set()
            for target in fork.child_targets:
                if not target.startswith("@"):
                    child_locks |= graph.transitive_locks(target)
            parent_locks: set[str] = set()
            for other in graph.functions.values():
                if other.key in closure:
                    continue
                parent_locks.update(
                    acq.token for acq in other.acquires)
            shared = sorted(child_locks & parent_locks)
            if shared:
                names = ", ".join(
                    ".".join(t.split(".")[-2:]) for t in shared[:4])
                self._report(
                    result, summary.rel, fork.lineno,
                    f"child entry point re-acquires fork-inherited "
                    f"lock(s) {names} that parent-side code also "
                    f"holds; a fork landing inside the parent's "
                    f"critical section deadlocks the child - "
                    f"recreate them in an after_in_child hook",
                )
        # Rule C: closing a fork-copied buffered sink.
        if registered:
            return
        forgotten: set[tuple[str, str]] = set()
        closed: dict[tuple[str, str], tuple[str, int]] = {}
        for key in closure:
            reached = graph.functions.get(key)
            if reached is None:
                continue
            for name in reached.forgets_globals:
                forgotten.add((reached.module, name))
            for name in reached.closes_globals:
                closed.setdefault((reached.module, name),
                                  (reached.qualname, reached.lineno))
        for (module, name), (qual, _line) in sorted(closed.items()):
            if (module, name) in forgotten:
                continue
            self._report(
                result, summary.rel, fork.lineno,
                f"child entry point reaches {qual}(), which closes/"
                f"flushes module global {module}.{name}; the child's "
                f"copy shares the parent's unflushed buffer and "
                f"flushes it twice - drop the inherited instance "
                f"first (rebind without closing) or reopen it in an "
                f"after_in_child hook",
            )

    def _report(self, result: AnalysisResult, rel: str, lineno: int,
                message: str) -> None:
        result.findings.append(Finding(
            path=rel, line=lineno, col=1, checker=self.name,
            message=message,
        ))
