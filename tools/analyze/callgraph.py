"""The interprocedural layer: function summaries and a call graph.

The per-file checkers in this package see one statement at a time; the
concurrency and resource-safety checkers (``lock-order``,
``fork-safety``) need to reason about what happens *across* calls — a
lock acquired here while another is held three frames up, a fork whose
child entry point eventually touches a parent-side sink.  This module
builds that view once per run:

* every function and method in the scanned files gets a
  :class:`FunctionSummary` — the locks it acquires (and in what nesting
  context), the calls it makes (and what locks are held at each call
  site), the threads/processes it spawns, the fork hooks it registers,
  and the module globals it closes or rebinds;
* call sites are resolved to summaries through a deliberately small
  amount of type inference layered on the driver's
  :class:`~tools.analyze.driver.ImportMap`:

  - ``module.func(...)`` / ``from m import f; f(...)`` resolve through
    the import aliases;
  - ``self.method(...)`` resolves within the enclosing class;
  - ``self.attr.method(...)`` resolves when ``__init__`` assigns
    ``self.attr = SomeClass(...)`` (or annotates ``attr: SomeClass``);
  - ``var.method(...)`` resolves when ``var`` is assigned a known
    constructor, a typed module global, or a typed ``self`` attribute
    in the same function;

* :meth:`CallGraph.transitive_locks` and :meth:`CallGraph.reachable`
  answer the two questions the checkers ask, with memoised fixpoints.

**What the graph cannot resolve** (documented limitations, shared by
every static analyser of this weight class): dynamic dispatch through
callbacks or ``getattr``, ``*args`` forwarding, relative imports,
monkey-patching, and types that only exist at runtime.  Unresolved
calls simply contribute no edges — the checkers built on the graph err
toward silence, never toward guessing.

Lock identity is **class-scoped**: every instance of ``C`` shares the
token for ``self._lock``.  That is the standard abstraction for lock-
order analysis (two *instances* of the same class interleaving their
locks is reported the same as one), and it keeps tokens stable across
files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from tools.analyze.driver import FileContext, ImportMap

__all__ = [
    "CallGraph",
    "CallGraphBuilder",
    "CallSite",
    "ForkSite",
    "FunctionSummary",
    "LockAcquisition",
    "module_name_for",
]

#: threading primitives that participate in lock ordering.  Event and
#: Semaphore waits can deadlock too, but ordering analysis is about
#: mutual-exclusion primitives; the rest stay out of the token space.
_LOCK_CONSTRUCTORS = {
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "threading.Condition": "Condition",
    "multiprocessing.Lock": "Lock",
    "multiprocessing.RLock": "RLock",
}

#: Raw dotted names that fork the process (fork start method: the child
#: inherits every lock and buffer in whatever state it was in).
_FORK_CALLS = {"os.fork", "os.forkpty", "pty.fork"}

#: Raw dotted names that fork+exec: the exec replaces the image, but a
#: held lock still stalls the window between fork and exec (and
#: ``posix_spawn`` is not guaranteed), so they count for held-across.
_SPAWN_CALLS = {
    "subprocess.Popen", "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
}

#: Resource-like constructors the summaries record for module globals
#: (the fork-safety sink analysis needs to know a module-level name is
#: a buffered writer).
_SINK_CONSTRUCTORS = {"open", "io.open", "os.fdopen", "gzip.open"}


def module_name_for(rel: str) -> str:
    """The dotted module name of a repo-relative path.

    ``src/repro/serve/workers.py`` → ``repro.serve.workers``;
    files outside ``src/`` keep their path spine
    (``benchmarks/perf_budget.py`` → ``benchmarks.perf_budget``).
    """
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class LockAcquisition:
    """One lock acquisition inside a function."""

    token: str
    lineno: int
    #: Tokens already held (lexically) when this one is taken.
    held: tuple[str, ...]
    #: Whether the primitive is reentrant (RLock): self-edges are fine.
    reentrant: bool = False


@dataclass(frozen=True)
class CallSite:
    """One call expression, with resolution candidates and held locks."""

    lineno: int
    #: The dotted name through the import map, when the callee is rooted
    #: in an import (``os.fork``, ``repro.obs.metrics.inc``); None for
    #: locals/attributes the map cannot see.
    raw: str | None
    #: Candidate summary keys this call may land on (empty when
    #: unresolvable).
    targets: tuple[str, ...]
    #: Lock tokens held at the call site.
    held: tuple[str, ...]
    #: ``x.join()`` flavoured call on a thread/process-typed receiver.
    blocking_join: bool = False


@dataclass(frozen=True)
class ForkSite:
    """A point where the process forks (or forks+execs)."""

    lineno: int
    kind: str                    # "fork" | "process-start" | "spawn"
    held: tuple[str, ...]
    #: Summary keys of the child entry point (``Process(target=f)``).
    child_targets: tuple[str, ...] = ()
    #: Names of locals holding open files, passed to the child via
    #: ``args=``.
    handle_args: tuple[str, ...] = ()


@dataclass
class FunctionSummary:
    """Everything the interprocedural checkers need about one function."""

    key: str                      # "<module>:<qualname>"
    rel: str
    module: str
    qualname: str
    lineno: int
    cls: str | None = None
    acquires: list[LockAcquisition] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    forks: list[ForkSite] = field(default_factory=list)
    #: ``threading.Thread(...).start()`` sites: (lineno, daemon) where
    #: daemon is True/False when the kwarg is a literal, None otherwise.
    thread_starts: list[tuple[int, bool | None]] = field(
        default_factory=list)
    #: Registers an ``os.register_at_fork(after_in_child=...)`` hook.
    registers_at_fork: bool = False
    #: Module globals this function calls ``.close()``/``.flush()`` on.
    closes_globals: set[str] = field(default_factory=set)
    #: Module globals this function rebinds *without* closing first
    #: (the fork-safe "forget the inherited instance" idiom).
    forgets_globals: set[str] = field(default_factory=set)


class CallGraph:
    """The resolved whole-run view; built by :class:`CallGraphBuilder`."""

    def __init__(self, functions: dict[str, FunctionSummary],
                 by_dotted: dict[str, str],
                 module_sinks: dict[str, set[str]]):
        self.functions = functions
        #: dotted runtime name -> summary key, for raw-call resolution.
        self.by_dotted = by_dotted
        #: module -> names of module globals holding buffered sinks.
        self.module_sinks = module_sinks
        self._transitive_locks: dict[str, frozenset[str]] = {}
        self._transitive_forks: dict[str, tuple[ForkSite, ...]] = {}

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_call(self, site: CallSite) -> list[FunctionSummary]:
        """The summaries a call site may land on (possibly empty)."""
        keys: list[str] = list(site.targets)
        if site.raw is not None:
            key = self.by_dotted.get(site.raw)
            if key is not None:
                keys.append(key)
        seen: list[FunctionSummary] = []
        for key in keys:
            summary = self.functions.get(key)
            if summary is not None and summary not in seen:
                seen.append(summary)
        return seen

    # ------------------------------------------------------------------
    # Fixpoints
    # ------------------------------------------------------------------
    def transitive_locks(self, key: str) -> frozenset[str]:
        """Every lock token ``key`` may acquire, through any call chain."""
        return self._locks_fixpoint(key, set())

    def _locks_fixpoint(self, key: str,
                        visiting: set[str]) -> frozenset[str]:
        cached = self._transitive_locks.get(key)
        if cached is not None:
            return cached
        if key in visiting:
            return frozenset()  # cycle: the outer frame finishes it
        summary = self.functions.get(key)
        if summary is None:
            return frozenset()
        visiting.add(key)
        tokens = {acq.token for acq in summary.acquires}
        for site in summary.calls:
            for callee in self.resolve_call(site):
                tokens |= self._locks_fixpoint(callee.key, visiting)
        visiting.discard(key)
        result = frozenset(tokens)
        if not visiting:  # only cache complete (non-cyclic) answers
            self._transitive_locks[key] = result
        return result

    def transitive_forks(self, key: str) -> tuple[ForkSite, ...]:
        """Fork sites reachable from ``key`` (itself included)."""
        cached = self._transitive_forks.get(key)
        if cached is not None:
            return cached
        sites: list[ForkSite] = []
        for reached_key in self.reachable(key):
            summary = self.functions.get(reached_key)
            if summary is not None:
                sites.extend(summary.forks)
        result = tuple(sites)
        self._transitive_forks[key] = result
        return result

    def reachable(self, key: str) -> set[str]:
        """Summary keys reachable from ``key`` through resolved calls,
        including ``key`` itself."""
        seen: set[str] = set()
        stack = [key]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            summary = self.functions.get(current)
            if summary is None:
                continue
            for site in summary.calls:
                for callee in self.resolve_call(site):
                    if callee.key not in seen:
                        stack.append(callee.key)
        return seen


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
class _ModuleIndex:
    """Per-file name environment: classes, attr types, global types."""

    def __init__(self, module: str, tree: ast.AST, imports: ImportMap):
        self.module = module
        self.imports = imports
        #: class name -> {method name}
        self.classes: dict[str, set[str]] = {}
        #: class name -> attr -> dotted class name ("module.Class")
        self.attr_types: dict[str, dict[str, str]] = {}
        #: class name -> attr -> lock kind ("Lock"/"RLock"/...)
        self.attr_locks: dict[str, dict[str, str]] = {}
        #: module global -> dotted class name
        self.global_types: dict[str, str] = {}
        #: module globals that are lock primitives -> kind
        self.global_locks: dict[str, str] = {}
        #: module globals holding buffered sinks (open()/annotated sink)
        self.global_sinks: set[str] = set()
        #: module-level function names defined here
        self.functions: set[str] = set()
        self._scan(tree)

    # -- constructor/type helpers --------------------------------------
    def resolve_constructor(self, call: ast.expr) -> str | None:
        """``SomeClass(...)`` → dotted class name, local or imported."""
        if not isinstance(call, ast.Call):
            return None
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.classes:
                return f"{self.module}.{func.id}"
            resolved = self.imports.resolve(func)
            return resolved
        resolved = self.imports.resolve(func)
        return resolved

    def lock_kind(self, call: ast.expr) -> str | None:
        resolved = (self.imports.resolve(call.func)
                    if isinstance(call, ast.Call) else None)
        if resolved is None:
            return None
        return _LOCK_CONSTRUCTORS.get(resolved)

    def annotation_type(self, annotation: ast.expr | None) -> str | None:
        """``X``, ``X | None`` or ``Optional[X]`` → dotted name of X."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(
                annotation.op, ast.BitOr):
            for side in (annotation.left, annotation.right):
                found = self.annotation_type(side)
                if found is not None:
                    return found
            return None
        if (isinstance(annotation, ast.Subscript)
                and isinstance(annotation.value, ast.Name)
                and annotation.value.id == "Optional"):
            return self.annotation_type(annotation.slice)
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            try:
                return self.annotation_type(
                    ast.parse(annotation.value, mode="eval").body)
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Name):
            if annotation.id == "None":
                return None
            if annotation.id in self.classes:
                return f"{self.module}.{annotation.id}"
            return self.imports.resolve(annotation)
        if isinstance(annotation, ast.Attribute):
            return self.imports.resolve(annotation)
        return None

    def parameter_types(self, method: ast.AST) -> dict[str, str]:
        """Annotated parameters of a function → dotted class names."""
        types: dict[str, str] = {}
        args = method.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            found = self.annotation_type(arg.annotation)
            if found is not None:
                types[arg.arg] = found
        return types

    # -- scanning ------------------------------------------------------
    def _scan(self, tree: ast.AST) -> None:
        for node in tree.body if isinstance(tree, ast.Module) else []:
            if isinstance(node, ast.ClassDef):
                methods = {
                    child.name for child in node.body
                    if isinstance(child,
                                  (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                self.classes[node.name] = methods
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.add(node.name)
        # Second pass (classes must all be known first): attribute and
        # global types.
        for node in tree.body if isinstance(tree, ast.Module) else []:
            if isinstance(node, ast.ClassDef):
                self._scan_class(node)
            elif isinstance(node, ast.Assign):
                self._scan_global_assign(node)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                typed = self.annotation_type(node.annotation)
                if typed is not None:
                    self.global_types[node.target.id] = typed

    def _scan_global_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            kind = self.lock_kind(node.value)
            if kind is not None:
                self.global_locks[target.id] = kind
                continue
            if isinstance(node.value, ast.Call):
                resolved = (self.imports.resolve(node.value.func)
                            or (node.value.func.id
                                if isinstance(node.value.func, ast.Name)
                                else None))
                if resolved in _SINK_CONSTRUCTORS:
                    self.global_sinks.add(target.id)
                    continue
            ctor = self.resolve_constructor(node.value)
            if ctor is not None:
                self.global_types[target.id] = ctor

    def _scan_class(self, node: ast.ClassDef) -> None:
        attr_types = self.attr_types.setdefault(node.name, {})
        attr_locks = self.attr_locks.setdefault(node.name, {})
        for method in node.body:
            if not isinstance(method,
                              (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_types = self.parameter_types(method)
            for stmt in ast.walk(method):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(
                        stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                    annotation = stmt.annotation
                if (not isinstance(target, ast.Attribute)
                        or not isinstance(target.value, ast.Name)
                        or target.value.id != "self"):
                    continue
                attr = target.attr
                kind = self.lock_kind(value) if value is not None else None
                if kind is not None:
                    attr_locks.setdefault(attr, kind)
                    continue
                ctor = (self.resolve_constructor(value)
                        if value is not None else None)
                if ctor is None:
                    ctor = self.annotation_type(annotation)
                if (ctor is None and isinstance(value, ast.Name)):
                    # self.index = index, where index is an annotated
                    # parameter: the dependency-injection idiom.
                    ctor = param_types.get(value.id)
                if ctor is not None:
                    attr_types.setdefault(attr, ctor)


class CallGraphBuilder:
    """Accumulates one :class:`FunctionSummary` per function, then
    resolves the whole-run :class:`CallGraph`."""

    def __init__(self) -> None:
        self._summaries: dict[str, FunctionSummary] = {}
        self._by_dotted: dict[str, str] = {}
        self._module_sinks: dict[str, set[str]] = {}
        #: dotted class name -> (module, class) for attr-type joins
        self._class_index: dict[str, tuple[_ModuleIndex, str]] = {}
        self._indexes: list[tuple[FileContext, _ModuleIndex]] = []

    def add_file(self, ctx: FileContext) -> None:
        module = module_name_for(ctx.rel)
        index = _ModuleIndex(module, ctx.tree, ctx.imports)
        self._indexes.append((ctx, index))
        for cls in index.classes:
            self._class_index[f"{module}.{cls}"] = (index, cls)
        if index.global_sinks:
            self._module_sinks[module] = set(index.global_sinks)

    def build(self) -> CallGraph:
        for ctx, index in self._indexes:
            self._summarise_module(ctx, index)
        self._resolve_placeholders()
        return CallGraph(self._summaries, self._by_dotted,
                         self._module_sinks)

    def _resolve_placeholders(self) -> None:
        """Translate ``@method:``/``@dotted:`` placeholder targets
        (recorded before all classes were indexed) into summary keys;
        unresolvable ones are dropped — silence over guessing."""
        import dataclasses

        def translate(targets: tuple[str, ...]) -> tuple[str, ...]:
            out: list[str] = []
            for target in targets:
                if target.startswith("@method:"):
                    dotted, _, method = target[8:].rpartition(".")
                    key = self.method_key(dotted, method)
                    if key is not None:
                        out.append(key)
                elif target.startswith("@dotted:"):
                    key = self._by_dotted.get(target[8:])
                    if key is not None:
                        out.append(key)
                else:
                    out.append(target)
            return tuple(out)

        for summary in self._summaries.values():
            summary.calls = [
                dataclasses.replace(site,
                                    targets=translate(site.targets))
                for site in summary.calls
            ]
            summary.forks = [
                dataclasses.replace(
                    fork, child_targets=translate(fork.child_targets))
                for fork in summary.forks
            ]

    # ------------------------------------------------------------------
    def _summarise_module(self, ctx: FileContext,
                          index: _ModuleIndex) -> None:
        module = index.module
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarise_function(ctx, index, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        self._summarise_function(
                            ctx, index, method, cls=node.name)
        # Top-level statements get a <module> pseudo-summary: import-
        # time forks, register_at_fork hook installs and module-level
        # lock use all count (def/class bodies are excluded - they are
        # summarised above and run at call time, not import time).
        summary = FunctionSummary(
            key=f"{module}:<module>", rel=ctx.rel, module=module,
            qualname="<module>", lineno=1,
        )
        self._summaries[summary.key] = summary
        walker = _FunctionWalker(summary, index, cls=None)
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                walker._walk(node, held=())

    def _summarise_function(self, ctx: FileContext, index: _ModuleIndex,
                            node: ast.AST, cls: str | None) -> None:
        module = index.module
        qualname = f"{cls}.{node.name}" if cls else node.name
        key = f"{module}:{qualname}"
        summary = FunctionSummary(
            key=key, rel=ctx.rel, module=module, qualname=qualname,
            lineno=node.lineno, cls=cls,
        )
        self._summaries[key] = summary
        self._by_dotted[f"{module}.{qualname}"] = key
        walker = _FunctionWalker(summary, index, cls)
        walker.run(node)

    # Exposed for checkers that resolve class methods from attr types.
    def method_key(self, dotted_class: str, method: str) -> str | None:
        entry = self._class_index.get(dotted_class)
        if entry is None:
            return None
        index, cls = entry
        if method in index.classes.get(cls, ()):
            return f"{index.module}:{cls}.{method}"
        return None


class _FunctionWalker:
    """One pass over a function body, tracking held locks and local
    types along the way."""

    def __init__(self, summary: FunctionSummary, index: _ModuleIndex,
                 cls: str | None):
        self.summary = summary
        self.index = index
        self.cls = cls
        self.module = index.module
        #: local name -> dotted class name
        self.local_types: dict[str, str] = {}
        #: local name -> lock token (locals holding lock primitives)
        self.local_locks: dict[str, str] = {}
        #: local name -> lock kind for the above
        self.local_lock_kinds: dict[str, str] = {}
        #: locals holding threading.Thread instances: name -> daemon
        self.local_threads: dict[str, bool | None] = {}
        #: locals holding process objects (mp.Process flavoured)
        self.local_processes: dict[str, ast.Call] = {}
        #: locals holding open file handles
        self.local_handles: set[str] = set()
        #: globals declared with ``global X``
        self.declared_globals: set[str] = set()
        self._closed_globals_before_rebind: set[str] = set()

    # ------------------------------------------------------------------
    def run(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.local_types.update(
                self.index.parameter_types(node))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.arguments):
                continue
            self._walk(child, held=())
        # A global rebound in this function without a prior close of
        # the same global is the "forget" idiom.
        for name in self.declared_globals:
            if (name in self._rebound_globals
                    and name not in self._closed_globals_before_rebind):
                self.summary.forgets_globals.add(name)

    _rebound_globals: set[str]

    def _walk(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if not hasattr(self, "_rebound_globals"):
            self._rebound_globals = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Nested functions run later (callbacks); their lock usage
            # is summarised separately only for defs at module/class
            # level.  Walk them with an empty held set so a callback's
            # acquisitions don't look nested under the definer's locks.
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.arguments):
                    self._walk(child, held=())
            return
        if isinstance(node, ast.Global):
            self.declared_globals.update(node.names)
        if isinstance(node, ast.With):
            self._walk_with(node, held)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._note_assign(node)
        if isinstance(node, ast.Call):
            self._note_call(node, held)
        for child in ast.iter_child_nodes(node):
            self._walk(child, held)

    # ------------------------------------------------------------------
    def _walk_with(self, node: ast.With, held: tuple[str, ...]) -> None:
        inner = held
        for item in node.items:
            token, reentrant = self._lock_token(item.context_expr)
            if token is not None:
                self.summary.acquires.append(LockAcquisition(
                    token=token, lineno=node.lineno, held=inner,
                    reentrant=reentrant,
                ))
                inner = (*inner, token)
            # The context expression itself may contain calls.
            self._walk_expr_children(item.context_expr, held)
        for child in node.body:
            self._walk(child, inner)

    def _walk_expr_children(self, expr: ast.expr,
                            held: tuple[str, ...]) -> None:
        for child in ast.walk(expr):
            if isinstance(child, ast.Call):
                self._note_call(child, held)

    # ------------------------------------------------------------------
    # Lock identity
    # ------------------------------------------------------------------
    def _lock_token(self,
                    expr: ast.expr) -> tuple[str | None, bool]:
        """Canonical token for a lock-valued expression, or ``None``."""
        # with self._lock:  /  with self.anything_lock:
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and self.cls is not None):
            kind = self.index.attr_locks.get(self.cls, {}).get(expr.attr)
            if kind is not None:
                return (f"{self.module}.{self.cls}.{expr.attr}",
                        kind == "RLock")
            if "lock" in expr.attr.lower():
                return f"{self.module}.{self.cls}.{expr.attr}", False
            return None, False
        # with other.attr_lock: (typed attribute of known class)
        if isinstance(expr, ast.Attribute):
            owner_type = self._expr_type(expr.value)
            if owner_type is not None:
                entry = self.index.attr_locks.get(
                    owner_type.rsplit(".", 1)[-1])
                kind = (entry or {}).get(expr.attr)
                if kind is not None or "lock" in expr.attr.lower():
                    return (f"{owner_type}.{expr.attr}",
                            kind == "RLock")
            return None, False
        if isinstance(expr, ast.Name):
            token = self.local_locks.get(expr.id)
            if token is not None:
                kind = self.local_lock_kinds.get(expr.id, "Lock")
                return token, kind == "RLock"
            kind = self.index.global_locks.get(expr.id)
            if kind is not None:
                return f"{self.module}.{expr.id}", kind == "RLock"
            return None, False
        # with threading.Lock():  (anonymous per-call primitive)
        if isinstance(expr, ast.Call):
            kind = self.index.lock_kind(expr)
            if kind is not None:
                token = (f"{self.module}.{self.summary.qualname}"
                         f".<anonymous@{expr.lineno}>")
                return token, kind == "RLock"
        return None, False

    def _expr_type(self, expr: ast.expr) -> str | None:
        """Dotted class name of an expression, where inference can."""
        if isinstance(expr, ast.Name):
            found = self.local_types.get(expr.id)
            if found is not None:
                return found
            return self.index.global_types.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and self.cls is not None):
            return self.index.attr_types.get(self.cls, {}).get(expr.attr)
        return None

    # ------------------------------------------------------------------
    # Statement notes
    # ------------------------------------------------------------------
    def _note_assign(self, node: ast.Assign | ast.AnnAssign) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        value = node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name in self.declared_globals:
                self._rebound_globals.add(name)
                if name in self.summary.closes_globals:
                    self._closed_globals_before_rebind.add(name)
            if value is None:
                continue
            kind = self.index.lock_kind(value)
            if kind is not None:
                token = (f"{self.module}.{self.summary.qualname}.{name}")
                self.local_locks[name] = token
                self.local_lock_kinds[name] = kind
                continue
            if isinstance(value, ast.Call):
                resolved = self.index.imports.resolve(value.func)
                if resolved == "threading.Thread":
                    self.local_threads[name] = _literal_kwarg(
                        value, "daemon")
                    continue
                if (resolved in _SINK_CONSTRUCTORS
                        or (isinstance(value.func, ast.Name)
                            and value.func.id == "open")):
                    self.local_handles.add(name)
                    continue
                if _is_process_ctor(value, resolved):
                    self.local_processes[name] = value
                    continue
            ctor = self.index.resolve_constructor(value)
            if ctor is not None:
                self.local_types[name] = ctor
                continue
            inferred = self._expr_type(value)
            if inferred is not None:
                self.local_types[name] = inferred

    def _note_call(self, node: ast.Call,
                   held: tuple[str, ...]) -> None:
        raw = self.index.imports.resolve(node.func)
        func = node.func
        targets: list[str] = []
        blocking_join = False

        if isinstance(func, ast.Name):
            if func.id in self.index.functions:
                targets.append(f"{self.module}:{func.id}")
            if raw is None and func.id in self.index.classes:
                init = f"{self.module}:{func.id}.__init__"
                targets.append(init)
        elif isinstance(func, ast.Attribute):
            owner = func.value
            method = func.attr
            if (isinstance(owner, ast.Name) and owner.id == "self"
                    and self.cls is not None):
                if method in self.index.classes.get(self.cls, ()):
                    targets.append(f"{self.module}:{self.cls}.{method}")
            else:
                owner_type = self._expr_type(owner)
                if owner_type is not None:
                    targets.append(
                        f"@method:{owner_type}.{method}")
                if isinstance(owner, ast.Name):
                    if method == "start" and owner.id in (
                            self.local_processes):
                        self._note_fork(node, held,
                                        self.local_processes[owner.id])
                    if method == "start" and owner.id in (
                            self.local_threads):
                        self.summary.thread_starts.append(
                            (node.lineno, self.local_threads[owner.id]))
                    if method == "join" and (
                            owner.id in self.local_threads
                            or owner.id in self.local_processes):
                        blocking_join = True
                    if (method in ("close", "flush")
                            and self._is_module_sink(owner.id)):
                        self.summary.closes_globals.add(owner.id)
                elif (isinstance(owner, ast.Attribute)
                        and method in ("join",)):
                    owner_type2 = self._expr_type(owner)
                    if owner_type2 in ("threading.Thread",
                                       "multiprocessing.Process"):
                        blocking_join = True

        # Direct Thread(...).start() / Process(...).start() chains.
        if (isinstance(func, ast.Attribute) and func.attr == "start"
                and isinstance(func.value, ast.Call)):
            inner_raw = self.index.imports.resolve(func.value.func)
            if inner_raw == "threading.Thread":
                self.summary.thread_starts.append(
                    (node.lineno, _literal_kwarg(func.value, "daemon")))
            elif _is_process_ctor(func.value, inner_raw):
                self._note_fork(node, held, func.value)

        if raw is not None:
            if raw in _FORK_CALLS:
                self.summary.forks.append(ForkSite(
                    lineno=node.lineno, kind="fork", held=held))
            elif raw in _SPAWN_CALLS:
                self.summary.forks.append(ForkSite(
                    lineno=node.lineno, kind="spawn", held=held))
            elif raw == "os.register_at_fork" and any(
                    kw.arg == "after_in_child" for kw in node.keywords):
                self.summary.registers_at_fork = True
            elif raw == "threading.Thread":
                pass  # creation alone; .start() is the event

        self.summary.calls.append(CallSite(
            lineno=node.lineno, raw=raw, targets=tuple(targets),
            held=held, blocking_join=blocking_join,
        ))

    def _is_module_sink(self, name: str) -> bool:
        """Whether ``name`` denotes a module global (checkers decide
        which globals are *buffered sinks*; the summary just records
        the close)."""
        return (name in self.index.global_sinks
                or name in self.index.global_types
                or name in self.declared_globals
                or name in self.index.global_locks)

    def _note_fork(self, node: ast.Call, held: tuple[str, ...],
                   ctor: ast.Call) -> None:
        child_targets: list[str] = []
        handle_args: list[str] = []
        for kw in ctor.keywords:
            if kw.arg == "target":
                target_keys = self._callable_keys(kw.value)
                child_targets.extend(target_keys)
            elif kw.arg == "args" and isinstance(
                    kw.value, (ast.Tuple, ast.List)):
                for element in kw.value.elts:
                    if (isinstance(element, ast.Name)
                            and element.id in self.local_handles):
                        handle_args.append(element.id)
        self.summary.forks.append(ForkSite(
            lineno=node.lineno, kind="process-start", held=held,
            child_targets=tuple(child_targets),
            handle_args=tuple(handle_args),
        ))

    def _callable_keys(self, expr: ast.expr) -> list[str]:
        if isinstance(expr, ast.Name):
            if expr.id in self.index.functions:
                return [f"{self.module}:{expr.id}"]
            resolved = self.index.imports.resolve(expr)
            if resolved is not None:
                return [f"@dotted:{resolved}"]
        if isinstance(expr, ast.Attribute):
            if (isinstance(expr.value, ast.Name)
                    and expr.value.id == "self" and self.cls is not None
                    and expr.attr in self.index.classes.get(
                        self.cls, ())):
                return [f"{self.module}:{self.cls}.{expr.attr}"]
            resolved = self.index.imports.resolve(expr)
            if resolved is not None:
                return [f"@dotted:{resolved}"]
        return []


def _is_process_ctor(call: ast.Call, resolved: str | None) -> bool:
    """``multiprocessing.Process(...)`` or ``<ctx>.Process(...)``."""
    if resolved in ("multiprocessing.Process",
                    "multiprocessing.context.Process"):
        return True
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "Process"
            and any(kw.arg == "target" for kw in call.keywords))


def _literal_kwarg(call: ast.Call, name: str) -> bool | None:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            value = kw.value.value
            if isinstance(value, bool):
                return value
    return None
