"""``concurrency``: the serving layer's shared-state discipline.

``repro.serve`` is a threaded server built on two conventions instead
of pervasive locking: state shared between request threads is either
**immutable after publication** (snapshot dicts swapped with one atomic
reference assignment, as in ``ModelRegistry._install``) or **guarded by
the owning object's ``self._lock``** (as in ``MetricsRegistry``).  This
checker machine-checks the conventions inside its configured roots:

* **unguarded writes to lock-guarded attributes** — if a class ever
  assigns ``self.attr`` inside a ``with self._lock:`` block, every
  other assignment to that attribute (outside ``__init__``) must be
  guarded too;
* **non-atomic read-modify-write** — ``self.attr += ...`` outside a
  lock is a race (two request threads interleave load and store), even
  though either plain assignment alone would be atomic under the GIL;
* **in-place mutation of published mappings** — ``self.attr[k] = v``,
  ``del self.attr[k]`` or dict mutators (``update``/``pop``/
  ``setdefault``/``popitem``/``clear``) outside a lock mutate a
  snapshot concurrent readers may hold; build a replacement and swap it
  in one assignment instead;
* **publish-then-mutate** — assigning a local container to a ``self``
  attribute *publishes* it to other threads; mutating that local
  afterwards in the same function mutates the published snapshot;
* **per-call synchronisation primitives** — ``threading.Lock()`` (or
  ``RLock``/``Condition``/``Event``/``Semaphore``/``Barrier``) created
  anywhere but ``__init__`` or module level guards nothing, because
  every call gets a fresh primitive — *unless the primitive escapes
  the call*: captured by a closure (a countdown lock shared by
  finalizer callbacks), assigned to an attribute (the
  ``reinit_after_fork`` re-arm idiom in ``repro.obs``), returned, or
  passed to another call all make the same object shared
  across calls, which is exactly what a primitive is for.  A fresh
  primitive used *directly* (``threading.Event().wait(t)`` as a sleep)
  synchronises nobody but also lies to nobody, and is exempt.

``__init__`` is exempt from the attribute rules: until the constructor
returns, no other thread can hold the object.  Three further
refinements keep the rules honest on real code:

* attributes that *are* threading primitives (``self._stop`` assigned
  ``threading.Event()`` in ``__init__``) are exempt from the mutator
  rule — ``self._stop.clear()`` is the primitive's own thread-safe
  API, not an unguarded dict mutation;
* a **private** method whose every intra-class call site sits under
  ``with self._lock:`` runs under the lock by construction
  (``EventSink._rotate``, called only from ``emit``), so its body is
  scanned as guarded;
* classes listed in the checker's ``external-sync`` option are skipped
  entirely: their docstrings document that a single owner serialises
  access (``TrafficWindow`` under ``TrafficMonitor``, the lock-less
  GIL-atomic metric instruments, the single-threaded stream pipeline).
  The justification lives in ``pyproject.toml`` next to the name — in
  config, not inline, so every waiver is reviewable in one place.
"""

from __future__ import annotations

import ast

from tools.analyze.driver import Checker, FileContext

__all__ = ["ConcurrencyChecker"]

_PRIMITIVES = {
    "Lock", "RLock", "Condition", "Event", "Semaphore",
    "BoundedSemaphore", "Barrier",
}

#: Mutators of dict-like snapshots (the structures this layer shares).
_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear"}

#: Mutators that matter once a local container has been published.
_ANY_MUTATORS = _DICT_MUTATORS | {
    "append", "extend", "insert", "remove", "add", "discard",
}


def _self_attr(node: ast.expr) -> str | None:
    """``self.attr`` -> ``"attr"``, else ``None``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _is_lock_item(item: ast.withitem) -> bool:
    attr = _self_attr(item.context_expr)
    return attr is not None and "lock" in attr.lower()


class ConcurrencyChecker(Checker):
    name = "concurrency"
    description = ("shared-state discipline in the threaded serving "
                   "layer (locks, snapshot immutability)")
    interests = (ast.Call, ast.ClassDef)

    # ------------------------------------------------------------------
    # Per-call-site rule: threading primitives created per call
    # ------------------------------------------------------------------
    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._check_primitive(ctx, node)
        elif isinstance(node, ast.ClassDef):
            self._check_class(ctx, node)

    def _check_primitive(self, ctx: FileContext, node: ast.Call) -> None:
        resolved = ctx.imports.resolve(node.func)
        if resolved is None or not resolved.startswith("threading."):
            return
        if resolved.split(".")[-1] not in _PRIMITIVES:
            return
        function = ctx.enclosing_function()
        if function is None or function.name == "__init__":
            return
        if self._primitive_escapes(ctx, node, function):
            return
        ctx.report(
            self, node,
            f"{resolved}() created inside {function.name}(); a "
            "primitive built per call guards nothing — create it once "
            "in __init__ (or at module level), or share it (closure, "
            "attribute) if per-call creation is the point",
        )

    def _primitive_escapes(self, ctx: FileContext, node: ast.Call,
                           function: ast.AST) -> bool:
        """Whether the fresh primitive leaves the creating call's frame
        (and can therefore actually be shared)."""
        parent = ctx.stack[-1] if ctx.stack else None
        # threading.Event().wait(t): used directly, never bound - the
        # deliberate interruptible-sleep idiom, not a guard.
        if isinstance(parent, ast.Attribute):
            return True
        # Passed straight into another call, or returned: escapes.
        if isinstance(parent, (ast.Call, ast.Return, ast.keyword)):
            return True
        if isinstance(parent, ast.Assign):
            targets = parent.targets
            # self.x = Lock() / obj.x = Lock(): the re-arm-after-fork
            # idiom; the attribute shares it across calls.
            if any(isinstance(t, (ast.Attribute, ast.Subscript))
                   for t in targets):
                return True
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if names:
                return self._name_escapes(function, names)
        if (isinstance(parent, ast.AnnAssign)
                and isinstance(parent.target,
                               (ast.Attribute, ast.Subscript))):
            return True
        return False

    @staticmethod
    def _name_escapes(function: ast.AST, names: set[str]) -> bool:
        """Whether any of ``names`` leaves the function: captured by a
        nested def/lambda, returned, stored, or passed to a call."""
        for node in ast.walk(function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not function:
                for inner in ast.walk(node):
                    if (isinstance(inner, ast.Name)
                            and inner.id in names):
                        return True
            elif isinstance(node, (ast.Return, ast.Yield)):
                value = node.value
                if value is not None and any(
                        isinstance(n, ast.Name) and n.id in names
                        for n in ast.walk(value)):
                    return True
            elif isinstance(node, ast.Call):
                for arg in (list(node.args)
                            + [kw.value for kw in node.keywords]):
                    if any(isinstance(n, ast.Name) and n.id in names
                           for n in ast.walk(arg)):
                        return True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript,
                                           ast.Tuple, ast.List)):
                        if any(isinstance(n, ast.Name)
                               and n.id in names
                               for n in ast.walk(node.value)):
                            return True
        return False

    # ------------------------------------------------------------------
    # Per-class rules
    # ------------------------------------------------------------------
    def _check_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        external = self.config.options.get("external-sync", ())
        if node.name in external:
            # Serialised by a documented single owner; the waiver (and
            # its justification) lives in pyproject.toml.
            return
        methods = [
            child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        primitive_attrs = self._primitive_attrs(ctx, methods)
        locked_only = self._locked_only_private_methods(methods)
        writes: list[tuple[ast.stmt, str, bool, bool, str]] = []
        # (node, attr, under_lock, is_aug, method) for every self.attr
        # assignment outside __init__.
        for method in methods:
            if method.name == "__init__":
                continue
            self._scan_method(ctx, method, writes, primitive_attrs,
                              initial_lock=method.name in locked_only)
        guarded = {attr for _, attr, locked, _, _ in writes if locked}
        for stmt, attr, locked, is_aug, method_name in writes:
            if locked:
                continue
            if is_aug:
                ctx.report(
                    self, stmt,
                    f"self.{attr} augmented outside a lock in "
                    f"{method_name}(); += on shared state is a "
                    "non-atomic read-modify-write",
                )
            elif attr in guarded:
                ctx.report(
                    self, stmt,
                    f"self.{attr} is written under 'with self._lock:' "
                    f"elsewhere in {node.name} but assigned unguarded "
                    f"in {method_name}(); guard every write",
                )

    @staticmethod
    def _primitive_attrs(ctx: FileContext, methods: list) -> set[str]:
        """Attributes ``__init__`` binds to threading primitives: their
        methods (``.set()``/``.clear()``/``.release()``) are the
        primitive's own thread-safe API."""
        attrs: set[str] = set()
        for method in methods:
            if method.name != "__init__":
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                value = stmt.value
                if not isinstance(value, ast.Call):
                    continue
                resolved = ctx.imports.resolve(value.func)
                if (resolved is None
                        or not resolved.startswith("threading.")
                        or resolved.split(".")[-1] not in _PRIMITIVES):
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        attrs.add(attr)
        return attrs

    @staticmethod
    def _locked_only_private_methods(methods: list) -> set[str]:
        """Private methods whose *every* intra-class call site is under
        a lock: they run guarded by construction and their bodies are
        scanned as such (``EventSink._rotate``, only called from
        ``emit`` inside ``with self._lock:``)."""
        call_sites: dict[str, list[bool]] = {}

        def record(node: ast.AST, under_lock: bool) -> None:
            for child in ast.iter_child_nodes(node):
                child_lock = under_lock
                if isinstance(child, ast.With) and any(
                        _is_lock_item(item) for item in child.items):
                    child_lock = True
                if isinstance(child, ast.Call):
                    callee = child.func
                    if (isinstance(callee, ast.Attribute)
                            and isinstance(callee.value, ast.Name)
                            and callee.value.id == "self"):
                        call_sites.setdefault(
                            callee.attr, []).append(under_lock)
                record(child, child_lock)

        for method in methods:
            record(method, False)
        names = {method.name for method in methods}
        return {
            name for name, sites in call_sites.items()
            if name in names
            and name.startswith("_") and not name.startswith("__")
            and sites and all(sites)
        }

    def _scan_method(self, ctx: FileContext, method: ast.AST,
                     writes: list, primitive_attrs: set[str],
                     initial_lock: bool = False) -> None:
        published: dict[str, int] = {}  # local name -> publish lineno

        def scan(node: ast.AST, under_lock: bool) -> None:
            for child in ast.iter_child_nodes(node):
                child_lock = under_lock
                if isinstance(child, ast.With) and any(
                        _is_lock_item(item) for item in child.items):
                    child_lock = True
                self._scan_stmt(ctx, child, under_lock, method,
                                writes, published, primitive_attrs)
                scan(child, child_lock)

        scan(method, initial_lock)

    def _scan_stmt(self, ctx: FileContext, node: ast.AST,
                   under_lock: bool, method: ast.AST,
                   writes: list, published: dict[str, int],
                   primitive_attrs: set[str] = frozenset()) -> None:
        method_name = method.name
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    writes.append((
                        node, attr, under_lock,
                        isinstance(node, ast.AugAssign), method_name,
                    ))
                    # Publishing a local container to self: later
                    # in-place mutation of the local mutates the
                    # now-shared snapshot.
                    value = getattr(node, "value", None)
                    if isinstance(value, ast.Name):
                        published.setdefault(value.id, node.lineno)
                elif isinstance(target, ast.Subscript):
                    self._check_subscript(ctx, node, target,
                                          under_lock, method_name,
                                          published)
                elif (isinstance(target, ast.Name)
                      and target.id in published
                      and isinstance(node, ast.Assign)):
                    # Rebound to a fresh object: no longer the
                    # published snapshot.
                    del published[target.id]
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._check_subscript(ctx, node, target,
                                          under_lock, method_name,
                                          published)
        elif isinstance(node, ast.Call):
            self._check_mutator_call(ctx, node, under_lock,
                                     method_name, published,
                                     primitive_attrs)

    def _check_subscript(self, ctx: FileContext, stmt: ast.AST,
                         target: ast.Subscript, under_lock: bool,
                         method_name: str,
                         published: dict[str, int]) -> None:
        if under_lock:
            return
        attr = _self_attr(target.value)
        if attr is not None:
            ctx.report(
                self, stmt,
                f"self.{attr}[...] mutated in place in {method_name}() "
                "outside a lock; concurrent readers may hold this "
                "snapshot — build a replacement and swap it in one "
                "assignment",
            )
            return
        if (isinstance(target.value, ast.Name)
                and target.value.id in published
                and stmt.lineno > published[target.value.id]):
            ctx.report(
                self, stmt,
                f"local '{target.value.id}' was published to self at "
                f"line {published[target.value.id]} and is mutated "
                f"afterwards; mutate before publishing, or publish a "
                "copy",
            )

    def _check_mutator_call(self, ctx: FileContext, node: ast.Call,
                            under_lock: bool, method_name: str,
                            published: dict[str, int],
                            primitive_attrs: set[str] = frozenset(),
                            ) -> None:
        if under_lock or not isinstance(node.func, ast.Attribute):
            return
        owner = node.func.value
        attr = _self_attr(owner)
        if attr in primitive_attrs:
            # self._stop.clear() on a threading.Event: the primitive's
            # own thread-safe API, not a dict being mutated.
            return
        if attr is not None and node.func.attr in _DICT_MUTATORS:
            ctx.report(
                self, node,
                f"self.{attr}.{node.func.attr}(...) in {method_name}() "
                "outside a lock mutates a shared mapping in place; "
                "build a replacement and swap it in one assignment",
            )
            return
        if (isinstance(owner, ast.Name) and owner.id in published
                and node.func.attr in _ANY_MUTATORS
                and node.lineno > published[owner.id]):
            ctx.report(
                self, node,
                f"local '{owner.id}' was published to self at line "
                f"{published[owner.id]} and is mutated afterwards via "
                f".{node.func.attr}(); mutate before publishing",
            )
