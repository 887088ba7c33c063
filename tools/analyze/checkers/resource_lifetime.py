"""``resource-lifetime``: creation to guaranteed release, on all paths.

A per-function abstract interpretation (no call graph needed): locals
bound to resource constructors — ``open()``/``tempfile.*`` files,
``socket.socket()``, ``threading.Thread(...)`` — are tracked through
branches, loops and ``try/finally`` to one of three ends:

* **released** — ``close()`` (``join()`` for threads) ran on every
  path, or the value was ``with``-managed;
* **escaped** — returned, yielded, stored on an attribute or into a
  container, passed to another call (including
  ``weakref.finalize(...)``, the sanctioned deferred-close idiom), or
  captured by a nested function: ownership left this frame and the
  frame owes nothing;
* **leaked** — still open on some path with no escape: reported at the
  creation site.

Double release is reported at the second call when the first is
certain (ran on *every* path to it).  Threads are exempt when
``daemon=True`` (the interpreter does not wait for them, by design —
the repo's drain/stopper threads) or never started.

Limitations, by design: attribute-held resources (``self._handle``)
belong to the owning object's lifecycle, not a frame, and are out of
scope; no implicit exception edges (an explicit ``raise`` terminates a
path silently — guarding against *errors* is ``try/finally``'s job and
enforcing it everywhere would drown real leaks); aliasing
(``b = a``) conservatively counts as an escape.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from tools.analyze.driver import Checker, FileContext

__all__ = ["ResourceLifetimeChecker"]

#: resolved constructor name -> resource kind
_CTORS = {
    "open": "file",
    "io.open": "file",
    "os.fdopen": "file",
    "gzip.open": "file",
    "bz2.open": "file",
    "lzma.open": "file",
    "tempfile.TemporaryFile": "file",
    "tempfile.NamedTemporaryFile": "file",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "socket.create_server": "socket",
    "threading.Thread": "thread",
}

_RELEASES = {
    "file": ("close",),
    "socket": ("close",),
    "thread": ("join",),
}

_NOUN = {
    "file": "file handle",
    "socket": "socket",
    "thread": "thread",
}


@dataclass
class _Res:
    kind: str
    name: str
    lineno: int
    #: possible lifecycle states on the paths reaching here
    states: set = field(default_factory=lambda: {"open"})
    escaped: bool = False
    managed: bool = False        # with-statement owns the release
    #: threads: has start() run / daemon= literal
    started: bool = False
    daemon: bool | None = None

    def clone(self) -> "_Res":
        return _Res(self.kind, self.name, self.lineno,
                    set(self.states), self.escaped, self.managed,
                    self.started, self.daemon)


class _Env:
    def __init__(self) -> None:
        self.vars: dict[str, _Res] = {}
        self.terminated = False

    def clone(self) -> "_Env":
        copy = _Env()
        copy.vars = {name: res.clone()
                     for name, res in self.vars.items()}
        copy.terminated = self.terminated
        return copy

    def merge(self, other: "_Env") -> "_Env":
        """Join two branch outcomes; terminated branches contribute
        nothing to the survivor's state."""
        if self.terminated and not other.terminated:
            return other
        if other.terminated and not self.terminated:
            return self
        merged = _Env()
        merged.terminated = self.terminated and other.terminated
        for name in set(self.vars) | set(other.vars):
            a, b = self.vars.get(name), other.vars.get(name)
            if a is None or b is None:
                merged.vars[name] = (a or b).clone()
                continue
            joined = a.clone()
            joined.states |= b.states
            joined.escaped = a.escaped or b.escaped
            joined.managed = a.managed and b.managed
            joined.started = a.started or b.started
            merged.vars[name] = joined
        return merged


class ResourceLifetimeChecker(Checker):
    name = "resource-lifetime"
    description = ("resources (files, sockets, threads) released or "
                   "escaped on every path; double-close")
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        walker = _FunctionWalker(self, ctx)
        env = _Env()
        for stmt in node.body:
            env = walker.exec_stmt(stmt, env)
        if not env.terminated:
            walker.leak_check(env)

    # Called by the walker; kept on the checker so fixtures and tests
    # exercise one reporting path.
    def leak(self, ctx: FileContext, res: _Res) -> None:
        if res.kind == "thread":
            message = (f"thread {res.name!r} started here is never "
                       f"join()ed on some path and never escapes; "
                       f"pass daemon=True or join it")
        else:
            release = "/".join(_RELEASES[res.kind])
            message = (f"{_NOUN[res.kind]} {res.name!r} opened here "
                       f"is not {release}()d on every path and never "
                       f"escapes this function")
        ctx.findings.append(_finding(ctx, self, res.lineno, message))


def _finding(ctx: FileContext, checker: Checker, lineno: int,
             message: str):
    from tools.analyze.driver import Finding
    return Finding(path=ctx.rel, line=lineno, col=1,
                   checker=checker.name, message=message)


class _FunctionWalker:
    def __init__(self, checker: ResourceLifetimeChecker,
                 ctx: FileContext):
        self.checker = checker
        self.ctx = ctx

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_stmt(self, stmt: ast.stmt, env: _Env) -> _Env:
        if env.terminated:
            return env
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Nested scope: anything it references is captured and may
            # outlive this frame - an escape, exactly like a
            # finalizer callback closing over a resource.
            self._escape_names(stmt, env)
            return env
        if isinstance(stmt, ast.Assign):
            return self._exec_assign(stmt, env)
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                fake = ast.Assign(targets=[stmt.target],
                                  value=stmt.value)
                ast.copy_location(fake, stmt)
                return self._exec_assign(fake, env)
            return env
        if isinstance(stmt, ast.Expr):
            self._eval_expr(stmt.value, env)
            return env
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._escape_value(stmt.value, env)
                self._eval_expr(stmt.value, env)
            self.leak_check(env)
            env.terminated = True
            return env
        if isinstance(stmt, (ast.Raise, ast.Continue, ast.Break)):
            # Explicit non-fall-through: paths end here without a leak
            # verdict (error paths are try/finally's job; loop exits
            # re-merge at the loop, approximated below).
            env.terminated = True
            return env
        if isinstance(stmt, ast.If):
            return self._exec_branches(stmt.test, [stmt.body],
                                       stmt.orelse, env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval_expr(stmt.iter, env)
            return self._exec_loop(stmt.body, stmt.orelse, env)
        if isinstance(stmt, ast.While):
            self._eval_expr(stmt.test, env)
            return self._exec_loop(stmt.body, stmt.orelse, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, env)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, env)
        if isinstance(stmt, (ast.Assert, ast.AugAssign, ast.Delete,
                             ast.Global, ast.Nonlocal, ast.Pass,
                             ast.Import, ast.ImportFrom)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval_expr(child, env)
            return env
        # Anything else: evaluate embedded expressions conservatively.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval_expr(child, env)
        return env

    def _exec_body(self, body: list[ast.stmt], env: _Env) -> _Env:
        for stmt in body:
            env = self.exec_stmt(stmt, env)
        return env

    def _exec_branches(self, test: ast.expr, bodies, orelse,
                       env: _Env) -> _Env:
        self._eval_expr(test, env)
        outcomes = [self._exec_body(body, env.clone())
                    for body in bodies]
        outcomes.append(self._exec_body(orelse, env.clone())
                        if orelse else env.clone())
        merged = outcomes[0]
        for outcome in outcomes[1:]:
            merged = merged.merge(outcome)
        return merged

    def _exec_loop(self, body, orelse, env: _Env) -> _Env:
        # One symbolic iteration merged with the zero-iteration path;
        # break/continue approximate to path ends inside the body.
        once = self._exec_body(body, env.clone())
        merged = env.merge(once)
        if orelse:
            merged = self._exec_body(orelse, merged)
        return merged

    def _exec_with(self, stmt, env: _Env) -> _Env:
        for item in stmt.items:
            expr = item.context_expr
            kind = self._ctor_kind(expr)
            bound = (item.optional_vars.id
                     if isinstance(item.optional_vars, ast.Name)
                     else None)
            if kind is not None and bound is not None:
                res = _Res(kind, bound, expr.lineno, managed=True)
                if kind == "thread":
                    res.daemon = self._daemon_kwarg(expr)
                env.vars[bound] = res
            elif (isinstance(expr, ast.Name)
                  and expr.id in env.vars):
                env.vars[expr.id].managed = True
            else:
                self._eval_expr(expr, env)
        env = self._exec_body(stmt.body, env)
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                res = env.vars.get(item.optional_vars.id)
                if res is not None and res.managed:
                    res.states = {"closed"}
            elif (isinstance(item.context_expr, ast.Name)
                  and item.context_expr.id in env.vars):
                res = env.vars[item.context_expr.id]
                if res.managed:
                    res.states = {"closed"}
        return env

    def _exec_try(self, stmt: ast.Try, env: _Env) -> _Env:
        pre = env.clone()
        after_body = self._exec_body(stmt.body, env)
        outcomes = [after_body]
        for handler in stmt.handlers:
            # The handler runs from the *pre-body* state: a resource
            # whose constructor raised was never created, so treating
            # body-created values as live here would report phantom
            # leaks when the handler retries the construction (e.g.
            # removing a stale block, then creating it again).
            basis = pre.clone()
            basis.terminated = False
            outcomes.append(self._exec_body(handler.body, basis))
        merged = outcomes[0]
        for outcome in outcomes[1:]:
            merged = merged.merge(outcome)
        if stmt.orelse and not after_body.terminated:
            merged = merged.merge(
                self._exec_body(stmt.orelse, after_body.clone()))
        if stmt.finalbody:
            terminated = merged.terminated
            merged.terminated = False
            merged = self._exec_body(stmt.finalbody, merged)
            merged.terminated = merged.terminated or terminated
        return merged

    # ------------------------------------------------------------------
    # Assignments and expressions
    # ------------------------------------------------------------------
    def _exec_assign(self, stmt: ast.Assign, env: _Env) -> _Env:
        value = stmt.value
        simple = (len(stmt.targets) == 1
                  and isinstance(stmt.targets[0], ast.Name))
        if simple:
            name = stmt.targets[0].id
            kind = self._ctor_kind(value)
            if kind is not None:
                self._rebind_check(env, name)
                res = _Res(kind, name, stmt.lineno)
                if kind == "thread":
                    res.daemon = self._daemon_kwarg(value)
                env.vars[name] = res
                return env
            if isinstance(value, ast.Name) and value.id in env.vars:
                # Aliasing: ownership now ambiguous - treat as escape.
                env.vars[value.id].escaped = True
                return env
            self._eval_expr(value, env)
            if name in env.vars:
                # Rebound over a live resource: the old value leaks
                # unless it was already closed or escaped.
                self._rebind_check(env, name)
                del env.vars[name]
            return env
        # Attribute/subscript/tuple targets: stored values escape.
        self._escape_value(value, env)
        self._eval_expr(value, env)
        return env

    def _rebind_check(self, env: _Env, name: str) -> None:
        old = env.vars.get(name)
        if (old is not None and not old.escaped and not old.managed
                and "open" in old.states
                and not (old.kind == "thread" and not old.started)):
            self.checker.leak(self.ctx, old)

    def _eval_expr(self, expr: ast.expr, env: _Env) -> None:
        """Walk an expression for calls, escapes and releases."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._eval_call(node, env)
            elif isinstance(node, (ast.Lambda,)):
                self._escape_names(node, env)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    self._escape_value(node.value, env)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set,
                                   ast.Dict)):
                for child in ast.iter_child_nodes(node):
                    self._escape_value(child, env, container=True)

    def _eval_call(self, call: ast.Call, env: _Env) -> None:
        func = call.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in env.vars):
            res = env.vars[func.value.id]
            method = func.attr
            if self._handle_release(call, res, method):
                return
        # Any tracked value passed as an argument escapes.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            self._escape_value(arg, env)

    def _handle_release(self, call: ast.Call, res: _Res,
                        method: str) -> bool:
        if res.kind == "thread":
            if method == "start":
                res.started = True
                return True
            if method == "join":
                if res.states == {"closed"} and not res.escaped:
                    self._double(call, res, "join")
                res.states = {"closed"}
                return True
            return False
        if method in _RELEASES[res.kind]:
            if (res.states == {"closed"} and not res.escaped
                    and not res.managed):
                self._double(call, res, method)
            res.states = {"closed"}
            return True
        return False

    def _double(self, call: ast.Call, res: _Res, method: str) -> None:
        self.ctx.findings.append(_finding(
            self.ctx, self.checker, call.lineno,
            f"{_NOUN[res.kind]} {res.name!r} {method}()d again; "
            f"already {method}()d on every path reaching this line",
        ))

    # ------------------------------------------------------------------
    # Escapes
    # ------------------------------------------------------------------
    def _escape_value(self, expr: ast.expr, env: _Env,
                      container: bool = False) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Name):
                continue
            res = env.vars.get(node.id)
            if res is not None:
                res.escaped = True

    def _escape_names(self, scope: ast.AST, env: _Env) -> None:
        for node in ast.walk(scope):
            if isinstance(node, ast.Name):
                res = env.vars.get(node.id)
                if res is not None:
                    res.escaped = True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _ctor_kind(self, expr: ast.expr) -> str | None:
        if not isinstance(expr, ast.Call):
            return None
        resolved = self.ctx.imports.resolve(expr.func)
        if resolved is None and isinstance(expr.func, ast.Name):
            resolved = expr.func.id if expr.func.id == "open" else None
        if resolved is None:
            return None
        return _CTORS.get(resolved)

    @staticmethod
    def _daemon_kwarg(call: ast.Call) -> bool | None:
        for kw in call.keywords:
            if kw.arg == "daemon" and isinstance(kw.value,
                                                ast.Constant):
                if isinstance(kw.value.value, bool):
                    return kw.value.value
        return None

    # ------------------------------------------------------------------
    def leak_check(self, env: _Env) -> None:
        for res in env.vars.values():
            if res.escaped or res.managed:
                continue
            if res.kind == "thread":
                if (res.started and res.daemon is not True
                        and "open" in res.states):
                    self.checker.leak(self.ctx, res)
                continue
            if "open" in res.states:
                self.checker.leak(self.ctx, res)
