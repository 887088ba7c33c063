"""``obs-catalogue``: the declared observability vocabulary stays true.

The run-report / dashboard contract of ``repro.obs`` is its *names*: a
metric renamed at one emitter silently breaks every consumer.  This
cross-file pass extracts every metric and span name passed to the obs
layer — string literals and f-string templates (``f"serve.{endpoint}"``
becomes the pattern ``serve.{endpoint}``) — at the emitter call sites
(``metrics.inc`` / ``set_gauge`` / ``observe``, and
``trace`` / ``Span`` / ``RunCapture`` for spans) and diffs them against
the checked-in catalogue :mod:`repro.obs.catalogue`.  A metric emitted
with a ``labels={...}`` literal is recorded as a *labeled series* —
``observe("serve.request_seconds", t, labels={"endpoint": e})``
becomes the name ``serve.request_seconds{endpoint}`` (label *keys*
only, sorted), which the catalogue must declare verbatim:

* a name **emitted but not declared** fails (declare it, with a
  description, in the catalogue);
* a name **declared but never emitted** fails (the instrument is dead —
  remove it or re-instrument);
* a name emitted with a **different kind** than declared fails
  (``inc`` on something declared as a gauge);
* the metric table in ``docs/observability.md`` (between the
  ``<!-- obs-catalogue:metrics:begin/end -->`` markers) must match the
  catalogue row for row.

Generator mode (``python -m tools.analyze --fix``) rewrites the
catalogue from the observed usages — preserving existing descriptions,
inserting ``TODO: describe`` for new names, dropping orphans — and
regenerates the docs table from the catalogue.  Orphan and docs-drift
findings are only reported on complete runs (``--all``), never when
pre-commit hands the analyzer a file subset.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from tools.analyze.driver import (
    AnalysisResult,
    Checker,
    FileContext,
    Finding,
)

__all__ = ["ObsCatalogueChecker"]

#: obs emitter -> the instrument kind its first argument names.
_METRIC_KINDS = {
    "inc": "counter",
    "set_gauge": "gauge",
    "observe": "histogram",
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
}

_SPAN_FUNCS = {"trace", "Span", "RunCapture"}

_MARKER_BEGIN = "<!-- obs-catalogue:metrics:begin -->"
_MARKER_END = "<!-- obs-catalogue:metrics:end -->"

_DEFAULT_CATALOGUE = "src/repro/obs/catalogue.py"
_DEFAULT_DOCS = "docs/observability.md"

_TODO = "TODO: describe"


@dataclass(frozen=True)
class _Usage:
    name: str       # literal, or a template like "serve.{endpoint}"
    kind: str       # counter | gauge | histogram | span
    rel: str
    line: int
    col: int


def _literal_name(arg: ast.expr) -> str | None:
    """A string literal or f-string template, else ``None``."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts: list[str] = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            elif isinstance(piece, ast.FormattedValue):
                parts.append("{" + ast.unparse(piece.value) + "}")
        return "".join(parts)
    return None


def _label_keys(node: ast.Call) -> list[str] | None:
    """Sorted constant keys of a ``labels={...}`` literal, or ``None``.

    A dynamic ``labels=`` argument (a variable, unpacking, non-string
    keys) yields ``None`` and the usage falls back to the base name —
    the call site then answers for the unlabeled declaration.
    """
    for keyword in node.keywords:
        if keyword.arg != "labels":
            continue
        value = keyword.value
        if isinstance(value, ast.Dict) and value.keys and all(
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                for key in value.keys):
            return sorted(key.value for key in value.keys)
        return None
    return None


def _pattern_regex(name: str) -> re.Pattern | None:
    """A declared template name as a regex, or ``None`` for literals."""
    if "{" not in name:
        return None
    out: list[str] = []
    for token in re.split(r"(\{[^}]*\})", name):
        if token.startswith("{") and token.endswith("}"):
            out.append(r"[^.]+")
        else:
            out.append(re.escape(token))
    return re.compile("".join(out) + r"\Z")


class ObsCatalogueChecker(Checker):
    name = "obs-catalogue"
    description = ("metric/span names emitted to repro.obs must match "
                   "the checked-in catalogue (and the docs table)")
    interests = (ast.Call,)

    def __init__(self, config, analysis):
        super().__init__(config, analysis)
        self.catalogue_rel = config.options.get(
            "catalogue", _DEFAULT_CATALOGUE
        )
        self.docs_rel = config.options.get("docs", _DEFAULT_DOCS)
        self.usages: list[_Usage] = []

    # ------------------------------------------------------------------
    # Collection (per file)
    # ------------------------------------------------------------------
    def wants(self, rel: str) -> bool:
        # The catalogue itself declares names, it does not emit them.
        if rel == self.catalogue_rel:
            return False
        return super().wants(rel)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        resolved = ctx.imports.resolve(node.func)
        if resolved is None or not resolved.startswith("repro.obs"):
            return
        tail = resolved.split(".")[-1]
        if tail in _METRIC_KINDS:
            kind = _METRIC_KINDS[tail]
        elif tail in _SPAN_FUNCS:
            kind = "span"
        else:
            return
        if not node.args:
            return
        name = _literal_name(node.args[0])
        if name is None:
            return  # dynamic name: the call site is the declaration's job
        if kind != "span":
            keys = _label_keys(node)
            if keys:
                name = f"{name}{{{','.join(keys)}}}"
        self.usages.append(_Usage(
            name=name, kind=kind, rel=ctx.rel,
            line=node.lineno, col=node.col_offset + 1,
        ))

    # ------------------------------------------------------------------
    # Cross-file diff
    # ------------------------------------------------------------------
    def finalize(self, result: AnalysisResult) -> None:
        declared = self._load_catalogue(result)
        if declared is None:
            return  # already reported
        metrics, spans, key_lines = declared
        used: set[str] = set()
        patterns = {
            name: regex for name in {**metrics, **dict.fromkeys(spans)}
            if (regex := _pattern_regex(name)) is not None
        }
        for usage in self.usages:
            table = spans if usage.kind == "span" else metrics
            if usage.name in table:
                used.add(usage.name)
                if usage.kind != "span":
                    declared_kind = metrics[usage.name][0]
                    if declared_kind != usage.kind:
                        result.findings.append(Finding(
                            path=usage.rel, line=usage.line,
                            col=usage.col, checker=self.name,
                            message=(
                                f"metric {usage.name!r} emitted as a "
                                f"{usage.kind} but declared as a "
                                f"{declared_kind} in "
                                f"{self.catalogue_rel}"),
                        ))
                continue
            matched = next(
                (name for name, regex in patterns.items()
                 if name in table and regex.fullmatch(usage.name)),
                None,
            )
            if matched is not None:
                used.add(matched)
                continue
            kind_word = ("span" if usage.kind == "span"
                         else f"{usage.kind} metric")
            result.findings.append(Finding(
                path=usage.rel, line=usage.line, col=usage.col,
                checker=self.name,
                message=(
                    f"undeclared {kind_word} name {usage.name!r}; "
                    f"declare it in {self.catalogue_rel} "
                    "(python -m tools.analyze --fix regenerates the "
                    "catalogue and the docs table)"),
                fixable=True,
            ))
        if not result.complete:
            return  # a file subset cannot prove a name is orphaned
        for name in sorted(set(metrics) | set(spans)):
            if name in used:
                continue
            result.findings.append(Finding(
                path=self.catalogue_rel,
                line=key_lines.get(name, 1), col=1, checker=self.name,
                message=(
                    f"catalogue declares {name!r} but no instrumented "
                    "code emits it; remove the entry or restore the "
                    "instrumentation"),
                fixable=True,
            ))
        self._check_docs(result, metrics)

    # ------------------------------------------------------------------
    def _load_catalogue(self, result: AnalysisResult):
        path = result.repo_root / self.catalogue_rel
        if not path.is_file():
            result.findings.append(Finding(
                path=self.catalogue_rel, line=1, col=1,
                checker=self.name,
                message=("observability catalogue missing; create it "
                         "with python -m tools.analyze --fix"),
                fixable=True,
            ))
            return None
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as error:
            result.findings.append(Finding(
                path=self.catalogue_rel, line=error.lineno or 1, col=1,
                checker=self.name,
                message=f"catalogue does not parse: {error.msg}",
            ))
            return None
        metrics: dict[str, tuple[str, str]] = {}
        spans: dict[str, str] = {}
        key_lines: dict[str, int] = {}
        for node in tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if not isinstance(target, ast.Name) or node.value is None:
                continue
            if target.id not in ("METRICS", "SPANS"):
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                result.findings.append(Finding(
                    path=self.catalogue_rel, line=node.lineno, col=1,
                    checker=self.name,
                    message=(f"{target.id} must be a literal dict "
                             "(the generator maintains it)"),
                ))
                continue
            if isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant):
                        key_lines[key.value] = key.lineno
            if target.id == "METRICS":
                metrics = {
                    name: (str(entry[0]), str(entry[1]))
                    for name, entry in value.items()
                }
            else:
                spans = {name: str(desc)
                         for name, desc in value.items()}
        return metrics, spans, key_lines

    def _check_docs(self, result: AnalysisResult,
                    metrics: dict[str, tuple[str, str]]) -> None:
        path = result.repo_root / self.docs_rel
        if not path.is_file():
            return
        text = path.read_text()
        if _MARKER_BEGIN not in text or _MARKER_END not in text:
            result.findings.append(Finding(
                path=self.docs_rel, line=1, col=1, checker=self.name,
                message=(
                    f"docs file lacks the {_MARKER_BEGIN} / "
                    f"{_MARKER_END} markers around the metric table"),
                fixable=True,
            ))
            return
        block = text.split(_MARKER_BEGIN, 1)[1].split(_MARKER_END, 1)[0]
        if block.strip() != _render_table(metrics).strip():
            line = text[:text.index(_MARKER_BEGIN)].count("\n") + 1
            result.findings.append(Finding(
                path=self.docs_rel, line=line, col=1, checker=self.name,
                message=("metric table out of sync with the catalogue; "
                         "regenerate with python -m tools.analyze "
                         "--fix"),
                fixable=True,
            ))

    # ------------------------------------------------------------------
    # Generator mode
    # ------------------------------------------------------------------
    def apply_fix(self, result: AnalysisResult) -> list[str]:
        if not result.complete:
            return []  # never regenerate from a partial view
        if not any(f.checker == self.name and f.fixable
                   for f in result.findings):
            return []
        old_metrics: dict[str, tuple[str, str]] = {}
        old_spans: dict[str, str] = {}
        loaded = self._load_catalogue(
            AnalysisResult(repo_root=result.repo_root, checkers=[])
        )
        if loaded is not None:
            old_metrics, old_spans, _ = loaded
        metrics: dict[str, tuple[str, str]] = {}
        spans: dict[str, str] = {}
        for usage in self.usages:
            if usage.kind == "span":
                covered = any(
                    name == usage.name or (
                        (regex := _pattern_regex(name)) is not None
                        and regex.fullmatch(usage.name))
                    for name in {**dict.fromkeys(old_spans), **spans}
                )
                if usage.name in old_spans:
                    spans[usage.name] = old_spans[usage.name]
                elif not covered:
                    spans[usage.name] = _TODO
            else:
                covered = any(
                    name == usage.name or (
                        (regex := _pattern_regex(name)) is not None
                        and regex.fullmatch(usage.name))
                    for name in {**old_metrics, **metrics}
                )
                if usage.name in old_metrics:
                    metrics[usage.name] = (
                        usage.kind, old_metrics[usage.name][1]
                    )
                elif not covered:
                    metrics[usage.name] = (usage.kind, _TODO)
        # Keep declared template entries that usages matched.
        for name, entry in old_metrics.items():
            if name in metrics:
                continue
            regex = _pattern_regex(name)
            if regex is not None and any(
                    regex.fullmatch(u.name) for u in self.usages
                    if u.kind != "span"):
                metrics[name] = entry
        for name, desc in old_spans.items():
            if name in spans:
                continue
            regex = _pattern_regex(name)
            if regex is not None and any(
                    regex.fullmatch(u.name) for u in self.usages
                    if u.kind == "span"):
                spans[name] = desc
        changed: list[str] = []
        catalogue_path = result.repo_root / self.catalogue_rel
        rendered = _render_catalogue(metrics, spans)
        if (not catalogue_path.is_file()
                or catalogue_path.read_text() != rendered):
            catalogue_path.write_text(rendered)
            changed.append(self.catalogue_rel)
        docs_path = result.repo_root / self.docs_rel
        if docs_path.is_file():
            text = docs_path.read_text()
            if _MARKER_BEGIN in text and _MARKER_END in text:
                head, rest = text.split(_MARKER_BEGIN, 1)
                _, tail = rest.split(_MARKER_END, 1)
                updated = (head + _MARKER_BEGIN + "\n"
                           + _render_table(metrics) + "\n"
                           + _MARKER_END + tail)
                if updated != text:
                    docs_path.write_text(updated)
                    changed.append(self.docs_rel)
        return changed


def _render_table(metrics: dict[str, tuple[str, str]]) -> str:
    lines = ["| name | kind | meaning |", "|---|---|---|"]
    for name in sorted(metrics):
        kind, description = metrics[name]
        lines.append(f"| `{name}` | {kind} | {description} |")
    return "\n".join(lines)


def _render_catalogue(metrics: dict[str, tuple[str, str]],
                      spans: dict[str, str]) -> str:
    out = [
        '"""The declared observability vocabulary: every metric and '
        'span name.',
        "",
        "Instrumented code may only emit names declared here; the",
        "``obs-catalogue`` pass of ``python -m tools.analyze`` fails "
        "CI on any",
        "drift in either direction, and ``python -m tools.analyze "
        "--fix``",
        "regenerates this module (preserving descriptions) plus the "
        "metric",
        "table in ``docs/observability.md``.  Names containing "
        "``{...}`` are",
        "templates matching one dotted-name segment "
        "(``serve.requests_{endpoint}``);",
        "names ending in ``{key,...}`` declare labeled series — the "
        "call site",
        "passes ``labels={...}`` with exactly those keys "
        "(``serve.request_seconds{endpoint}``).",
        '"""',
        "",
        "from __future__ import annotations",
        "",
        '__all__ = ["METRICS", "SPANS"]',
        "",
        "#: metric name -> (kind, meaning); kinds: counter | gauge | "
        "histogram.",
        "METRICS: dict[str, tuple[str, str]] = {",
    ]
    for name in sorted(metrics):
        kind, description = metrics[name]
        out.append(f"    {name!r}:")
        out.append(f"        ({kind!r},")
        out.append(f"         {description!r}),")
    out.append("}")
    out.append("")
    out.append("#: span name -> meaning (see the span tree in "
               "docs/observability.md).")
    out.append("SPANS: dict[str, str] = {")
    for name in sorted(spans):
        out.append(f"    {name!r}:")
        out.append(f"        {spans[name]!r},")
    out.append("}")
    return "\n".join(out) + "\n"
