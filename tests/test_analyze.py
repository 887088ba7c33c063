"""Tests for ``tools.analyze`` — the unified static-analysis framework.

Each checker is exercised against fixture files under
``tests/fixtures/analyze/``: at least one file where the checker must
fire and one where it must stay silent.  The obs-catalogue fixtures are
two miniature projects (catalogue + emitters + docs), one drifted in
every direction and one fully in sync.  A subprocess test asserts the
analyzer's real contract: ``python -m tools.analyze --all`` exits 0 on
this repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tools.analyze import (
    Analysis,
    AnalyzeConfig,
    CheckerConfig,
    checker_classes,
    load_config,
)
from tools.analyze.checkers import (
    ALL_CHECKERS,
    ConcurrencyChecker,
    DeterminismChecker,
    ExceptionPolicyChecker,
    ForkSafetyChecker,
    LockOrderChecker,
    NoPrintChecker,
    NoWallTimeChecker,
    ObsCatalogueChecker,
    ResourceLifetimeChecker,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analyze"


def run_single(checker_cls, filename=None, *, options=None,
               roots=("cases",), repo_root=FIXTURES, paths=...):
    """Run one checker over fixture files and return the result."""
    config = AnalyzeConfig(repo_root=repo_root, roots=tuple(roots))
    config.checkers[checker_cls.name] = CheckerConfig(
        name=checker_cls.name, roots=tuple(roots),
        options=dict(options or {}),
    )
    if paths is ...:
        paths = ([repo_root / "cases" / filename]
                 if filename is not None else None)
    return Analysis(config, [checker_cls]).run(paths)


# ----------------------------------------------------------------------
# Per-checker fixtures: fire on the bad file, stay silent on the clean
# ----------------------------------------------------------------------
def test_no_print_fires():
    result = run_single(NoPrintChecker, "noprint_bad.py")
    assert [f.checker for f in result.findings] == ["no-print"]
    assert "bare print()" in result.findings[0].message


def test_no_print_clean():
    assert run_single(NoPrintChecker, "noprint_clean.py").ok


def test_no_wall_time_fires_on_every_spelling():
    result = run_single(NoWallTimeChecker, "walltime_bad.py")
    assert len(result.findings) == 2
    assert all(f.checker == "no-wall-time" for f in result.findings)


def test_no_wall_time_clean_includes_waiver():
    assert run_single(NoWallTimeChecker, "walltime_clean.py").ok


def test_determinism_fires():
    result = run_single(DeterminismChecker, "determinism_bad.py")
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 4
    assert "stdlib 'random' imported" in messages
    assert "random.shuffle" in messages
    assert "numpy.random.rand" in messages
    assert "without a seed" in messages


def test_determinism_clean():
    assert run_single(DeterminismChecker, "determinism_clean.py").ok


def test_exception_policy_fires():
    result = run_single(
        ExceptionPolicyChecker, "exceptions_bad.py",
        options={"raise-roots": ["cases"]},
    )
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 4
    assert "bare 'except:'" in messages
    assert "silently swallows" in messages
    assert "neither re-raises nor logs" in messages
    assert "raises builtin KeyError" in messages


def test_exception_policy_clean():
    result = run_single(
        ExceptionPolicyChecker, "exceptions_clean.py",
        options={"raise-roots": ["cases"]},
    )
    assert result.ok


def test_concurrency_fires_on_each_rule():
    result = run_single(ConcurrencyChecker, "concurrency_bad.py")
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 6
    assert "written under 'with self._lock:' elsewhere" in messages
    assert "non-atomic read-modify-write" in messages
    assert "self.snapshot[...] mutated in place" in messages
    assert "self.snapshot.update(...)" in messages
    assert "published to self" in messages
    assert "guards nothing" in messages


def test_concurrency_clean():
    assert run_single(ConcurrencyChecker, "concurrency_clean.py").ok


def test_suppression_comment_drops_findings():
    assert run_single(NoPrintChecker, "suppressed.py").ok


def test_concurrency_primitive_and_locked_only_shapes_are_clean():
    """Escaping per-call primitives, primitive-typed attributes, and
    private methods called only under the lock must not fire."""
    assert run_single(ConcurrencyChecker, "concurrency_clean.py").ok


def test_concurrency_external_sync_waives_class_rules():
    result = run_single(
        ConcurrencyChecker, "concurrency_bad.py",
        options={"external-sync": ["BadService"]},
    )
    # Class-level shared-state rules are waived; the per-call
    # primitive rule is method-local and still applies.
    assert len(result.findings) == 1
    assert "guards nothing" in result.findings[0].message


# ----------------------------------------------------------------------
# Interprocedural checkers: lock-order, fork-safety, resource-lifetime
# ----------------------------------------------------------------------
def run_graph(checker_cls, filename, *, callgraph=True, paths=None):
    """Full run (``paths=None`` => ``complete=True``) over one fixture
    file, with the call-graph layer on unless disabled."""
    root = f"cases/{filename}"
    config = AnalyzeConfig(repo_root=FIXTURES, roots=(root,))
    config.checkers[checker_cls.name] = CheckerConfig(
        name=checker_cls.name, roots=(root,),
    )
    return Analysis(config, [checker_cls],
                    callgraph=callgraph).run(paths)


def test_lock_order_fires_on_each_rule():
    result = run_graph(LockOrderChecker, "lockorder_bad.py")
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 4
    assert sorted(f.line for f in result.findings) == [31, 49, 74, 81]
    # direct two-lock cycle inside one class
    assert "_LOCK_A -> lockorder_bad._LOCK_B" in messages
    # interprocedural cycle discovered through resolved calls
    assert "Journal.append() calls Index.insert()" in messages
    # fork and blocking join under a held lock
    assert "process-start while holding Pool._lock" in messages
    assert "blocking join() while holding Pool._lock" in messages


def test_lock_order_clean():
    assert run_graph(LockOrderChecker, "lockorder_clean.py").ok


def test_lock_order_silent_without_callgraph():
    result = run_graph(LockOrderChecker, "lockorder_bad.py",
                       callgraph=False)
    assert result.ok


def test_fork_safety_fires_on_each_rule():
    result = run_graph(ForkSafetyChecker, "forksafety_bad.py")
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 4
    assert all(f.line == 49 for f in result.findings)
    assert "re-acquires fork-inherited lock(s)" in messages     # rule B
    assert "closes/flushes module global" in messages           # rule C
    assert "passed into the child via Process args" in messages  # rule D
    assert "also starts threads" in messages                    # rule A


def test_fork_safety_clean():
    assert run_graph(ForkSafetyChecker, "forksafety_clean.py").ok


def test_fork_safety_partial_scan_keeps_only_local_rules():
    """Absence-based rules (A-C) need the whole-tree pass; a partial
    scan (pre-commit shape) keeps only the handle-in-args rule."""
    result = run_graph(
        ForkSafetyChecker, "forksafety_bad.py",
        paths=[FIXTURES / "cases" / "forksafety_bad.py"],
    )
    assert not result.complete
    assert len(result.findings) == 1
    assert "Process args" in result.findings[0].message


def test_resource_lifetime_fires_on_each_rule():
    result = run_single(ResourceLifetimeChecker, "resource_bad.py")
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 4
    assert sorted(f.line for f in result.findings) == [18, 30, 35, 41]
    assert "not close()d on every path" in messages
    assert "close()d again" in messages
    assert "never join()ed on some path" in messages
    assert "socket 'sock'" in messages


def test_resource_lifetime_clean():
    assert run_single(ResourceLifetimeChecker, "resource_clean.py").ok


# ----------------------------------------------------------------------
# obs-catalogue: cross-file diff, partial runs, generator mode
# ----------------------------------------------------------------------
def obs_options(project):
    return {
        "catalogue": f"{project}/catalogue.py",
        "docs": f"{project}/observability.md",
    }


def test_obs_catalogue_reports_all_drift():
    result = run_single(
        ObsCatalogueChecker, roots=("obs_bad",),
        options=obs_options("obs_bad"), paths=None,
    )
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 4
    assert "undeclared counter metric name 'demo.unknown'" in messages
    assert "emitted as a gauge but declared as a counter" in messages
    assert "declares 'demo.orphan' but no instrumented code" in messages
    assert "metric table out of sync" in messages


def test_obs_catalogue_partial_run_skips_orphan_and_docs_checks():
    result = run_single(
        ObsCatalogueChecker, roots=("obs_bad",),
        options=obs_options("obs_bad"),
        paths=[FIXTURES / "obs_bad" / "emitters.py"],
    )
    assert not result.complete
    messages = " | ".join(f.message for f in result.findings)
    assert len(result.findings) == 2
    assert "demo.orphan" not in messages
    assert "out of sync" not in messages


def test_obs_catalogue_clean_project_passes():
    result = run_single(
        ObsCatalogueChecker, roots=("obs_clean",),
        options=obs_options("obs_clean"), paths=None,
    )
    assert result.ok, [f.render() for f in result.findings]


def run_obs_fix(tmp_root):
    """One analyze-then-fix cycle over ``tmp_root / proj``."""
    config = AnalyzeConfig(repo_root=tmp_root, roots=("proj",))
    config.checkers["obs-catalogue"] = CheckerConfig(
        name="obs-catalogue", roots=("proj",),
        options=obs_options("proj"),
    )
    analysis = Analysis(config, [ObsCatalogueChecker])
    result = analysis.run(None)
    changed = analysis.fix(result)
    rerun = Analysis(config, [ObsCatalogueChecker]).run(None)
    return result, changed, rerun


def test_obs_catalogue_fix_preserves_descriptions(tmp_path):
    project = tmp_path / "proj"
    shutil.copytree(FIXTURES / "obs_clean", project)
    emitters = project / "emitters.py"
    emitters.write_text(
        emitters.read_text()
        + "\n\ndef extra():\n    metrics.inc(\"demo.fresh\")\n"
    )
    result, changed, rerun = run_obs_fix(tmp_path)
    assert [f.message for f in result.findings
            if "demo.fresh" in f.message]
    assert "proj/catalogue.py" in changed
    assert rerun.ok, [f.render() for f in rerun.findings]
    catalogue = (project / "catalogue.py").read_text()
    assert "'demo.fresh'" in catalogue
    assert "TODO: describe" in catalogue          # the new name
    assert "'requests served'" in catalogue       # the kept description
    docs = (project / "observability.md").read_text()
    assert "`demo.fresh`" in docs


def test_obs_catalogue_fix_creates_missing_catalogue(tmp_path):
    project = tmp_path / "proj"
    shutil.copytree(FIXTURES / "obs_clean", project)
    (project / "catalogue.py").unlink()
    result, changed, rerun = run_obs_fix(tmp_path)
    assert "catalogue missing" in result.findings[0].message
    assert "proj/catalogue.py" in changed
    assert rerun.ok, [f.render() for f in rerun.findings]
    catalogue = (project / "catalogue.py").read_text()
    for name in ("demo.requests", "demo.latency_seconds", "demo.run"):
        assert f"'{name}'" in catalogue


# ----------------------------------------------------------------------
# Framework: config, registry, report shape, CLI
# ----------------------------------------------------------------------
def test_load_config_reads_pyproject():
    config = load_config(REPO_ROOT)
    no_print = config.checker("no-print")
    assert "src/repro/cli.py" in no_print.allow
    determinism = config.checker("determinism")
    assert all(root.startswith("src/repro/")
               for root in determinism.roots)
    assert "src/repro/serve" not in determinism.roots


def test_unknown_checker_name_rejected():
    with pytest.raises(ValueError, match="nope"):
        checker_classes(["nope"])


def test_report_json_shape():
    result = run_single(NoPrintChecker, "noprint_bad.py")
    payload = json.loads(result.to_json())
    assert payload["format"] == "arcs-analyze-report"
    assert payload["version"] == 1
    assert payload["status"] == "fail"
    assert payload["files_scanned"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {
        "path", "line", "col", "checker", "message", "fixable",
    }
    assert finding["path"] == "cases/noprint_bad.py"


def test_sarif_report_shape():
    result = run_single(NoPrintChecker, "noprint_bad.py")
    sarif = result.to_sarif()
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "arcs-analyze"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        "no-print",
    ]
    (res,) = run["results"]
    assert res["ruleId"] == "no-print"
    assert res["ruleIndex"] == 0
    location = res["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "cases/noprint_bad.py"
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    assert location["region"]["startLine"] == 5


def test_cli_sarif_output_file(tmp_path):
    """``--format sarif --output`` writes the log and keeps the human
    render on stdout - the CI artifact shape."""
    out = tmp_path / "analyze.sarif"
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "--all",
         "--format", "sarif", "--output", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
    sarif = json.loads(out.read_text())
    assert sarif["version"] == "2.1.0"
    rules = sarif["runs"][0]["tool"]["driver"]["rules"]
    assert {r["id"] for r in rules} == {
        cls.name for cls in ALL_CHECKERS
    }
    assert sarif["runs"][0]["results"] == []


def test_cli_list_checkers(capsys):
    from tools.analyze.__main__ import main
    assert main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for cls in ALL_CHECKERS:
        assert cls.name in out


def test_cli_unknown_select_is_usage_error(capsys):
    from tools.analyze.__main__ import main
    assert main(["--select", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_real_tree_is_clean():
    """The acceptance contract: the analyzer passes on this repository."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "--all",
         "--format", "json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "pass"
    assert payload["complete"] is True
    assert payload["files_scanned"] > 0
    assert set(payload["checkers"]) == {
        cls.name for cls in ALL_CHECKERS
    }
