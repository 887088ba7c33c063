"""Find the ``src/repro`` functions that a set of commands never enters.

    python -m tools.reach run OUTDIR -- CMD...   # record what CMD enters
    python -m tools.reach report OUTDIR          # list what nothing entered

``run`` puts a ``sitecustomize`` on ``PYTHONPATH``: every Python process
the command starts, forked or spawned, appends each ``src/repro``
function to ``OUTDIR/<pid>.txt`` when it first enters it, at once, so
``os._exit`` loses nothing.  The hook slows every call: time nothing
under it.  ``docs/static_analysis.md`` lists the commands to record.
"""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SITECUSTOMIZE = """\
import os, sys, threading
_out, _src, _seen = os.environ["REACH_OUT"], os.environ["REACH_SRC"], set()
def _hook(frame, event, arg):
    code = frame.f_code
    if event == "call" and code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_src):
            with open(os.path.join(_out, f"{os.getpid()}.txt"), "a") as f:
                f.write(f"{code.co_filename[len(_src):]}:"
                        f"{code.co_firstlineno}\\n")
sys.setprofile(_hook)
threading.setprofile(_hook)
"""


def run(outdir: Path, command: list[str]) -> int:
    site = outdir / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = [str(site), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, REACH_OUT=str(outdir.resolve()),
               REACH_SRC=str(SRC / "repro") + os.sep,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    child = subprocess.Popen(command, env=env)
    # Pass SIGTERM on, so that a traced server drains and exits.
    previous = signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait()
    finally:
        signal.signal(signal.SIGTERM, previous)


def never_entered(outdir: Path) -> dict[str, list[tuple[str, int]]]:
    """Per file under ``src``, each function no run entered, with its
    line count; functions inside one are left out, being in its lines."""
    entered = {line for record in outdir.glob("*.txt")
               for line in record.read_text().splitlines()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found: dict[str, list[tuple[str, int]]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        stack = [(node, "") for node in ast.parse(path.read_text()).body]
        while stack:
            node, prefix = stack.pop(0)
            named = isinstance(node, (*functions, ast.ClassDef))
            name = prefix + node.name if named else prefix
            if isinstance(node, functions):
                # A decorated function's code starts at its decorator.
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                module = path.relative_to(SRC / "repro")
                if f"{module}:{first}" not in entered:
                    file = str(path.relative_to(SRC.parent))
                    lines = node.end_lineno - first + 1
                    found.setdefault(file, []).append((name, lines))
                    continue
            inner = name + "." if named else prefix
            stack += [(child, inner) for child in ast.iter_child_nodes(node)]
    return found


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 3 and args[0] == "run" and args[2] == "--":
        return run(Path(args[1]), args[3:])
    if len(args) == 2 and args[0] == "report":
        total = 0
        for file, functions in never_entered(Path(args[1])).items():
            print(file)
            for name, lines in functions:
                print(f"  {lines:5d}  {name}")
                total += lines
        print(f"{total} lines in functions never entered")
        return 0
    print("\n".join(__doc__.splitlines()[2:4]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
