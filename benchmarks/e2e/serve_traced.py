"""``arcs serve`` with the benchmark's per-layer timing wrappers.

Usage (what the traced serving workloads launch)::

    python benchmarks/e2e/serve_traced.py serve MODELS --workers 2 --port 0

The wrappers are installed first, then ``repro.cli.main`` runs the
command unchanged.  Forked workers inherit the wrappers; each adds to
its own ``repro.obs.metrics`` registry, and fleet telemetry sums those
registries into the ``GET /metrics`` answer the harness reads.
"""

from __future__ import annotations

import sys

from common import use_repo_source

use_repo_source()

import layers  # noqa: E402
from repro import cli  # noqa: E402


def main(argv: list[str]) -> int:
    installed = layers.Installed()
    for path in installed.absent:
        sys.stderr.write(f"e2e trace: {path} is absent; not timed\n")
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
