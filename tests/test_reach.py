"""Tests for the reachability tracer (tools/reach.py)."""

import sys

from tools import reach

RULES = "src/repro/core/rules.py"


def test_report_lists_what_a_command_never_entered(tmp_path):
    command = "from repro.core.rules import Interval; Interval(0, 1)"
    assert reach.main(["run", str(tmp_path), "--",
                       sys.executable, "-c", command]) == 0
    never = dict(reach.never_entered(tmp_path)[RULES])
    assert "Interval.__post_init__" not in never
    assert never["Interval.intersect"] > 1


def test_usage_error_exits_2(capsys):
    assert reach.main(["run", "out"]) == 2
    assert "report OUTDIR" in capsys.readouterr().err
