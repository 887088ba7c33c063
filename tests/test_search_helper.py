"""The threshold search's forked helper gives exactly the serial search.

The helper is forced on and off through ``search_helper._force``, the
module's test seam; the production rule also needs 2 CPUs and a large
enough grid, which a test host may not have.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core import optimizer, search_helper
from repro.core.arcs import ARCS, ARCSConfig
from repro.core.optimizer import OptimizerConfig
from repro.obs.report import RunReport
from repro.obs.tracing import Span
from repro.stream.refitter import segmentation_content_hash

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="the search helper forks",
)

#: The e2e fit workloads' search: 32x32 grid, 6 x 10 lattice.
E2E = ARCSConfig(n_bins_x=32, n_bins_y=32,
                 optimizer=OptimizerConfig(max_support_levels=6,
                                           max_confidence_levels=10,
                                           patience=6))
SRC = Path(__file__).resolve().parents[1] / "src"


def table(tuples: int, outliers: float, seed: int) -> repro.Table:
    return repro.generate_synthetic(repro.SyntheticConfig(
        n_tuples=tuples, function_id=2, perturbation=0.05,
        outlier_fraction=outliers, seed=seed,
    ))


def fit(data, config=E2E, force=None, **kwargs):
    """One traced fit and what must not depend on the helper."""
    previous = search_helper._force
    search_helper._force = force
    obs.enable()
    try:
        result = ARCS(config).fit(data, "age", "salary", "group", "A",
                                  **kwargs)
    finally:
        obs.disable()
        search_helper._force = previous
    report = result.run_report
    root = report.span_tree()
    search = root.find("optimizer.search")
    return {
        "history": result.history,
        "hash": segmentation_content_hash(result.segmentation),
        "stopped_by": result.stopped_by,
        "counters": report.counters(),
        "spans": Counter(span.name for _, span in root.walk()),
        "trial_order": [
            (span.attributes["min_support"],
             span.attributes["min_confidence"])
            for span in search.children if span.name == "optimizer.trial"
        ],
        "helper_trials": search.attributes.get("helper_trials", 0),
    }


def same(serial: dict, helped: dict) -> None:
    for key in ("history", "hash", "stopped_by", "counters", "spans",
                "trial_order"):
        assert serial[key] == helped[key], key


@pytest.fixture
def fresh_helper():
    """No helper, none retired; the same again afterwards."""
    search_helper._shutdown()
    search_helper._retired = False
    yield
    search_helper._shutdown()
    search_helper._retired = False


@pytest.fixture(scope="module")
def fragmented():
    return [table(8_000, 0.10, seed) for seed in (0, 1)]


class TestExactness:
    @pytest.mark.parametrize("shape", ["fragmented", "dense"])
    def test_e2e_shapes(self, shape, fragmented, fresh_helper):
        tables = (fragmented if shape == "fragmented"
                  else [table(400_000, 0.0, 0)])
        for data in tables:
            serial = fit(data, force=False)
            helped = fit(data, force=True)
            same(serial, helped)
            assert serial["helper_trials"] == 0
            assert 0 < helped["helper_trials"] < len(helped["history"])
            assert helped["counters"]["optimizer.trials"] == len(
                helped["history"])

    def test_default_search_stops_mid_lattice(self, fragmented,
                                              fresh_helper):
        config = ARCSConfig(n_bins_x=32, n_bins_y=32)
        serial = fit(fragmented[0], config, force=False)
        helped = fit(fragmented[0], config, force=True)
        same(serial, helped)
        assert helped["stopped_by"] == "no improvement"
        assert helped["helper_trials"] > 0
        # 16 support levels of up to 8 confidences were not all run.
        assert len(helped["history"]) < 16 * 8

    def test_untraced_fit(self, fragmented, fresh_helper):
        search_helper._force = True
        try:
            helped = ARCS(E2E).fit(fragmented[1], "age", "salary",
                                   "group", "A")
        finally:
            search_helper._force = None
        assert search_helper._helper is not None
        serial = fit(fragmented[1], force=False)
        assert helped.history == serial["history"]
        assert segmentation_content_hash(
            helped.segmentation) == serial["hash"]


class TestSelection:
    def test_time_budget_stays_serial(self, fragmented, fresh_helper):
        config = ARCSConfig(
            n_bins_x=32, n_bins_y=32,
            optimizer=OptimizerConfig(max_support_levels=6,
                                      time_budget_seconds=600.0),
        )
        helped = fit(fragmented[0], config, force=True)
        assert helped["helper_trials"] == 0
        assert search_helper._helper is None
        same(fit(fragmented[0], config, force=False), helped)

    def test_second_live_thread_stays_serial(self, fragmented,
                                             fresh_helper):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            helped = fit(fragmented[0], force=True)
        finally:
            release.set()
            thread.join()
        assert helped["helper_trials"] == 0
        assert search_helper._helper is None
        same(fit(fragmented[0], force=False), helped)

    def test_forced_off(self, fragmented, fresh_helper):
        assert fit(fragmented[0], force=False)["helper_trials"] == 0
        assert search_helper._helper is None


class TestRobustness:
    # After the first level the rest runs here; after the last trial
    # the winner, a helper trial on this table, is clustered again.
    @pytest.mark.parametrize("kill_at", ["first", "last"])
    def test_killed_helper_finishes_serially(self, kill_at, fragmented,
                                             fresh_helper, caplog):
        serial = fit(fragmented[0], force=False)
        fit(fragmented[0], force=True)
        process = search_helper._helper.process
        seen, killed = [], []
        at = 1 if kill_at == "first" else len(serial["history"])

        def kill_once(trial):
            seen.append(trial)
            if len(seen) == at:
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=5)
                killed.append(trial)

        search_helper._force = True
        obs.enable()
        try:
            result = ARCS(E2E).fit(fragmented[0], "age", "salary",
                                   "group", "A", on_trial=kill_once)
        finally:
            obs.disable()
            search_helper._force = None
        assert killed and not process.is_alive()
        assert result.history == serial["history"]
        assert segmentation_content_hash(
            result.segmentation) == serial["hash"]
        assert result.stopped_by == serial["stopped_by"]
        assert result.run_report.counters()[
            "optimizer.helper_failures"] == 1
        assert any("search helper failed" in record.getMessage()
                   for record in caplog.records)
        assert search_helper._helper is None and search_helper._retired
        # A retired helper is not replaced: later searches are serial.
        assert fit(fragmented[0], force=True)["helper_trials"] == 0

    def test_killed_fit_process_leaves_no_helper(self):
        script = (
            "import sys, time\n"
            "import repro\n"
            "from repro.core import search_helper\n"
            "search_helper._force = True\n"
            "data = repro.generate_synthetic(repro.SyntheticConfig("
            "n_tuples=2000, function_id=2, seed=1))\n"
            "repro.ARCS(repro.ARCSConfig(n_bins_x=16, n_bins_y=16)).fit("
            "data, 'age', 'salary', 'group', 'A')\n"
            "print(search_helper._helper.process.pid, flush=True)\n"
            "time.sleep(60)\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            helper_pid = int(process.stdout.readline())
        finally:
            process.kill()
            process.wait()
            process.stdout.close()
        deadline = time.monotonic() + 1.0
        while _running(helper_pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(helper_pid)

    def test_forked_child_has_no_helper(self, fragmented, fresh_helper):
        fit(fragmented[0], force=True)
        descriptor = search_helper._helper.conn.fileno()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by status
            code = 0 if search_helper._helper is None else 1
            try:
                os.fstat(descriptor)
                code = 2
            except OSError:
                pass
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert search_helper._helper is not None

    def test_stale_reply_is_discarded(self, fragmented, fresh_helper,
                                      monkeypatch):
        serial = fit(fragmented[1], force=False)
        fit(fragmented[0], force=True)  # the helper exists from here

        def interrupted(*args):
            raise KeyboardInterrupt

        search_helper._force = True
        try:
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "run_trial", interrupted)
                with pytest.raises(KeyboardInterrupt):
                    ARCS(E2E).fit(fragmented[0], "age", "salary",
                                  "group", "A")
        finally:
            search_helper._force = None
        # The helper's answer to the interrupted level is still in the
        # pipe; the next search reads past it.
        helped = fit(fragmented[1], force=True)
        same(serial, helped)
        assert helped["helper_trials"] > 0
        assert not search_helper._retired


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        status = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return status.rsplit(")", 1)[1].split()[0] != "Z"


def test_search_self_time_never_negative():
    """Helper trial spans overlap the fit process's own, so a search
    span's children can outlast it; its self time reads zero."""
    search = Span("optimizer.search")
    search.started, search.duration = 0.0, 1.0
    for started in (0.0, 0.1):
        trial = Span("optimizer.trial")
        trial.started, trial.duration = started, 0.9
        search.children.append(trial)
    report = RunReport(name="optimizer.search", started_at=0.0,
                       duration_seconds=1.0, trace=search.to_dict())
    assert report.self_seconds() == {"optimizer.search": 0.0,
                                     "optimizer.trial": 1.8}
    assert " -0." not in report.summary()
