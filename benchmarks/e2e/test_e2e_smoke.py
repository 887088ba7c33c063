"""Smoke test of the end-to-end benchmark at toy sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Each
workload function runs in-process with toy sizes passed as arguments
(a 2k-tuple fit, serve phases of a second or two, 4 refits); the
serving workloads still launch ``arcs serve --workers 2`` as
subprocesses.
"""

from __future__ import annotations

import pytest

import compare
import layers
import run
import workloads
from common import load_spec, metric_units

SPEC = load_spec()


def _record(untraced: dict, traced: dict | None = None) -> dict:
    """The report entry, checked for shape, names, units and checks."""
    record = run.make_record(SPEC, untraced, traced)
    units = metric_units(SPEC, "end_to_end")
    assert {name: metric["unit"] for name, metric in
            record["metrics"].items()} == units
    for metric in record["metrics"].values():
        assert metric["value"] > 0 and metric["n"] >= 1
    failed = [check for check in record["checks"] if not check["ok"]]
    assert not failed and record["failed"] == 0
    assert record["attempted"] > 0
    line = run.result_line([record], trace=traced is not None)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    if traced is not None:
        assert {name: metric["unit"] for name, metric in
                record["layers"].items()} == metric_units(SPEC, "per_layer")
        assert record["absent"] == []
    return record


def test_spec_matches_the_harness():
    assert [entry["name"] for entry in SPEC["workloads"]] == [
        *workloads.FIT_SHAPES, "serve-predict", "serve-reload"
    ]
    per_layer = metric_units(SPEC, "per_layer")
    for layer in (*layers.FIT_LAYERS, *layers.SERVE_LAYERS, "obs.fleet"):
        for suffix in ("calls", "total_s", "self_s", "share"):
            assert f"{layer}.{suffix}" in per_layer
    assert {target.layer for target in layers.TARGETS} == {
        *layers.FIT_LAYERS, *layers.SERVE_LAYERS
    }


@pytest.mark.parametrize("workload", ["fit-fragmented", "fit-dense"])
def test_fit_workload(workload):
    untraced = workloads.run_fit(workload, 0, 0.0, False, tuples=2_000,
                                 tables=1)
    traced = workloads.run_fit(workload, 0, 0.0, True, tuples=2_000,
                               tables=1)
    record = _record(untraced, traced)
    values = {name: metric["value"]
              for name, metric in record["layers"].items()}
    assert values["core.optimizer.calls"] == traced["detail"]["fits"]
    assert values["core.merging.calls"] > 0
    self_time = sum(value for name, value in values.items()
                    if name.endswith(".self_s"))
    fit_seconds = traced["detail"]["fit_s"] * traced["detail"]["fits"]
    assert self_time == pytest.approx(fit_seconds, rel=0.25)


def test_serve_predict_workload(tmp_path):
    result = workloads.run_serve_predict(0, 4.0, False, tmp_path,
                                         warmup=0.5)
    _record(result)
    assert result["detail"]["batch_points_per_s"] > 0


def test_serve_reload_workload(tmp_path):
    result = workloads.run_serve_reload(0, 7.5, True, tmp_path,
                                        tuples=20_000, warmup=0.5)
    record = _record(result, result)
    assert result["detail"]["refits"] == 4
    assert result["detail"]["swaps"] >= 1
    values = {name: metric["value"]
              for name, metric in record["layers"].items()}
    for layer in ("serve.batching", "serve.scorer", "serve.workers",
                  "stream", "core.merging"):
        assert values[f"{layer}.calls"] > 0, layer


def test_every_wrapper_target_resolves():
    assert layers.absent_targets() == []


def test_missing_target_is_reported_absent():
    renamed = layers.Target("core.merging", "repro.core.clusterer",
                            "no_such_function")
    deleted = layers.Target("serve.batching", "repro.serve.no_such_module",
                            "BatchQueue.submit")
    with layers.Installed((renamed, deleted)) as installed:
        assert installed.absent == [renamed.path, deleted.path]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "within bound"
    assert compare.verdict(steady, [v * 1.5 for v in steady], "lower",
                           0.1)[0] == "worse"
    assert compare.verdict(steady, [v * 1.5 for v in steady], "higher",
                           0.1)[0] == "better"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.exact_verdict([0.05, 0.04], [0.05, 0.04])[0] == (
        "within bound")
    assert compare.exact_verdict([0.05, 0.04], [0.05, 0.041])[0] == "worse"
