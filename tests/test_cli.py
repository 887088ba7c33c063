"""Integration tests for the `arcs` command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    code = main([
        "generate", str(path),
        "--tuples", "8000", "--seed", "5",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main(["generate", str(path), "--tuples", "500"])
        assert code == 0
        header = path.read_text().splitlines()[0]
        assert "salary" in header and "group" in header
        assert "wrote 500 tuples" in capsys.readouterr().out

    def test_outlier_flag(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main([
            "generate", str(path), "--tuples", "300",
            "--outliers", "0.1",
        ]) == 0

    def test_rejects_unknown_function(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", str(tmp_path / "x.csv"),
                  "--function", "11"])


class TestFit:
    def test_fit_prints_segmentation(self, dataset, capsys):
        code = main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "30",
            "--support-levels", "5", "--confidence-levels", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "group = A" in out
        assert "support>=" in out

    def test_fit_verbose_prints_trials(self, dataset, capsys):
        code = main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "20",
            "--support-levels", "3", "--confidence-levels", "3",
            "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # Multiple trial lines precede the final report.
        assert out.count("clusters, error=") >= 3

    def test_fit_metrics_out_writes_run_report(self, dataset, tmp_path,
                                               capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "20",
            "--support-levels", "3", "--confidence-levels", "3",
            "--metrics-out", str(report_path),
        ])
        assert code == 0
        assert "run report written" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["format"] == "arcs-run-report"
        assert payload["name"] == "arcs.fit"
        assert payload["trace"]["name"] == "arcs.fit"
        counters = payload["metrics"]["counters"]
        assert counters["binner.tuples_binned"] == 8000
        assert counters["optimizer.trials"] >= 1
        # The CLI-driven enablement must not leak into the process.
        from repro import obs
        assert not obs.enabled()

    def test_fit_trace_prints_span_summary(self, dataset, capsys):
        code = main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "20",
            "--support-levels", "3", "--confidence-levels", "3",
            "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run arcs.fit" in out
        assert "optimizer.trial" in out
        assert "binner.tuples_binned" in out

    def test_fit_saves_artefacts(self, dataset, tmp_path, capsys):
        seg_path = tmp_path / "seg.json"
        bins_path = tmp_path / "bins.npz"
        code = main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "25",
            "--support-levels", "5", "--confidence-levels", "4",
            "--save-segmentation", str(seg_path),
            "--save-binarray", str(bins_path),
        ])
        assert code == 0
        payload = json.loads(seg_path.read_text())
        assert payload["rhs_value"] == "A"
        assert bins_path.exists()


class TestTelemetryExports:
    """The shared --trace-out / --events-out / --profile-out flags."""

    FIT = [
        "--x", "age", "--y", "salary",
        "--rhs", "group", "--target", "A",
        "--bins", "20",
        "--support-levels", "3", "--confidence-levels", "3",
    ]

    def test_trace_out_writes_chrome_trace(self, dataset, tmp_path,
                                           capsys):
        trace_path = tmp_path / "trace.json"
        code = main(["fit", str(dataset), *self.FIT,
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert f"chrome trace written to {trace_path}" \
            in capsys.readouterr().out
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata first
        slices = [e for e in events if e["ph"] == "X"]
        assert slices, events
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)
        assert any(e["name"] == "arcs.fit" for e in slices)

    def test_events_out_writes_run_and_stage_events(self, dataset,
                                                    tmp_path):
        events_path = tmp_path / "events.jsonl"
        code = main(["fit", str(dataset), *self.FIT,
                     "--events-out", str(events_path)])
        assert code == 0
        lines = [json.loads(line)
                 for line in events_path.read_text().splitlines()]
        types = {line["type"] for line in lines}
        assert "run" in types and "stage" in types
        run = next(line for line in lines if line["type"] == "run")
        assert run["name"] == "arcs.fit"
        assert run["error"] is None
        # The sink must not leak past the command.
        from repro.obs import events as events_mod
        assert not events_mod.events_enabled()

    def test_profile_out_writes_collapsed_stacks(self, dataset,
                                                 tmp_path, capsys):
        profile_path = tmp_path / "profile.txt"
        code = main(["fit", str(dataset), *self.FIT,
                     "--profile-out", str(profile_path)])
        assert code == 0
        assert f"written to {profile_path}" in capsys.readouterr().out
        assert profile_path.exists()
        for line in profile_path.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) >= 1

    def test_rejects_unwritable_export_path(self, dataset, tmp_path):
        bad = tmp_path / "no-such-dir" / "trace.json"
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(dataset), *self.FIT,
                  "--trace-out", str(bad)])
        assert "does not exist" in str(exc.value)


class TestFitAll:
    def test_prints_one_section_per_group(self, dataset, capsys):
        code = main([
            "fit-all", str(dataset),
            "--x", "age", "--y", "salary", "--rhs", "group",
            "--bins", "25",
            "--support-levels", "4", "--confidence-levels", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "group = A" in out
        assert "group = other" in out


class TestRemineAndInspect:
    @pytest.fixture()
    def artefacts(self, dataset, tmp_path):
        seg_path = tmp_path / "seg.json"
        bins_path = tmp_path / "bins.npz"
        main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "25",
            "--support-levels", "5", "--confidence-levels", "4",
            "--save-segmentation", str(seg_path),
            "--save-binarray", str(bins_path),
        ])
        return seg_path, bins_path

    def test_remine_from_saved_binarray(self, artefacts, capsys):
        _, bins_path = artefacts
        code = main([
            "remine", str(bins_path),
            "--target", "A",
            "--min-support", "0.0005", "--min-confidence", "0.6",
        ])
        assert code == 0
        assert "re-mined" in capsys.readouterr().out

    def test_inspect_prints_rules(self, artefacts, capsys):
        seg_path, _ = artefacts
        code = main(["inspect", str(seg_path)])
        assert code == 0
        assert "group = A" in capsys.readouterr().out

    def test_inspect_evaluates_against_csv(self, artefacts, dataset,
                                           capsys):
        seg_path, _ = artefacts
        code = main([
            "inspect", str(seg_path), "--evaluate", str(dataset),
        ])
        assert code == 0
        assert "error rate" in capsys.readouterr().out


class TestScore:
    @pytest.fixture()
    def model_path(self, dataset, tmp_path):
        seg_path = tmp_path / "seg.json"
        assert main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "25",
            "--support-levels", "5", "--confidence-levels", "4",
            "--save-segmentation", str(seg_path),
        ]) == 0
        return seg_path

    def test_score_prints_summary_and_provenance(self, model_path,
                                                 dataset, capsys):
        code = main(["score", str(model_path), "--input", str(dataset)])
        assert code == 0
        out = capsys.readouterr().out
        assert "scored 8,000 tuples" in out
        assert "in segment group = A" in out
        assert "saved by repro" in out

    def test_score_writes_predictions_csv(self, model_path, dataset,
                                          tmp_path, capsys):
        out_path = tmp_path / "preds.csv"
        code = main([
            "score", str(model_path), "--input", str(dataset),
            "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "age,salary,rule,in_segment"
        assert len(lines) == 8001
        assert "predictions written" in capsys.readouterr().out

    def test_score_metrics_out_includes_serve_counters(
            self, model_path, dataset, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "score", str(model_path), "--input", str(dataset),
            "--metrics-out", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["name"] == "cli.score"
        counters = payload["metrics"]["counters"]
        assert counters["serve.tuples_scored"] == 8000
        span_names = [child["name"]
                      for child in payload["trace"]["children"]]
        assert "load" in span_names and "score" in span_names

    def test_inspect_prints_provenance(self, model_path, capsys):
        assert main(["inspect", str(model_path)]) == 0
        assert "saved by repro" in capsys.readouterr().out


class TestUsageErrors:
    def test_version_flag_exits_zero(self, capsys):
        import repro
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"arcs {repro.__version__}"

    def test_unknown_subcommand_is_exit_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage: arcs" in capsys.readouterr().err

    def test_missing_subcommand_is_exit_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage: arcs" in capsys.readouterr().err


class TestFailurePaths:
    def test_fit_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main([
                "fit", str(tmp_path / "nope.csv"),
                "--x", "age", "--y", "salary",
                "--rhs", "group", "--target", "A",
            ])

    def test_fit_unknown_attribute(self, dataset):
        from repro.data.schema import SchemaError
        with pytest.raises(SchemaError):
            main([
                "fit", str(dataset),
                "--x", "height", "--y", "salary",
                "--rhs", "group", "--target", "A",
            ])

    def test_fit_unknown_target(self, dataset):
        with pytest.raises(KeyError):
            main([
                "fit", str(dataset),
                "--x", "age", "--y", "salary",
                "--rhs", "group", "--target", "no-such-group",
                "--support-levels", "3", "--confidence-levels", "3",
            ])

    def test_remine_rejects_non_binarray(self, tmp_path):
        import numpy as np
        from repro.persistence import PersistenceError
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, data=np.zeros(2))
        with pytest.raises(PersistenceError):
            main([
                "remine", str(bogus), "--target", "A",
                "--min-support", "0.01", "--min-confidence", "0.5",
            ])

    def test_inspect_rejects_non_segmentation(self, tmp_path):
        from repro.persistence import PersistenceError
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "other"}')
        with pytest.raises(PersistenceError):
            main(["inspect", str(bogus)])

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestDrift:
    @pytest.fixture()
    def snapshots(self, dataset, tmp_path):
        seg_path = tmp_path / "seg.json"
        bins_path = tmp_path / "bins.npz"
        assert main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "25",
            "--support-levels", "5", "--confidence-levels", "4",
            "--save-segmentation", str(seg_path),
            "--save-binarray", str(bins_path),
        ]) == 0
        return seg_path, bins_path

    def test_segmentation_vs_binarray(self, snapshots, capsys):
        seg_path, bins_path = snapshots
        code = main(["drift", str(seg_path), str(bins_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PSI" in out and "JS (bits)" in out
        for attribute in ("age", "salary", "joint"):
            assert attribute in out
        # The two snapshots describe the same training data: every
        # divergence row is (numerically) zero.
        assert out.count("0.0000") >= 6
        # The ASCII delta grid rides along, in grid orientation.
        assert "> age" in out
        assert "salary ^" in out

    def test_detects_a_shifted_snapshot(self, snapshots, dataset,
                                        tmp_path, capsys):
        seg_path, _ = snapshots
        skewed_bins = tmp_path / "skewed.npz"
        # Re-fit on a different generated dataset: different seed,
        # different mass placement.
        skewed_csv = tmp_path / "skewed.csv"
        assert main([
            "generate", str(skewed_csv),
            "--tuples", "4000", "--seed", "99",
        ]) == 0
        assert main([
            "fit", str(skewed_csv),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "25",
            "--support-levels", "5", "--confidence-levels", "4",
            "--save-binarray", str(skewed_bins),
        ]) == 0
        code = main(["drift", str(seg_path), str(skewed_bins)])
        assert code == 0
        out = capsys.readouterr().out
        assert "joint" in out

    def test_stats_capture_as_observed_side(self, snapshots, tmp_path,
                                            capsys):
        import numpy as np

        from repro.serve import ModelRegistry, PredictionService

        seg_path, _ = snapshots
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        (model_dir / "traffic.json").write_text(seg_path.read_text())
        service = PredictionService(
            ModelRegistry(model_dir, refresh_interval=0).load()
        )
        rng = np.random.default_rng(3)
        service.predict_batch({
            "model": "traffic",
            "x": rng.uniform(20, 80, 100).tolist(),
            "y": rng.uniform(20_000, 140_000, 100).tolist(),
        })
        status, body = service.dispatch("stats", None)
        assert status == 200
        capture_path = tmp_path / "stats.json"
        capture_path.write_text(json.dumps(body))
        code = main(["drift", str(seg_path), str(capture_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "100 tuples" in out
        assert "joint" in out

    def test_model_flag_required_for_multi_model_captures(
            self, snapshots, tmp_path):
        seg_path, _ = snapshots
        capture = tmp_path / "stats.json"
        capture.write_text(json.dumps({
            "models": {"a": {}, "b": {}},
        }))
        with pytest.raises(SystemExit, match="--model"):
            main(["drift", str(seg_path), str(capture)])

    def test_rejects_artefact_without_reference(self, snapshots,
                                                tmp_path):
        from repro.core.rules import ClusteredRule, Interval
        from repro.core.segmentation import Segmentation
        from repro.persistence import save_segmentation

        _, bins_path = snapshots
        bare = tmp_path / "bare.json"
        save_segmentation(Segmentation.from_rules([ClusteredRule(
            "age", "salary", Interval(0, 1), Interval(0, 1),
            "group", "A", support=0.1, confidence=0.9,
        )]), bare)
        with pytest.raises(SystemExit, match="no embedded reference"):
            main(["drift", str(bare), str(bins_path)])

    def test_rejects_mismatched_grids(self, snapshots, dataset,
                                      tmp_path):
        seg_path, _ = snapshots
        other_bins = tmp_path / "other.npz"
        assert main([
            "fit", str(dataset),
            "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--bins", "10",
            "--support-levels", "5", "--confidence-levels", "4",
            "--save-binarray", str(other_bins),
        ]) == 0
        with pytest.raises(SystemExit, match="incompatible"):
            main(["drift", str(seg_path), str(other_bins)])

    def test_rejects_non_snapshot_json(self, snapshots, tmp_path):
        seg_path, _ = snapshots
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}')
        with pytest.raises(SystemExit, match="neither"):
            main(["drift", str(seg_path), str(bogus)])


class TestServeFlags:
    def _parse(self, argv):
        from repro.cli import _build_parser

        return _build_parser().parse_args(argv)

    def test_serve_defaults_to_threaded_unbatched(self, tmp_path):
        args = self._parse(["serve", str(tmp_path)])
        assert args.workers == 0

    def test_serve_has_no_batching_flags(self, capsys):
        # Requests are always scored inline; no knob queues them.
        with pytest.raises(SystemExit):
            self._parse(["serve", "--help"])
        help_text = capsys.readouterr().out
        assert "--workers" in help_text
        assert "batch" not in help_text and "queue" not in help_text

    def test_serve_accepts_worker_count(self, tmp_path):
        args = self._parse(["serve", str(tmp_path), "--workers", "4"])
        assert args.workers == 4

    def test_serve_rejects_negative_workers(self, tmp_path):
        tmp_path.joinpath("models").mkdir()
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", str(tmp_path / "models"),
                  "--workers", "-1"])
