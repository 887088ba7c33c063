"""Tests for the streaming subsystem: sources, windows, refitter, CLI.

The load-bearing property throughout is the streaming invariant: after
*any* sequence of ingests and expiries, the windowed BinArray is
bit-identical (exact ``==`` on every counter) to a BinArray accumulated
from scratch over exactly the window's surviving tuples.
"""

import json

import numpy as np
import pytest

import repro
from repro.binning.bin_array import BinArray
from repro.binning.binner import Binner
from repro.binning.categorical import CategoricalEncoding
from repro.binning.strategies import equi_width_layout
from repro.cli import main
from repro.data.io import write_csv
from repro.data.schema import Table, categorical, quantitative
from repro.mining.engine import rule_measures
from repro.serve.registry import ModelRegistry
from repro.stream import (
    CSVReplaySource,
    JSONLTailSource,
    ManualClock,
    RefitterConfig,
    StreamRefitter,
    StreamWindow,
    TableReplaySource,
    WindowConfig,
    run_watch,
    segmentation_content_hash,
)


def make_layouts(n_bins=6):
    return (
        equi_width_layout("age", 0.0, 100.0, n_bins),
        equi_width_layout("salary", 0.0, 150_000.0, n_bins),
    )


def make_window(mode="tumbling", size=100, refit_every=None, n_bins=6):
    x_layout, y_layout = make_layouts(n_bins)
    encoding = CategoricalEncoding("group", ("A", "other"))
    return StreamWindow(
        x_layout, y_layout, encoding,
        WindowConfig(mode=mode, size=size, refit_every=refit_every),
    )


def random_bins(rng, n, n_bins=6, n_codes=2):
    return (
        rng.integers(0, n_bins, n),
        rng.integers(0, n_bins, n),
        rng.integers(0, n_codes, n),
    )


def assert_window_matches_fresh(window):
    """The streaming invariant, asserted bit-for-bit."""
    xs, ys, codes = window.surviving()
    fresh = BinArray(
        window.x_layout, window.y_layout, window.rhs_encoding,
        target_code=window.target_code,
    )
    fresh.add_chunk(xs, ys, codes)
    assert np.array_equal(fresh.counts, window.bin_array.counts)
    assert np.array_equal(fresh.totals, window.bin_array.totals)
    assert fresh.n_total == window.bin_array.n_total == len(xs)
    assert window.window_tuples == len(xs)


@pytest.fixture(scope="module")
def stream_table():
    """8k tuples of Function 2 data the streaming tests replay."""
    return repro.generate_synthetic(repro.SyntheticConfig(
        n_tuples=8_000, function_id=2, perturbation=0.05, seed=31,
    ))


# ----------------------------------------------------------------------
# Clocks and sources
# ----------------------------------------------------------------------
class TestClocks:
    def test_manual_clock_accumulates_sleeps(self):
        clock = ManualClock()
        clock.sleep(0.5)
        clock.sleep(1.5)
        assert clock.now() == 2.0
        assert clock.sleeps == [0.5, 1.5]

    def test_manual_clock_rejects_negative_sleep(self):
        with pytest.raises(ValueError):
            ManualClock().sleep(-1)


class TestTableReplaySource:
    def test_replays_every_tuple_in_order(self, stream_table):
        source = TableReplaySource(stream_table, chunk_rows=999)
        chunks = list(source.chunks())
        assert sum(len(c) for c in chunks) == len(stream_table)
        assert len(chunks) == 9
        replayed = np.concatenate([c.column("age") for c in chunks])
        assert np.array_equal(replayed, stream_table.column("age"))

    def test_pacing_goes_through_the_injected_clock(self, stream_table):
        clock = ManualClock()
        source = TableReplaySource(
            stream_table, chunk_rows=2_000, pace_seconds=0.25, clock=clock
        )
        assert len(list(source.chunks())) == 4
        # No sleep before the first chunk; one before each later chunk.
        assert clock.sleeps == [0.25, 0.25, 0.25]

    def test_rejects_bad_parameters(self, stream_table):
        with pytest.raises(ValueError):
            TableReplaySource(stream_table, chunk_rows=0)
        with pytest.raises(ValueError):
            TableReplaySource(stream_table, pace_seconds=-1)


class TestCSVReplaySource:
    def test_streams_the_file_in_chunks(self, stream_table, tmp_path):
        path = tmp_path / "stream.csv"
        write_csv(stream_table, path)
        source = CSVReplaySource(
            path, list(stream_table.schema.values()), chunk_rows=3_000
        )
        chunks = list(source.chunks())
        assert [len(c) for c in chunks] == [3_000, 3_000, 2_000]


class TestJSONLTailSource:
    SPECS = [
        quantitative("age", 0, 100),
        quantitative("salary", 0, 150_000),
        categorical("group", ("A", "other")),
    ]

    @staticmethod
    def _line(age, salary, group="A"):
        return json.dumps(
            {"age": age, "salary": salary, "group": group}
        ) + "\n"

    def test_tails_until_idle(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            self._line(25, 50_000) + self._line(60, 90_000, "other")
        )
        clock = ManualClock()
        source = JSONLTailSource(
            path, self.SPECS, chunk_rows=10,
            poll_seconds=0.1, idle_polls=3, clock=clock,
        )
        chunks = list(source.chunks())
        assert [len(c) for c in chunks] == [2]
        assert chunks[0].column("group").tolist() == ["A", "other"]
        # The partial chunk flushed at the first dry poll, then the
        # source waited out its idle budget through the injected clock.
        assert clock.sleeps == [0.1, 0.1, 0.1]

    def test_sees_lines_appended_between_polls(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(self._line(25, 50_000))

        appended = []

        class AppendingClock(ManualClock):
            def sleep(self, seconds):
                super().sleep(seconds)
                if not appended:
                    with open(path, "a") as handle:
                        handle.write(self._line_out)
                    appended.append(True)

        clock = AppendingClock()
        clock._line_out = self._line(70, 30_000, "other")
        source = JSONLTailSource(
            path, self.SPECS, chunk_rows=10, idle_polls=2, clock=clock,
        )
        chunks = list(source.chunks())
        assert [len(c) for c in chunks] == [1, 1]
        assert chunks[1].column("age")[0] == 70

    def test_torn_trailing_line_is_never_parsed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        torn = '{"age": 25, "salary": 5'
        path.write_text(self._line(30, 60_000) + torn)

        class CompletingClock(ManualClock):
            """Finish the torn line during the first poll sleep."""

            def __init__(self):
                super().__init__()
                self.completed = False

            def sleep(self, seconds):
                super().sleep(seconds)
                if not self.completed:
                    with open(path, "a") as handle:
                        handle.write('0000, "group": "other"}\n')
                    self.completed = True

        source = JSONLTailSource(
            path, self.SPECS, chunk_rows=10, idle_polls=2,
            clock=CompletingClock(),
        )
        chunks = list(source.chunks())
        assert [len(c) for c in chunks] == [1, 1]
        assert chunks[1].column("salary")[0] == 50_000

    def test_invalid_json_line_fails_loudly(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("{broken\n")
        source = JSONLTailSource(path, self.SPECS, idle_polls=1,
                                 clock=ManualClock())
        with pytest.raises(ValueError, match="not valid JSON"):
            list(source.chunks())

    def test_missing_column_fails_loudly(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"age": 10, "salary": 20}\n')
        source = JSONLTailSource(path, self.SPECS, idle_polls=1,
                                 clock=ManualClock())
        with pytest.raises(ValueError, match="group"):
            list(source.chunks())


# ----------------------------------------------------------------------
# Window manager
# ----------------------------------------------------------------------
class TestTumblingWindow:
    def test_refit_due_once_size_reached(self):
        window = make_window(size=10)
        rng = np.random.default_rng(0)
        delta = window.ingest(*random_bins(rng, 6))
        assert not delta.refit_due
        delta = window.ingest(*random_bins(rng, 6))
        assert delta.refit_due
        assert delta.window_tuples == 12
        assert delta.expired == 0

    def test_mark_refit_expires_the_whole_window(self):
        window = make_window(size=10)
        rng = np.random.default_rng(1)
        window.ingest(*random_bins(rng, 12))
        assert window.mark_refit() == 12
        assert window.window_tuples == 0
        assert window.window_id == 1
        assert not window.bin_array.counts.any()
        assert not window.bin_array.totals.any()
        assert window.bin_array.n_total == 0
        assert_window_matches_fresh(window)

    def test_windows_are_independent(self):
        window = make_window(size=5)
        rng = np.random.default_rng(2)
        window.ingest(*random_bins(rng, 5))
        window.mark_refit()
        xs, ys, codes = random_bins(rng, 5)
        window.ingest(xs, ys, codes)
        fresh = BinArray(
            window.x_layout, window.y_layout, window.rhs_encoding
        )
        fresh.add_chunk(xs, ys, codes)
        assert np.array_equal(fresh.counts, window.bin_array.counts)


class TestSlidingWindow:
    def test_overflow_expires_oldest_tuples(self):
        window = make_window(mode="sliding", size=10)
        rng = np.random.default_rng(3)
        window.ingest(*random_bins(rng, 8))
        delta = window.ingest(*random_bins(rng, 8))
        assert delta.expired == 6
        assert delta.window_tuples == 10
        assert_window_matches_fresh(window)

    def test_mid_chunk_split_keeps_newest_tuples(self):
        window = make_window(mode="sliding", size=4)
        xs = np.arange(6) % 6
        ys = np.zeros(6, dtype=np.int64)
        codes = np.zeros(6, dtype=np.int64)
        window.ingest(xs, ys, codes)
        surviving_x, _, _ = window.surviving()
        assert surviving_x.tolist() == [2, 3, 4, 5]
        assert_window_matches_fresh(window)

    def test_giant_chunk_expires_across_chunks(self):
        window = make_window(mode="sliding", size=5)
        rng = np.random.default_rng(4)
        for _ in range(3):
            window.ingest(*random_bins(rng, 3))
        window.ingest(*random_bins(rng, 20))
        assert window.window_tuples == 5
        assert_window_matches_fresh(window)

    def test_refit_every_counts_tuples_between_refits(self):
        window = make_window(mode="sliding", size=50, refit_every=10)
        rng = np.random.default_rng(5)
        assert not window.ingest(*random_bins(rng, 6)).refit_due
        assert window.ingest(*random_bins(rng, 6)).refit_due
        assert window.mark_refit() == 0  # sliding keeps its history
        assert window.window_tuples == 12
        assert not window.ingest(*random_bins(rng, 6)).refit_due

    def test_default_cadence_refits_every_nonempty_chunk(self):
        window = make_window(mode="sliding", size=50)
        rng = np.random.default_rng(6)
        assert window.ingest(*random_bins(rng, 1)).refit_due
        empty = np.empty(0, dtype=np.int64)
        assert not window.ingest(empty, empty, empty).refit_due


class TestWindowConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            WindowConfig(mode="hopping")

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size"):
            WindowConfig(size=0)

    def test_rejects_nonpositive_refit_every(self):
        with pytest.raises(ValueError, match="refit_every"):
            WindowConfig(mode="sliding", refit_every=0)


# ----------------------------------------------------------------------
# Refitter
# ----------------------------------------------------------------------
def fitted_binner(table, n_bins=10):
    return Binner.fit(table, "age", "salary", "group", n_bins, n_bins)


def make_refitter(table, publish_dir, mode="tumbling", size=2_000,
                  refit_every=None, name="stream_A", **config):
    binner = fitted_binner(table)
    window = StreamWindow(
        binner.x_layout, binner.y_layout, binner.rhs_encoding,
        WindowConfig(mode=mode, size=size, refit_every=refit_every),
    )
    settings = RefitterConfig(
        min_support=config.pop("min_support", 0.002),
        min_confidence=config.pop("min_confidence", 0.3),
        **config,
    )
    return StreamRefitter(
        binner.x_layout, binner.y_layout, binner.rhs_encoding,
        window, "A", publish_dir, name, settings,
    )


class TestStreamRefitter:
    def test_bounded_replay_publishes_and_registry_serves_it(
            self, stream_table, tmp_path):
        refitter = make_refitter(stream_table, tmp_path)
        summary = run_watch(
            TableReplaySource(stream_table, chunk_rows=500), refitter
        )
        assert summary.tuples == len(stream_table)
        assert summary.refits == 4
        assert summary.publishes >= 1
        assert refitter.artefact_path.exists()
        registry = ModelRegistry(tmp_path, refresh_interval=0).load()
        model = registry.resolve("stream_A")
        # The registry derives the exact id the refresh event reported.
        last_published = [
            r for r in summary.records if r.published
        ][-1]
        assert model.model_id == last_published.model_id
        assert len(model.segmentation) == last_published.n_rules

    def test_unchanged_segmentation_skips_publish(self, stream_table,
                                                  tmp_path):
        refitter = make_refitter(stream_table, tmp_path, size=1_000)
        # The same 1k tuples twice: identical windows, identical rules.
        first = stream_table.head(1_000)
        chunks = TableReplaySource(first, chunk_rows=1_000)
        run_watch(chunks, refitter, flush=False)
        mtime = refitter.artefact_path.stat().st_mtime_ns
        summary = run_watch(
            TableReplaySource(first, chunk_rows=1_000), refitter,
            flush=False,
        )
        record = summary.records[0]
        assert not record.published
        assert record.model_id is None
        # Skipped publish really never touched the artefact.
        assert refitter.artefact_path.stat().st_mtime_ns == mtime

    def test_hot_reload_picks_up_a_refreshed_artefact(
            self, stream_table, tmp_path):
        refitter = make_refitter(stream_table, tmp_path, size=1_000)
        run_watch(
            TableReplaySource(stream_table.head(1_000),
                              chunk_rows=1_000),
            refitter, flush=False,
        )
        registry = ModelRegistry(tmp_path, refresh_interval=0).load()
        old_id = registry.resolve("stream_A").model_id
        # A different window of data publishes a different model...
        run_watch(
            TableReplaySource(
                stream_table.take(np.arange(4_000, 5_000)),
                chunk_rows=1_000,
            ),
            refitter, flush=False,
        )
        # ...and the registry's existing refresh path picks it up.
        assert registry.maybe_refresh()
        new = registry.resolve("stream_A")
        assert new.model_id != old_id
        assert new.model_id == refitter.last_record.model_id

    def test_refresh_events_are_emitted(self, stream_table, tmp_path):
        from repro.obs import events

        out = tmp_path / "events.jsonl"
        models = tmp_path / "models"
        models.mkdir()
        events.enable_events(out)
        try:
            refitter = make_refitter(stream_table, models, size=2_000)
            run_watch(
                TableReplaySource(stream_table, chunk_rows=500),
                refitter,
            )
        finally:
            events.disable_events()
        lines = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        refreshes = [
            e for e in lines if e["type"] == "stream.refresh"
        ]
        assert len(refreshes) == 4
        first = refreshes[0]
        assert first["window"] == 0
        assert first["window_tuples"] == 2_000
        assert first["published"] is True
        assert first["content_hash"]
        assert first["model_id"]
        assert first["path"].endswith("stream_A.json")

    def test_small_window_defers_refit(self, stream_table, tmp_path):
        refitter = make_refitter(
            stream_table, tmp_path, mode="sliding", size=1_000,
            min_window_tuples=500,
        )
        record = refitter.ingest(stream_table.head(100))
        assert record is None
        assert refitter.window.window_tuples == 100

    def test_publish_dir_must_exist(self, stream_table, tmp_path):
        with pytest.raises(NotADirectoryError):
            make_refitter(stream_table, tmp_path / "absent")

    def test_artefact_name_is_validated(self, stream_table, tmp_path):
        with pytest.raises(ValueError, match="invalid artefact name"):
            make_refitter(stream_table, tmp_path, name="../escape")
        with pytest.raises(ValueError, match="invalid artefact name"):
            make_refitter(stream_table, tmp_path, name=".hidden")

    def test_no_temp_files_left_behind(self, stream_table, tmp_path):
        refitter = make_refitter(stream_table, tmp_path)
        run_watch(
            TableReplaySource(stream_table, chunk_rows=500), refitter
        )
        assert [p.name for p in tmp_path.iterdir()] == ["stream_A.json"]

    def test_max_refits_bounds_the_run(self, stream_table, tmp_path):
        refitter = make_refitter(stream_table, tmp_path, size=1_000)
        summary = run_watch(
            TableReplaySource(stream_table, chunk_rows=500),
            refitter, max_refits=2,
        )
        assert summary.refits == 2

    def test_flush_refits_the_residual_tail(self, stream_table,
                                            tmp_path):
        refitter = make_refitter(stream_table, tmp_path, size=3_000)
        summary = run_watch(
            TableReplaySource(
                stream_table.head(4_000), chunk_rows=1_000
            ),
            refitter, flush=True,
        )
        # One full window refit plus the flushed 1k-tuple tail.
        assert summary.refits == 2
        assert summary.records[-1].window_tuples == 1_000

    def test_windowed_refit_equals_scratch_fit(self, stream_table,
                                               tmp_path):
        """The tentpole invariant, end to end: a sliding refit's rules
        are exactly a from-scratch fit on the window's tuples."""
        from repro.core.clusterer import GridClusterer
        from repro.core.optimizer import segmentation_from_outcome

        refitter = make_refitter(
            stream_table, tmp_path, mode="sliding", size=2_500,
            refit_every=2_500,
        )
        run_watch(
            TableReplaySource(stream_table, chunk_rows=700), refitter
        )
        window = refitter.window
        assert_window_matches_fresh(window)
        xs, ys, codes = window.surviving()
        scratch = BinArray(
            window.x_layout, window.y_layout, window.rhs_encoding
        )
        scratch.add_chunk(xs, ys, codes)
        outcome = GridClusterer().cluster(
            rule_measures(scratch, refitter.rhs_code), 0.002, 0.3
        )
        expected = segmentation_from_outcome(
            outcome, scratch, refitter.rhs_code
        )
        assert segmentation_content_hash(expected) == (
            segmentation_content_hash(
                segmentation_from_outcome(
                    GridClusterer().cluster(
                        rule_measures(window.bin_array, refitter.rhs_code),
                        0.002, 0.3,
                    ),
                    window.bin_array, refitter.rhs_code,
                )
            )
        )

    def test_content_hash_ignores_volatile_metadata(self, stream_table,
                                                    tmp_path):
        from repro.persistence import load_segmentation, save_segmentation

        refitter = make_refitter(stream_table, tmp_path)
        run_watch(
            TableReplaySource(stream_table, chunk_rows=500), refitter
        )
        loaded = load_segmentation(refitter.artefact_path)
        assert segmentation_content_hash(loaded) == (
            refitter.published_hash
        )
        # Re-saving stamps new metadata but hashes identically.
        resaved = tmp_path / "resaved.json"
        save_segmentation(loaded, resaved)
        assert segmentation_content_hash(
            load_segmentation(resaved)
        ) == refitter.published_hash

    def test_run_watch_rejects_bad_max_refits(self, stream_table,
                                              tmp_path):
        refitter = make_refitter(stream_table, tmp_path)
        with pytest.raises(ValueError):
            run_watch(
                TableReplaySource(stream_table), refitter, max_refits=0
            )


class TestRefitterConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            RefitterConfig(min_support=1.5)
        with pytest.raises(ValueError):
            RefitterConfig(min_confidence=-0.1)
        with pytest.raises(ValueError):
            RefitterConfig(min_window_tuples=0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestWatchCommand:
    @pytest.fixture()
    def csv_path(self, stream_table, tmp_path):
        path = tmp_path / "stream.csv"
        write_csv(stream_table, path)
        return path

    def test_csv_replay_publishes_into_models_dir(
            self, csv_path, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        events_out = tmp_path / "watch_events.jsonl"
        code = main([
            "watch", str(csv_path), "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--models", str(models), "--window", "2000",
            "--chunk-rows", "500", "--bins", "10",
            "--min-support", "0.002", "--min-confidence", "0.3",
            "--events-out", str(events_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "watching" in out
        assert "published" in out
        assert (models / "watch_A.json").exists()
        registry = ModelRegistry(models, refresh_interval=0).load()
        assert registry.resolve("watch_A")
        refreshes = [
            json.loads(line)
            for line in events_out.read_text().splitlines()
            if json.loads(line)["type"] == "stream.refresh"
        ]
        assert len(refreshes) >= 2

    def test_follow_tails_jsonl(self, stream_table, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as handle:
            for i in range(600):
                handle.write(json.dumps({
                    "age": float(stream_table.column("age")[i]),
                    "salary": float(stream_table.column("salary")[i]),
                    "group": str(stream_table.column("group")[i]),
                }) + "\n")
        models = tmp_path / "models"
        models.mkdir()
        code = main([
            "watch", str(path), "--follow", "--idle-polls", "1",
            "--poll-interval", "0", "--x", "age", "--y", "salary",
            "--rhs", "group", "--target", "A",
            "--models", str(models), "--window", "500",
            "--chunk-rows", "200", "--bins", "8",
            "--min-support", "0.002", "--min-confidence", "0.3",
        ])
        assert code == 0
        assert (models / "watch_A.json").exists()

    def test_missing_models_dir_is_a_clean_error(self, csv_path,
                                                 tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "watch", str(csv_path), "--x", "age", "--y", "salary",
                "--rhs", "group", "--target", "A",
                "--models", str(tmp_path / "absent"),
            ])

    def test_empty_input_is_a_clean_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("age,salary,group\n")
        models = tmp_path / "models"
        models.mkdir()
        with pytest.raises(SystemExit, match="holds no tuples"):
            main([
                "watch", str(empty), "--x", "age", "--y", "salary",
                "--rhs", "group", "--target", "A",
                "--models", str(models),
            ])
