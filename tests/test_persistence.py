"""Unit tests for segmentation and BinArray persistence."""

import numpy as np
import pytest

from repro.binning import bin_table
from repro.core.rules import ClusteredRule, GridRect, Interval
from repro.core.segmentation import Segmentation
from repro.mining.engine import rule_grid, rule_measures
from repro.data.summary import ReferenceProfile, reference_profile
from repro.persistence import (
    PersistenceError,
    load_bin_array,
    load_segmentation,
    save_bin_array,
    save_segmentation,
    segmentation_metadata,
    segmentation_reference,
)


@pytest.fixture()
def segmentation():
    rules = [
        ClusteredRule(
            "age", "salary", Interval(20, 40),
            Interval(50_000, 100_000, closed_high=True),
            "group", "A", support=0.12, confidence=0.93,
            rect=GridRect(0, 9, 10, 29),
        ),
        ClusteredRule(
            "age", "salary", Interval(60, 80), Interval(25_000, 75_000),
            "group", "A", support=0.10, confidence=0.91,
        ),
    ]
    return Segmentation.from_rules(rules)


class TestSegmentationRoundTrip:
    def test_round_trip_preserves_rules(self, segmentation, tmp_path):
        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        loaded = load_segmentation(path)
        assert len(loaded) == 2
        assert loaded.x_attribute == "age"
        assert loaded.rhs_value == "A"
        original = segmentation.rules[0]
        restored = loaded.rules[0]
        assert restored.x_interval == original.x_interval
        assert restored.y_interval.closed_high
        assert restored.support == original.support
        assert restored.rect == original.rect

    def test_rect_optional(self, segmentation, tmp_path):
        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        loaded = load_segmentation(path)
        assert loaded.rules[1].rect is None

    def test_membership_identical_after_round_trip(self, segmentation,
                                                   tmp_path):
        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        loaded = load_segmentation(path)
        xs = np.linspace(15, 85, 71)
        ys = np.linspace(20_000, 150_000, 71)
        assert np.array_equal(
            segmentation.covers(xs, ys), loaded.covers(xs, ys)
        )

    def test_empty_segmentation_round_trip(self, tmp_path):
        empty = Segmentation(
            rules=(), x_attribute="age", y_attribute="salary",
            rhs_attribute="group", rhs_value="A",
        )
        path = tmp_path / "empty.json"
        save_segmentation(empty, path)
        assert load_segmentation(path).is_empty

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(PersistenceError):
            load_segmentation(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="not valid JSON"):
            load_segmentation(path)


class TestSegmentationMetadata:
    def test_save_stamps_provenance(self, segmentation, tmp_path):
        import repro
        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        metadata = segmentation_metadata(path)
        assert metadata["library_version"] == repro.__version__
        assert isinstance(metadata["created_unix"], float)
        assert metadata["created_unix"] > 0

    def test_legacy_artefact_without_metadata_still_loads(
            self, segmentation, tmp_path):
        import json
        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        payload = json.loads(path.read_text())
        del payload["metadata"]
        path.write_text(json.dumps(payload))
        assert len(load_segmentation(path)) == 2
        assert segmentation_metadata(path) == {}

    def test_non_dict_metadata_treated_as_absent(self, segmentation,
                                                 tmp_path):
        import json
        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        payload = json.loads(path.read_text())
        payload["metadata"] = "1.0"
        path.write_text(json.dumps(payload))
        assert segmentation_metadata(path) == {}

    def test_validates_format_tag(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(PersistenceError):
            segmentation_metadata(path)


class TestBinArrayRoundTrip:
    def test_round_trip_preserves_counts(self, f2_binner, tmp_path):
        path = tmp_path / "bins.npz"
        save_bin_array(f2_binner.bin_array, path)
        loaded = load_bin_array(path)
        assert np.array_equal(loaded.counts, f2_binner.bin_array.counts)
        assert np.array_equal(loaded.totals, f2_binner.bin_array.totals)
        assert loaded.n_total == f2_binner.bin_array.n_total
        assert loaded.rhs_encoding.values == ("A", "other")

    def test_remining_from_loaded_array_matches(self, f2_binner,
                                                tmp_path):
        """The cross-process re-mining workflow: identical rule cells."""
        path = tmp_path / "bins.npz"
        save_bin_array(f2_binner.bin_array, path)
        loaded = load_bin_array(path)
        original_pairs = rule_grid(rule_measures(f2_binner.bin_array, 0),
                                   0.001, 0.7).set_pairs()
        loaded_pairs = rule_grid(rule_measures(loaded, 0), 0.001,
                                 0.7).set_pairs()
        assert original_pairs == loaded_pairs

    def test_layouts_survive(self, f2_binner, tmp_path):
        path = tmp_path / "bins.npz"
        save_bin_array(f2_binner.bin_array, path)
        loaded = load_bin_array(path)
        assert loaded.x_layout.attribute == "age"
        assert np.allclose(
            loaded.x_layout.edges, f2_binner.bin_array.x_layout.edges
        )

    def test_single_target_mode_survives(self, f2_clean_table, tmp_path):
        binner = bin_table(
            f2_clean_table, "age", "salary", "group", 10, 10,
            target_value="A",
        )
        path = tmp_path / "single.npz"
        save_bin_array(binner.bin_array, path)
        loaded = load_bin_array(path)
        assert loaded.single_target
        assert loaded.target_code == 0

    def test_rejects_non_binarray_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(PersistenceError):
            load_bin_array(path)


class TestReferenceProfilePersistence:
    def test_saved_bin_array_embeds_a_reference(self, segmentation,
                                                f2_binner, tmp_path):
        path = tmp_path / "seg.json"
        bin_array = f2_binner.bin_array
        save_segmentation(segmentation, path, bin_array=bin_array)
        reference = segmentation_reference(path)
        assert reference is not None
        assert reference.x_attribute == "age"
        assert reference.n_total == int(bin_array.totals.sum())
        assert np.array_equal(reference.totals, bin_array.totals)
        assert np.array_equal(reference.x_edges,
                              bin_array.x_layout.edges)
        # The artefact itself still loads as a plain segmentation.
        assert len(load_segmentation(path)) == len(segmentation)

    def test_explicit_reference_wins_over_bin_array(self, segmentation,
                                                    f2_binner, tmp_path):
        path = tmp_path / "seg.json"
        distilled = reference_profile(f2_binner.bin_array)
        save_segmentation(segmentation, path, reference=distilled)
        restored = segmentation_reference(path)
        assert np.array_equal(restored.totals, distilled.totals)

    def test_absent_reference_is_tolerated(self, segmentation,
                                           tmp_path):
        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        assert segmentation_reference(path) is None

    def test_malformed_reference_block_raises(self, segmentation,
                                              tmp_path):
        import json as json_module

        path = tmp_path / "seg.json"
        save_segmentation(segmentation, path)
        payload = json_module.loads(path.read_text())
        payload["reference_profile"] = {"x_attribute": "age"}
        path.write_text(json_module.dumps(payload))
        with pytest.raises(PersistenceError, match="malformed"):
            segmentation_reference(path)

    def test_profile_dict_round_trip(self, f2_binner):
        profile = reference_profile(f2_binner.bin_array)
        restored = ReferenceProfile.from_dict(profile.to_dict())
        assert restored.x_attribute == profile.x_attribute
        assert np.array_equal(restored.totals, profile.totals)
        assert np.array_equal(restored.y_edges, profile.y_edges)
        assert restored.n_total == profile.n_total

    def test_profile_marginals_and_occupancy(self, f2_binner):
        profile = reference_profile(f2_binner.bin_array)
        assert np.array_equal(profile.x_counts,
                              profile.totals.sum(axis=1))
        assert np.array_equal(profile.y_counts,
                              profile.totals.sum(axis=0))
        occupancy = profile.occupancy()
        assert occupancy.n_tuples == profile.n_total
        assert 0.0 < occupancy.occupancy_fraction <= 1.0
        # Snapshot arrays are frozen: serving threads share them.
        with pytest.raises(ValueError):
            profile.totals[0, 0] = 99

    def test_profile_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ReferenceProfile(
                x_attribute="x", y_attribute="y",
                x_edges=np.array([0.0, 1.0, 2.0]),
                y_edges=np.array([0.0, 1.0]),
                totals=np.ones((3, 3)), n_total=9,
            )
