"""Unit tests for the verifier's sampling utilities."""

import numpy as np
import pytest

from repro.core.verifier import Verifier
from repro.data.sampling import repeat_indices, sample_indices
from repro.data.synthetic import SyntheticConfig, generate_synthetic
from repro.perf.reference import mean_and_stderr


class TestSampleIndices:
    def test_distinct_and_in_range(self, fresh_rng):
        indices = sample_indices(100, 30, fresh_rng)
        assert len(indices) == 30
        assert len(set(indices.tolist())) == 30
        assert indices.min() >= 0 and indices.max() < 100

    def test_full_sample(self, fresh_rng):
        indices = sample_indices(10, 10, fresh_rng)
        assert sorted(indices.tolist()) == list(range(10))

    @pytest.mark.parametrize("k", [0, 11])
    def test_rejects_bad_k(self, k, fresh_rng):
        with pytest.raises(ValueError):
            sample_indices(10, k, fresh_rng)


class TestRepeatedKOfN:
    """The paper's repeated k-of-n sampling (Section 3.6), as the
    verifier draws it through :func:`repeat_indices`."""

    def test_yields_requested_repeats(self):
        assert repeat_indices(50, 10, seed=3, repeat_ids=range(7)).shape \
            == (7, 10)

    def test_rows_hold_distinct_indices(self):
        samples = repeat_indices(50, 10, seed=3, repeat_ids=range(7))
        for sample in samples:
            assert len(set(sample.tolist())) == 10
            assert 0 <= sample.min() and sample.max() < 50

    def test_samples_are_independent_draws(self):
        samples = repeat_indices(1000, 100, seed=3, repeat_ids=[0, 1])
        # Two independent 100-of-1000 samples almost surely differ.
        assert sorted(samples[0].tolist()) != sorted(samples[1].tolist())
        # Each row is its repeat's own draw, whatever else is drawn.
        assert np.array_equal(
            samples[1],
            repeat_indices(1000, 100, seed=3, repeat_ids=[1])[0],
        )

    def test_rejects_nonpositive_repeats(self):
        table = generate_synthetic(SyntheticConfig(n_tuples=50, seed=1))
        with pytest.raises(ValueError, match="repeats must be positive"):
            Verifier(table, "group", "A", sample_size=10, repeats=0)


class TestMeanAndStderr:
    """The NumPy aggregate the verifier's report floats are held ``==``
    to; it lives beside ``reference.verify_scalar``."""

    def test_single_value(self):
        mean, stderr = mean_and_stderr([0.25])
        assert mean == 0.25
        assert stderr == 0.0

    def test_known_values(self):
        mean, stderr = mean_and_stderr([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert stderr == pytest.approx(1.0 / np.sqrt(3))

    def test_constant_values_have_zero_stderr(self):
        mean, stderr = mean_and_stderr([0.5] * 10)
        assert mean == 0.5
        assert stderr == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_and_stderr([])

    def test_accepts_generator(self):
        mean, _ = mean_and_stderr(x / 10 for x in range(5))
        assert mean == pytest.approx(0.2)
