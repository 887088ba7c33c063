"""Unit tests for the verifier's sampling utilities."""

import numpy as np
import pytest

from repro.data.sampling import repeated_k_of_n, sample_indices
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
    def test_yields_requested_repeats(self, fresh_rng):
        samples = list(repeated_k_of_n(50, 10, 7, fresh_rng))
        assert len(samples) == 7
        assert all(len(sample) == 10 for sample in samples)

    def test_samples_are_independent_draws(self, fresh_rng):
        samples = list(repeated_k_of_n(1000, 100, 2, fresh_rng))
        # Two independent 100-of-1000 samples almost surely differ.
        assert sorted(samples[0].tolist()) != sorted(samples[1].tolist())

    def test_rejects_nonpositive_repeats(self, fresh_rng):
        with pytest.raises(ValueError):
            list(repeated_k_of_n(10, 5, 0, fresh_rng))


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
