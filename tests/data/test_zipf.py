"""Zipf generator tests."""

import numpy as np
import pytest

from repro.data import ZipfGenerator
from repro.data.zipf import zipf_columns
from repro.errors import ConfigurationError


class TestZipfGenerator:
    def test_uniform_when_alpha_zero(self):
        generator = ZipfGenerator(1000, alpha=0.0, seed=1)
        samples = generator.sample(20000)
        counts = np.bincount(samples, minlength=1000)
        # uniform: the heaviest value should not dominate
        assert counts.max() < 5 * counts.mean()

    def test_skew_concentrates_mass(self):
        uniform = ZipfGenerator(1000, alpha=0.0, seed=2).sample(20000)
        skewed = ZipfGenerator(1000, alpha=1.2, seed=2).sample(20000)
        top_uniform = np.bincount(uniform, minlength=1000).max()
        top_skewed = np.bincount(skewed, minlength=1000).max()
        assert top_skewed > 5 * top_uniform

    def test_alpha_orders_distinct_counts(self):
        distincts = []
        for alpha in (0.0, 0.5, 1.0, 1.5):
            samples = ZipfGenerator(5000, alpha=alpha, seed=3).sample(5000)
            distincts.append(len(set(samples.tolist())))
        assert distincts == sorted(distincts, reverse=True)

    def test_domain_respected(self):
        samples = ZipfGenerator(50, alpha=0.7, seed=4).sample(5000)
        assert samples.min() >= 0
        assert samples.max() < 50

    def test_deterministic(self):
        a = ZipfGenerator(100, alpha=0.9, seed=5).sample(100)
        b = ZipfGenerator(100, alpha=0.9, seed=5).sample(100)
        assert (a == b).all()

    def test_shuffle_decorrelates_magnitude(self):
        # with shuffling, the heaviest value is (almost surely) not 0
        generator = ZipfGenerator(1000, alpha=1.5, seed=6, shuffle=True)
        samples = generator.sample(5000)
        heaviest = np.bincount(samples, minlength=1000).argmax()
        unshuffled = ZipfGenerator(1000, alpha=1.5, seed=6, shuffle=False)
        assert np.bincount(unshuffled.sample(5000), minlength=1000).argmax() == 0
        assert heaviest != 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfGenerator(0)
        with pytest.raises(ConfigurationError):
            ZipfGenerator(10, alpha=-1)


class TestZipfColumns:
    def test_columns_independent(self):
        left, right = zipf_columns(2000, 2, 100, alpha=0.0, seed=7)
        correlation = np.corrcoef(left, right)[0, 1]
        assert abs(correlation) < 0.1
