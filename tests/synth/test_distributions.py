"""Tests for repro.synth.distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth.distributions import DiscretePowerLaw, TruncatedPareto


class TestDiscretePowerLaw:
    def test_samples_within_support(self):
        d = DiscretePowerLaw(alpha=1.85, k_min=3, k_max=50)
        samples = d.sample(np.random.default_rng(0), 10_000)
        assert samples.min() >= 3
        assert samples.max() <= 50

    def test_sample_mean_close_to_exact_mean(self):
        d = DiscretePowerLaw(alpha=2.5, k_min=1, k_max=100)
        samples = d.sample(np.random.default_rng(1), 200_000)
        assert samples.mean() == pytest.approx(d.mean(), rel=0.02)

    def test_deterministic_given_seed(self):
        d = DiscretePowerLaw(alpha=1.85, k_min=1, k_max=1000)
        a = d.sample(np.random.default_rng(42), 100)
        b = d.sample(np.random.default_rng(42), 100)
        assert np.array_equal(a, b)

    def test_degenerate_support(self):
        d = DiscretePowerLaw(alpha=2.0, k_min=7, k_max=7)
        assert np.all(d.sample(np.random.default_rng(0), 10) == 7)
        assert d.mean() == 7.0

    @pytest.mark.parametrize(
        "kwargs", [dict(alpha=0), dict(alpha=-1), dict(alpha=2, k_min=0), dict(alpha=2, k_min=5, k_max=3)]
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            DiscretePowerLaw(**{"k_min": 1, "k_max": 10, **kwargs})

    def test_negative_size_raises(self):
        d = DiscretePowerLaw(alpha=2.0)
        with pytest.raises(ValueError):
            d.sample(np.random.default_rng(0), -1)

    @given(st.floats(min_value=1.1, max_value=3.5))
    @settings(max_examples=20)
    def test_heavier_tails_for_smaller_alpha(self, alpha):
        d = DiscretePowerLaw(alpha=alpha, k_min=1, k_max=10_000)
        d_heavier = DiscretePowerLaw(alpha=alpha * 0.9, k_min=1, k_max=10_000)
        assert d_heavier.mean() > d.mean()


class TestTruncatedPareto:
    def test_samples_within_support(self):
        t = TruncatedPareto(alpha=1.16, x_min=20.0, x_max=2e7)
        samples = t.sample(np.random.default_rng(0), 10_000)
        assert samples.min() >= 20.0
        assert samples.max() <= 2e7

    def test_cdf_boundaries(self):
        t = TruncatedPareto(alpha=1.5, x_min=1.0, x_max=100.0)
        assert t.cdf(1.0) == pytest.approx(0.0)
        assert t.cdf(100.0) == pytest.approx(1.0)

    def test_cdf_monotone(self):
        t = TruncatedPareto(alpha=1.3, x_min=1.0, x_max=1e6)
        xs = np.logspace(0, 6, 200)
        cdf = t.cdf(xs)
        assert np.all(np.diff(cdf) >= 0)

    def test_sample_matches_cdf(self):
        t = TruncatedPareto(alpha=1.2, x_min=1.0, x_max=1e4)
        samples = t.sample(np.random.default_rng(2), 100_000)
        # Empirical CDF at a few probe points should match the analytic CDF.
        for probe in (2.0, 10.0, 100.0, 1000.0):
            empirical = (samples <= probe).mean()
            assert empirical == pytest.approx(float(t.cdf(probe)), abs=0.01)

    def test_mean_against_samples(self):
        t = TruncatedPareto(alpha=2.5, x_min=1.0, x_max=100.0)
        samples = t.sample(np.random.default_rng(3), 200_000)
        assert samples.mean() == pytest.approx(t.mean(), rel=0.02)

    def test_alpha_one_log_uniform(self):
        t = TruncatedPareto(alpha=1.0, x_min=1.0, x_max=100.0)
        samples = t.sample(np.random.default_rng(4), 100_000)
        # For alpha=1, log(x) is uniform: mean of log10 ~ 1.0.
        assert np.log10(samples).mean() == pytest.approx(1.0, abs=0.02)
        assert t.mean() == pytest.approx(99.0 / np.log(100.0), rel=1e-9)

    def test_alpha_two_mean_formula(self):
        t = TruncatedPareto(alpha=2.0, x_min=1.0, x_max=10.0)
        samples = t.sample(np.random.default_rng(5), 300_000)
        assert samples.mean() == pytest.approx(t.mean(), rel=0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(alpha=0, x_min=1, x_max=2), dict(alpha=1, x_min=0, x_max=2), dict(alpha=1, x_min=3, x_max=2)],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            TruncatedPareto(**kwargs)

    @given(st.floats(min_value=0.5, max_value=3.0), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25)
    def test_support_property(self, alpha, seed):
        t = TruncatedPareto(alpha=alpha, x_min=5.0, x_max=500.0)
        samples = t.sample(np.random.default_rng(seed), 500)
        assert np.all((samples >= 5.0) & (samples <= 500.0))

