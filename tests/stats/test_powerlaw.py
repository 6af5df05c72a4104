"""Tests for repro.stats.powerlaw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.powerlaw import fit_power_law_mle
from repro.synth.distributions import TruncatedPareto


class TestMleFit:
    def test_recovers_alpha_continuous(self):
        # A pure (untruncated-ish) Pareto sample.
        rng = np.random.default_rng(1)
        alpha = 2.5
        sample = (rng.pareto(alpha - 1, 50_000) + 1) * 1.0
        fit = fit_power_law_mle(sample, x_min=1.0)
        assert fit.alpha == pytest.approx(alpha, rel=0.03)

    @given(st.floats(min_value=1.5, max_value=3.5), st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_recovery_property(self, alpha, seed):
        rng = np.random.default_rng(seed)
        sample = rng.pareto(alpha - 1, 20_000) + 1
        fit = fit_power_law_mle(sample, x_min=1.0)
        assert fit.alpha == pytest.approx(alpha, rel=0.08)

    def test_truncated_sampler_tail(self):
        # The generator's waiting-time distribution: the untruncated
        # Hill estimator is biased slightly upward by the 2e7 cutoff, so
        # the fitted exponent sits a little above the configured 1.16.
        dist = TruncatedPareto(alpha=1.16, x_min=20.0, x_max=2e7)
        sample = dist.sample(np.random.default_rng(2), 100_000)
        fit = fit_power_law_mle(sample, x_min=20.0)
        assert 1.16 <= fit.alpha < 1.30

    def test_discrete_variant(self):
        from repro.synth.distributions import DiscretePowerLaw

        d = DiscretePowerLaw(alpha=2.2, k_min=1, k_max=100_000)
        sample = d.sample(np.random.default_rng(3), 100_000).astype(float)
        fit = fit_power_law_mle(sample, x_min=10.0, discrete=True)
        assert fit.alpha == pytest.approx(2.2, abs=0.1)

    def test_ks_small_for_true_power_law(self):
        rng = np.random.default_rng(4)
        sample = rng.pareto(1.5, 50_000) + 1
        fit = fit_power_law_mle(sample, x_min=1.0)
        assert fit.ks_distance < 0.02

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            fit_power_law_mle(np.array([1.0, 2.0]), x_min=0.0)
        with pytest.raises(ValueError):
            fit_power_law_mle(np.array([1.0]), x_min=1.0)

    def test_n_tail_counted(self):
        sample = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
        fit = fit_power_law_mle(sample, x_min=5.0)
        assert fit.n_tail == 3

