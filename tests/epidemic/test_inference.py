"""Tests for repro.epidemic.inference — parameter recovery."""

import math

import numpy as np
import pytest

from repro.epidemic.inference import fit_sir_curve
from repro.epidemic.network import MobilityNetwork
from repro.epidemic.seir import SEIRParams, simulate_seir


def _single_patch_outbreak(beta, gamma, population=1e6, i0=10.0, t_max=160.0):
    network = MobilityNetwork(
        names=("p",), populations=np.array([population]), rates=np.zeros((1, 1))
    )
    return simulate_seir(
        network,
        SEIRParams(beta=beta, sigma=math.inf, gamma=gamma),
        {0: i0},
        t_max_days=t_max,
        dt_days=0.25,
    )


class TestFitSirCurve:
    @pytest.mark.parametrize("beta,gamma", [(0.5, 0.2), (0.8, 0.25)])
    def test_parameter_recovery(self, beta, gamma):
        truth = _single_patch_outbreak(beta, gamma)
        # Subsample daily observations, as a surveillance system would see.
        daily = np.arange(0.0, truth.times.max(), 1.0)
        observed = np.interp(daily, truth.times, truth.i[:, 0])
        fit = fit_sir_curve(daily, observed, population=1e6, initial_infected=10.0)
        assert fit.beta == pytest.approx(beta, rel=0.1)
        assert fit.gamma == pytest.approx(gamma, rel=0.1)
        assert fit.r0 == pytest.approx(beta / gamma, rel=0.1)

    def test_noisy_observations_still_recover_r0(self):
        beta, gamma = 0.5, 0.2
        truth = _single_patch_outbreak(beta, gamma)
        daily = np.arange(0.0, truth.times.max(), 1.0)
        observed = np.interp(daily, truth.times, truth.i[:, 0])
        rng = np.random.default_rng(0)
        noisy = observed * np.exp(rng.normal(0, 0.1, observed.size))
        fit = fit_sir_curve(daily, noisy, population=1e6, initial_infected=10.0)
        assert fit.r0 == pytest.approx(beta / gamma, rel=0.2)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            fit_sir_curve(np.arange(3.0), np.arange(3.0), population=1e6, initial_infected=1.0)
        with pytest.raises(ValueError):
            fit_sir_curve(
                np.arange(10.0), np.ones(10), population=0.0, initial_infected=1.0
            )


class TestScalarIntegratorConsistency:
    def test_matches_metapopulation_integrator(self):
        from repro.epidemic.inference import _integrate_sir_scalar

        beta, gamma = 0.5, 0.2
        reference = _single_patch_outbreak(beta, gamma, t_max=120.0)
        times, infected = _integrate_sir_scalar(
            beta, gamma, population=1e6, i0=10.0, horizon=120.0, dt=0.25
        )
        resampled = np.interp(reference.times, times, infected)
        peak = reference.i[:, 0].max()
        assert np.allclose(resampled, reference.i[:, 0], atol=peak * 0.01)

