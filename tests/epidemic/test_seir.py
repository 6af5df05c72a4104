"""Tests for repro.epidemic.seir."""

import math

import numpy as np
import pytest

from repro.epidemic.network import MobilityNetwork
from repro.epidemic.seir import SEIRParams, simulate_seir


def _attack_rate(result):
    """Final fraction of each patch ever infected."""
    return (result.r[-1] + result.i[-1] + result.e[-1]) / result.network.populations


def _two_patch(rate=0.01):
    return MobilityNetwork(
        names=("A", "B"),
        populations=np.array([100_000.0, 50_000.0]),
        rates=np.array([[0.0, rate], [rate, 0.0]]),
    )


class TestParams:
    def test_r0(self):
        assert SEIRParams(beta=0.5, gamma=0.25).r0 == 2.0

    def test_invalid_raise(self):
        with pytest.raises(ValueError):
            SEIRParams(beta=-1.0)
        with pytest.raises(ValueError):
            SEIRParams(gamma=0.0)
        with pytest.raises(ValueError):
            SEIRParams(sigma=0.0)


class TestSimulateSeir:
    def test_population_conserved(self):
        net = _two_patch()
        result = simulate_seir(net, SEIRParams(), {"A": 10.0}, t_max_days=100)
        totals = result.s + result.e + result.i + result.r
        assert np.allclose(totals, net.populations[None, :], rtol=1e-8)

    def test_epidemic_grows_above_threshold(self):
        net = _two_patch()
        params = SEIRParams(beta=0.6, gamma=0.2)  # R0 = 3
        result = simulate_seir(net, params, {"A": 10.0}, t_max_days=300)
        assert _attack_rate(result)[0] > 0.5

    def test_no_epidemic_below_threshold(self):
        net = _two_patch()
        params = SEIRParams(beta=0.1, gamma=0.2)  # R0 = 0.5
        result = simulate_seir(net, params, {"A": 10.0}, t_max_days=300)
        assert _attack_rate(result)[0] < 0.01

    def test_zero_beta_never_spreads(self):
        net = _two_patch()
        result = simulate_seir(net, SEIRParams(beta=0.0), {"A": 10.0}, t_max_days=50)
        assert result.r[-1, 1] == pytest.approx(0.0, abs=1e-6)
        assert result.s[-1, 0] == pytest.approx(net.populations[0] - 10.0, rel=1e-6)

    def test_recovered_monotone(self):
        net = _two_patch()
        result = simulate_seir(net, SEIRParams(), {"A": 10.0}, t_max_days=100)
        assert np.all(np.diff(result.r, axis=0) >= -1e-9)

    def test_susceptible_monotone_decreasing(self):
        net = _two_patch()
        result = simulate_seir(net, SEIRParams(), {"A": 10.0}, t_max_days=100)
        assert np.all(np.diff(result.s, axis=0) <= 1e-9)

    def test_sir_mode_with_infinite_sigma(self):
        net = _two_patch()
        params = SEIRParams(beta=0.5, sigma=math.inf, gamma=0.2)
        result = simulate_seir(net, params, {"A": 10.0}, t_max_days=100)
        assert np.all(result.e == 0.0)
        assert _attack_rate(result)[0] > 0.5

    def test_coupling_spreads_to_second_patch(self):
        net = _two_patch(rate=0.01)
        result = simulate_seir(net, SEIRParams(beta=0.6, gamma=0.2), {"A": 10.0}, t_max_days=300)
        assert _attack_rate(result)[1] > 0.5

    def test_isolated_patch_untouched(self):
        net = MobilityNetwork(
            names=("A", "B"),
            populations=np.array([1e5, 1e5]),
            rates=np.zeros((2, 2)),
        )
        result = simulate_seir(net, SEIRParams(beta=0.6, gamma=0.2), {"A": 10.0}, t_max_days=200)
        assert _attack_rate(result)[1] == pytest.approx(0.0, abs=1e-9)

    def test_seed_by_name_or_index(self):
        net = _two_patch()
        by_name = simulate_seir(net, SEIRParams(), {"B": 5.0}, t_max_days=10)
        by_index = simulate_seir(net, SEIRParams(), {1: 5.0}, t_max_days=10)
        assert np.allclose(by_name.i, by_index.i)

    def test_arrival_times_ordered_by_coupling(self):
        net = MobilityNetwork(
            names=("seed", "near", "far"),
            populations=np.array([1e6, 1e6, 1e6]),
            rates=np.array(
                [
                    [0.0, 1e-2, 1e-5],
                    [1e-2, 0.0, 0.0],
                    [1e-5, 0.0, 0.0],
                ]
            ),
        )
        result = simulate_seir(
            net, SEIRParams(beta=0.6, gamma=0.2), {"seed": 100.0}, t_max_days=400
        )
        arrivals = result.arrival_times(threshold=100.0)
        assert arrivals[1] < arrivals[2]

    def test_invalid_seed_raises(self):
        net = _two_patch()
        with pytest.raises(ValueError):
            simulate_seir(net, SEIRParams(), {"A": -5.0}, t_max_days=10)
        with pytest.raises(ValueError):
            simulate_seir(net, SEIRParams(), {"A": 1e9}, t_max_days=10)

    def test_invalid_horizon_raises(self):
        net = _two_patch()
        with pytest.raises(ValueError):
            simulate_seir(net, SEIRParams(), {"A": 1.0}, t_max_days=0)

    def test_peak_times_after_start(self):
        net = _two_patch()
        result = simulate_seir(net, SEIRParams(beta=0.6, gamma=0.2), {"A": 10.0}, t_max_days=200)
        assert np.all(result.peak_times() > 0)
