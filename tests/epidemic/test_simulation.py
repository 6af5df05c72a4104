"""Tests for repro.epidemic.simulation."""

import numpy as np
import pytest

from repro.epidemic.network import MobilityNetwork
from repro.epidemic.simulation import arrival_times, simulate_stochastic_sir


def _net(rate=0.005):
    return MobilityNetwork(
        names=("A", "B", "C"),
        populations=np.array([50_000.0, 30_000.0, 20_000.0]),
        rates=np.array(
            [
                [0.0, rate, rate / 10],
                [rate, 0.0, rate],
                [rate / 10, rate, 0.0],
            ]
        ),
    )


class TestStochasticSir:
    def test_population_conserved(self):
        result = simulate_stochastic_sir(
            _net(), beta=0.5, gamma=0.2, initial_infected={"A": 10},
            t_max_days=100, rng=np.random.default_rng(0),
        )
        totals = result.s + result.i + result.r
        assert np.all(totals == result.network.populations.astype(np.int64)[None, :])

    def test_deterministic_given_rng(self):
        a = simulate_stochastic_sir(
            _net(), 0.5, 0.2, {"A": 10}, t_max_days=50, rng=np.random.default_rng(7)
        )
        b = simulate_stochastic_sir(
            _net(), 0.5, 0.2, {"A": 10}, t_max_days=50, rng=np.random.default_rng(7)
        )
        assert np.array_equal(a.i, b.i)

    def test_zero_beta_fizzles(self):
        result = simulate_stochastic_sir(
            _net(rate=0.0), beta=0.0, gamma=0.5, initial_infected={"A": 10},
            t_max_days=200, rng=np.random.default_rng(1),
        )
        assert result.total_infected == 10.0
        assert int(np.isfinite(result.arrival_day).sum()) <= 1  # never left the seed

    def test_big_outbreak_reaches_all_patches(self):
        result = simulate_stochastic_sir(
            _net(), beta=0.6, gamma=0.15, initial_infected={"A": 50},
            t_max_days=365, rng=np.random.default_rng(2),
        )
        assert np.all(np.isfinite(result.arrival_day))
        assert result.arrival_day[0] == 0.0

    def test_seed_patch_arrival_is_day_zero(self):
        result = simulate_stochastic_sir(
            _net(), 0.5, 0.2, {"B": 5}, t_max_days=30, rng=np.random.default_rng(3)
        )
        assert result.arrival_day[1] == 0.0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            simulate_stochastic_sir(_net(), beta=-1, gamma=0.2, initial_infected={"A": 1})
        with pytest.raises(ValueError):
            simulate_stochastic_sir(_net(), beta=1, gamma=0.2, initial_infected={"A": 1}, t_max_days=0)
        with pytest.raises(ValueError):
            simulate_stochastic_sir(_net(), beta=1, gamma=0.2, initial_infected={"A": 10**9})


class TestArrivalTimes:
    def test_summary_structure(self):
        summary = arrival_times(
            _net(), beta=0.6, gamma=0.15, seed_patch="A", n_runs=5,
            rng=np.random.default_rng(4),
        )
        assert summary.n_runs == 5
        assert summary.mean_arrival_day[0] == 0.0
        assert summary.arrival_probability[0] == 1.0

    def test_closer_patch_arrives_earlier(self):
        summary = arrival_times(
            _net(rate=0.003), beta=0.6, gamma=0.15, seed_patch="A",
            n_runs=10, rng=np.random.default_rng(5),
        )
        # B is strongly coupled to A; C only weakly (rate/10).
        assert summary.mean_arrival_day[1] <= summary.mean_arrival_day[2]

    def test_render(self):
        summary = arrival_times(
            _net(), beta=0.6, gamma=0.15, seed_patch="A", n_runs=3,
            rng=np.random.default_rng(6),
        )
        text = summary.render()
        assert "Outbreak arrival times" in text
        assert "P(reached)" in text

    def test_invalid_runs_raise(self):
        with pytest.raises(ValueError):
            arrival_times(_net(), 0.5, 0.2, "A", n_runs=0)
