"""Tests for repro.epidemic.effective."""

import numpy as np
import pytest

from repro.epidemic.effective import global_travel_scaling, restrict_travel
from repro.epidemic.network import MobilityNetwork


def _chain_network():
    """A -> B strongly, B -> C weakly; with back edges."""
    return MobilityNetwork(
        names=("A", "B", "C"),
        populations=np.array([1e5, 1e5, 1e5]),
        rates=np.array(
            [
                [0.0, 1e-2, 1e-6],
                [1e-2, 0.0, 1e-4],
                [1e-6, 1e-4, 0.0],
            ]
        ),
    )


class TestInterventions:
    def test_restriction_scales_both_directions(self):
        net = _chain_network()
        restricted = restrict_travel(net, ["A"], 0.5)
        assert restricted.rates[0, 1] == pytest.approx(net.rates[0, 1] * 0.5)
        assert restricted.rates[1, 0] == pytest.approx(net.rates[1, 0] * 0.5)
        assert restricted.rates[1, 2] == net.rates[1, 2]

    def test_quarantine_isolates(self):
        restricted = restrict_travel(_chain_network(), ["B"], 0.0)
        assert restricted.rates[1].sum() == 0.0
        assert restricted.rates[:, 1].sum() == 0.0

    def test_original_untouched(self):
        net = _chain_network()
        before = net.rates.copy()
        restrict_travel(net, ["A"], 0.0)
        assert np.array_equal(net.rates, before)

    def test_restriction_delays_arrival(self):
        from repro.epidemic.seir import SEIRParams, simulate_seir

        net = _chain_network()
        params = SEIRParams(beta=0.6, gamma=0.2)
        base = simulate_seir(net, params, {"A": 50.0}, t_max_days=365)
        slowed = simulate_seir(
            restrict_travel(net, ["A"], 0.01), params, {"A": 50.0}, t_max_days=365
        )
        base_arrival = base.arrival_times(threshold=10.0)[1]
        slowed_arrival = slowed.arrival_times(threshold=10.0)[1]
        assert slowed_arrival > base_arrival

    def test_invalid_factor_raises(self):
        with pytest.raises(ValueError):
            restrict_travel(_chain_network(), ["A"], 1.5)
        with pytest.raises(ValueError):
            restrict_travel(_chain_network(), [], 0.5)

    def test_global_scaling(self):
        net = _chain_network()
        doubled = global_travel_scaling(net, 2.0)
        assert np.allclose(doubled.rates, net.rates * 2)
        with pytest.raises(ValueError):
            global_travel_scaling(net, -1.0)

