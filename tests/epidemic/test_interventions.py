"""Tests for repro.epidemic.interventions."""

import numpy as np
import pytest

from repro.epidemic.interventions import (
    allocate_by_centrality,
    allocate_by_population,
    allocate_seed_ring,
    evaluate_vaccination,
)
from repro.epidemic.network import MobilityNetwork
from repro.epidemic.seir import SEIRParams


def _network():
    """A hub (B) connecting two leaves (A, C); D is isolated-ish."""
    return MobilityNetwork(
        names=("A", "B", "C", "D"),
        populations=np.array([200_000.0, 50_000.0, 200_000.0, 100_000.0]),
        rates=np.array(
            [
                [0.0, 5e-3, 0.0, 1e-5],
                [5e-3, 0.0, 5e-3, 1e-5],
                [0.0, 5e-3, 0.0, 1e-5],
                [1e-5, 1e-5, 1e-5, 0.0],
            ]
        ),
    )


class TestAllocations:
    def test_population_allocation_proportional(self):
        net = _network()
        doses = allocate_by_population(net, 55_000.0)
        assert doses.sum() == pytest.approx(55_000.0)
        assert doses[0] == doses[2]
        assert doses[0] > doses[1]

    def test_centrality_allocation_prefers_hub(self):
        net = _network()
        doses = allocate_by_centrality(net, 55_000.0)
        # The hub B has the highest throughput despite the smallest population.
        assert np.argmax(doses) == 1 or doses[1] >= doses[3]

    def test_allocation_capped_at_population(self):
        net = _network()
        doses = allocate_by_population(net, 1e9)
        assert np.all(doses <= net.populations)

    def test_seed_ring_covers_seed_and_neighbours(self):
        net = _network()
        doses = allocate_seed_ring(net, 100_000.0, "A", ring_size=1)
        assert doses[0] > 0  # the seed
        assert doses[1] > 0  # its strongest neighbour (the hub)
        assert doses[2] == 0.0

    def test_negative_doses_raise(self):
        net = _network()
        with pytest.raises(ValueError):
            allocate_by_population(net, -1.0)
        with pytest.raises(ValueError):
            allocate_by_centrality(net, -1.0)
        with pytest.raises(ValueError):
            allocate_seed_ring(net, -1.0, 0)


class TestEvaluateVaccination:
    def test_vaccination_reduces_infections(self):
        net = _network()
        params = SEIRParams(beta=0.5, gamma=0.2)
        outcomes = evaluate_vaccination(
            net,
            params,
            "A",
            {
                "none": np.zeros(4),
                "population": allocate_by_population(net, 150_000.0),
            },
        )
        by_name = {o.strategy: o for o in outcomes}
        assert by_name["population"].total_infected < by_name["none"].total_infected

    def test_outcomes_sorted_best_first(self):
        net = _network()
        params = SEIRParams(beta=0.5, gamma=0.2)
        outcomes = evaluate_vaccination(
            net,
            params,
            "A",
            {
                "none": np.zeros(4),
                "population": allocate_by_population(net, 150_000.0),
                "centrality": allocate_by_centrality(net, 150_000.0),
            },
        )
        infected = [o.total_infected for o in outcomes]
        assert infected == sorted(infected)

    def test_invalid_doses_rejected(self):
        net = _network()
        params = SEIRParams()
        with pytest.raises(ValueError):
            evaluate_vaccination(net, params, 0, {"bad": np.full(4, 1e9)})
        with pytest.raises(ValueError):
            evaluate_vaccination(net, params, 0, {"bad": np.zeros(3)})

    def test_on_fitted_network(self, medium_context):
        """Full-stack: centrality allocation on the Twitter-fitted
        national network beats doing nothing."""
        from repro.data.gazetteer import Scale, areas_for_scale
        from repro.epidemic import network_from_model
        from repro.models import GravityModel

        pairs = medium_context.flows(Scale.NATIONAL).pairs()
        network = network_from_model(
            GravityModel(2).fit(pairs), areas_for_scale(Scale.NATIONAL)
        )
        total_doses = 0.2 * network.populations.sum()
        outcomes = evaluate_vaccination(
            network,
            SEIRParams(beta=0.5, gamma=0.2),
            "Sydney",
            {
                "none": np.zeros(network.n_patches),
                "centrality": allocate_by_centrality(network, total_doses),
            },
        )
        by_name = {o.strategy: o for o in outcomes}
        assert (
            by_name["centrality"].total_infected < by_name["none"].total_infected
        )

