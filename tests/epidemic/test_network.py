"""Tests for repro.epidemic.network."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.data.gazetteer import Scale, areas_for_scale
from repro.epidemic.network import MobilityNetwork, network_from_model


def _toy_network(rates=None):
    if rates is None:
        rates = np.array([[0.0, 0.1], [0.2, 0.0]])
    return MobilityNetwork(
        names=("A", "B"),
        populations=np.array([1000.0, 2000.0]),
        rates=rates,
    )


class TestMobilityNetworkValidation:
    def test_valid(self):
        net = _toy_network()
        assert net.n_patches == 2

    def test_nonzero_diagonal_raises(self):
        with pytest.raises(ValueError):
            _toy_network(np.array([[0.1, 0.1], [0.2, 0.0]]))

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            _toy_network(np.array([[0.0, -0.1], [0.2, 0.0]]))

    def test_zero_population_raises(self):
        with pytest.raises(ValueError):
            MobilityNetwork(
                names=("A",), populations=np.array([0.0]), rates=np.zeros((1, 1))
            )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MobilityNetwork(
                names=("A", "B"),
                populations=np.array([1.0, 2.0]),
                rates=np.zeros((3, 3)),
            )


class TestCalibration:
    def test_from_model_structure(self, medium_context):
        from repro.models import GravityModel

        flows = medium_context.flows(Scale.NATIONAL)
        fitted = GravityModel(2).fit(flows.pairs())
        net = network_from_model(fitted, areas_for_scale(Scale.NATIONAL))
        assert net.n_patches == 20
        # every patch can (indirectly) seed every other patch
        assert connected_components(net.rates > 0, connection="strong")[0] == 1
        assert np.all(np.diag(net.rates) == 0)

