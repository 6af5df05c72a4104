"""Tests for repro.models.evaluation."""

import numpy as np
import pytest

from repro.extraction.mobility import ODPairs
from repro.models.base import FittedMobilityModel
from repro.models.evaluation import evaluate_fitted


class _ConstantModel(FittedMobilityModel):
    """Predicts a fixed multiple of the observed flow (for testing)."""

    def __init__(self, factor):
        self.factor = factor

    @property
    def name(self):
        return f"Constant x{self.factor}"

    def predict(self, pairs):
        return pairs.flow * self.factor


def _pairs(flows):
    n = len(flows)
    return ODPairs(
        source=np.zeros(n, dtype=np.int64),
        dest=np.ones(n, dtype=np.int64),
        m=np.full(n, 1e5),
        n=np.full(n, 1e5),
        d_km=np.full(n, 100.0),
        flow=np.asarray(flows, dtype=np.float64),
    )


class TestEvaluateFitted:
    def test_perfect_model(self):
        ev = evaluate_fitted(_ConstantModel(1.0), _pairs([1.0, 10.0, 100.0]))
        assert ev.pearson_r == pytest.approx(1.0)
        assert ev.hit_rate_50 == 1.0
        assert ev.log_rmse == 0.0
        assert ev.cpc == pytest.approx(1.0)
        assert ev.underestimation == 0.0

    def test_underestimating_model(self):
        ev = evaluate_fitted(_ConstantModel(0.4), _pairs([1.0, 10.0, 100.0]))
        assert ev.hit_rate_50 == 0.0  # 60% relative error everywhere
        assert ev.underestimation == 1.0
        assert ev.pearson_r == pytest.approx(1.0)  # still perfectly correlated

    def test_model_name_recorded(self):
        ev = evaluate_fitted(_ConstantModel(2.0), _pairs([1.0, 2.0, 4.0]))
        assert ev.model_name == "Constant x2.0"
        assert ev.observed.size == 3

    def test_half_decade_error_metrics(self):
        factor = 10**0.5
        ev = evaluate_fitted(_ConstantModel(factor), _pairs([1.0, 10.0, 100.0]))
        assert ev.log_rmse == pytest.approx(0.5)
        assert ev.max_log_error == pytest.approx(0.5)
