"""Tests for repro.stats.metrics."""

import numpy as np
import pytest

from repro.stats.metrics import (
    common_part_of_commuters,
    hit_rate,
    log_rmse,
    max_log_error,
    underestimation_fraction,
)


class TestHitRate:
    def test_exact_estimates_hit(self):
        obs = np.array([10.0, 20.0, 30.0])
        assert hit_rate(obs, obs) == 1.0

    def test_fifty_percent_boundary_is_a_hit(self):
        obs = np.array([100.0])
        assert hit_rate(obs, np.array([150.0])) == 1.0
        assert hit_rate(obs, np.array([50.0])) == 1.0
        assert hit_rate(obs, np.array([150.0001])) == 0.0

    def test_partial(self):
        obs = np.array([100.0, 100.0, 100.0, 100.0])
        est = np.array([100.0, 149.0, 200.0, 10.0])
        assert hit_rate(obs, est) == pytest.approx(0.5)

    def test_zero_observed_excluded(self):
        obs = np.array([0.0, 100.0])
        est = np.array([50.0, 100.0])
        assert hit_rate(obs, est) == 1.0

    def test_all_zero_observed(self):
        assert hit_rate(np.zeros(3), np.ones(3)) == 0.0

    def test_custom_tolerance(self):
        obs = np.array([100.0])
        assert hit_rate(obs, np.array([180.0]), tolerance=0.8) == 1.0

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            hit_rate(np.ones(1), np.ones(1), tolerance=-0.1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hit_rate(np.ones(2), np.ones(3))


class TestLogErrors:
    def test_one_decade_error(self):
        obs = np.array([10.0, 100.0])
        est = np.array([100.0, 10.0])
        assert log_rmse(obs, est) == pytest.approx(1.0)
        assert max_log_error(obs, est) == pytest.approx(1.0)

    def test_zero_error(self):
        obs = np.array([5.0, 50.0])
        assert log_rmse(obs, obs) == 0.0

    def test_nonpositive_pairs_excluded(self):
        obs = np.array([0.0, 10.0])
        est = np.array([10.0, 10.0])
        assert log_rmse(obs, est) == 0.0

    def test_all_invalid_gives_nan(self):
        assert np.isnan(log_rmse(np.zeros(2), np.ones(2)))
        assert np.isnan(max_log_error(np.zeros(2), np.ones(2)))


class TestCpc:
    def test_identical_flows_is_one(self):
        flows = np.array([1.0, 2.0, 3.0])
        assert common_part_of_commuters(flows, flows) == pytest.approx(1.0)

    def test_disjoint_flows_is_zero(self):
        assert common_part_of_commuters(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(0.0)

    def test_half_overlap(self):
        assert common_part_of_commuters(
            np.array([2.0]), np.array([1.0])
        ) == pytest.approx(2 / 3)

    def test_empty_flows(self):
        assert common_part_of_commuters(np.zeros(2), np.zeros(2)) == 0.0


class TestRSquaredAndBias:
    def test_underestimation_fraction(self):
        obs = np.array([10.0, 10.0, 10.0, 10.0])
        est = np.array([5.0, 5.0, 15.0, 10.0])
        assert underestimation_fraction(obs, est) == pytest.approx(0.5)

    def test_underestimation_empty(self):
        assert underestimation_fraction(np.zeros(2), np.ones(2)) == 0.0

