"""Tests for repro.models.selection (CV, bootstrap, information criteria)."""

import numpy as np
import pytest

from repro.data.gazetteer import Scale
from repro.models import (
    GravityModel,
    RadiationModel,
    aic_log_space,
    bootstrap_metric,
    evaluate_fitted,
    k_fold_cross_validate,
    rank_models_by_aic,
)
from repro.models.selection import _subset_pairs
from repro.stats.metrics import hit_rate


class TestSubsetPairs:
    def test_subset_preserves_alignment(self, medium_context):
        pairs = medium_context.flows(Scale.NATIONAL).pairs()
        subset = _subset_pairs(pairs, np.array([0, 2, 4]))
        assert len(subset) == 3
        assert subset.flow[1] == pairs.flow[2]
        assert subset.source[2] == pairs.source[4]


class TestCrossValidation:
    def test_fold_count_and_scores(self, medium_context):
        pairs = medium_context.flows(Scale.NATIONAL).pairs()
        result = k_fold_cross_validate(GravityModel(2), pairs, k=5)
        assert len(result.fold_evaluations) == 5
        assert -1.0 <= result.mean_pearson <= 1.0
        assert all(0.0 <= e.hit_rate_50 <= 1.0 for e in result.fold_evaluations)

    def test_held_out_gravity_still_beats_radiation(self, medium_context):
        """The paper's conclusion survives held-out evaluation."""
        flows = medium_context.flows(Scale.NATIONAL)
        pairs = flows.pairs()
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        gravity = k_fold_cross_validate(GravityModel(2), pairs, k=5, rng=rng_a)
        radiation = k_fold_cross_validate(
            RadiationModel.from_flows(flows), pairs, k=5, rng=rng_b
        )
        assert gravity.mean_pearson > radiation.mean_pearson

    def test_deterministic_given_rng(self, medium_context):
        pairs = medium_context.flows(Scale.NATIONAL).pairs()
        a = k_fold_cross_validate(GravityModel(2), pairs, k=4, rng=np.random.default_rng(3))
        b = k_fold_cross_validate(GravityModel(2), pairs, k=4, rng=np.random.default_rng(3))
        assert a.mean_pearson == b.mean_pearson

    def test_invalid_k_raises(self, medium_context):
        pairs = medium_context.flows(Scale.NATIONAL).pairs()
        with pytest.raises(ValueError):
            k_fold_cross_validate(GravityModel(2), pairs, k=1)
        with pytest.raises(ValueError):
            k_fold_cross_validate(GravityModel(2), pairs, k=len(pairs))


class TestBootstrap:
    def test_interval_contains_point_for_stable_metric(self):
        rng = np.random.default_rng(0)
        observed = rng.uniform(10, 1000, 300)
        estimated = observed * np.exp(rng.normal(0, 0.3, 300))
        interval = bootstrap_metric(
            observed, estimated, hit_rate, n_resamples=300, rng=np.random.default_rng(1)
        )
        assert interval.low <= interval.point <= interval.high
        assert interval.point in interval

    def test_interval_narrows_with_sample_size(self):
        rng = np.random.default_rng(2)

        def width(n):
            observed = rng.uniform(10, 1000, n)
            estimated = observed * np.exp(rng.normal(0, 0.3, n))
            interval = bootstrap_metric(
                observed, estimated, hit_rate, n_resamples=300,
                rng=np.random.default_rng(3),
            )
            return interval.high - interval.low

        assert width(2000) < width(50)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            bootstrap_metric(np.ones(5), np.ones(5), hit_rate, confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_metric(np.ones(5), np.ones(5), hit_rate, n_resamples=5)
        with pytest.raises(ValueError):
            bootstrap_metric(np.ones(0), np.ones(0), hit_rate)


class TestInformationCriteria:
    def test_aic_prefers_true_simpler_model(self):
        # Identical fits: the model claiming fewer parameters wins.
        observed = np.array([10.0, 100.0, 1000.0, 50.0, 500.0])
        estimated = observed * 1.1
        assert aic_log_space(observed, estimated, 1) < aic_log_space(observed, estimated, 4)

    def test_perfect_fit_dominates(self):
        observed = np.array([10.0, 100.0, 1000.0])
        perfect = aic_log_space(observed, observed, 4)
        sloppy = aic_log_space(observed, observed * 3.0, 1)
        assert perfect < sloppy

    def test_rank_models_on_real_fits(self, medium_context):
        flows = medium_context.flows(Scale.NATIONAL)
        pairs = flows.pairs()
        evaluations = [
            evaluate_fitted(GravityModel(4).fit(pairs), pairs),
            evaluate_fitted(GravityModel(2).fit(pairs), pairs),
            evaluate_fitted(RadiationModel.from_flows(flows).fit(pairs), pairs),
        ]
        ranking = rank_models_by_aic(evaluations)
        names = [name for name, _aic in ranking]
        # Radiation's fit is far worse than one or two extra parameters
        # can justify, so it must rank last.
        assert names[-1] == "Radiation"

