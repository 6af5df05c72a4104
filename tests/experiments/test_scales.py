"""Tests for repro.experiments.scales."""

import numpy as np

from repro.data.gazetteer import Scale
from repro.experiments.scales import ExperimentContext, default_scale_specs


class TestScaleSpecs:
    def test_three_specs_with_paper_radii(self):
        specs = default_scale_specs()
        assert [s.scale for s in specs] == list(Scale)
        assert [s.radius_km for s in specs] == [50.0, 25.0, 2.0]
        assert all(len(s.areas) == 20 for s in specs)


class TestExperimentContext:
    def test_index_built_once(self, small_corpus):
        context = ExperimentContext(small_corpus)
        assert context.index is context.index

    def test_observations_cached(self, small_corpus):
        context = ExperimentContext(small_corpus)
        a = context.observations(Scale.NATIONAL)
        b = context.observations(Scale.NATIONAL)
        assert a is b

    def test_radius_variants_cached_separately(self, small_corpus):
        context = ExperimentContext(small_corpus)
        default = context.observations(Scale.METROPOLITAN)
        half_km = context.observations(Scale.METROPOLITAN, 0.5)
        assert default is not half_km
        # Smaller radius can never see more tweets.
        assert sum(o.n_tweets for o in half_km) <= sum(o.n_tweets for o in default)

    def test_labels_and_flows_align(self, small_corpus):
        context = ExperimentContext(small_corpus)
        labels = context.labels(Scale.NATIONAL)
        assert labels.shape == small_corpus.user_ids.shape
        flows = context.flows(Scale.NATIONAL)
        assert flows.matrix.shape == (20, 20)
        assert context.flows(Scale.NATIONAL) is flows

    def test_flows_diagonal_zero(self, small_corpus):
        context = ExperimentContext(small_corpus)
        flows = context.flows(Scale.STATE)
        assert np.all(np.diag(flows.matrix) == 0)
