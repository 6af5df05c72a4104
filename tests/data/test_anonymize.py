"""Tests for repro.data.anonymize."""

import numpy as np
import pytest

from repro.data.anonymize import coarsen_coordinates, pseudonymize_users
from repro.extraction.privacy import k_anonymity_report
from repro.data.gazetteer import Scale, areas_for_scale, search_radius_km
from repro.geo.distance import points_to_point_km


class TestPseudonymize:
    def test_structure_preserved(self, small_corpus):
        anonymous = pseudonymize_users(small_corpus, key="release-1")
        assert len(anonymous) == len(small_corpus)
        assert anonymous.n_users == small_corpus.n_users
        assert np.array_equal(
            np.sort(anonymous.tweets_per_user()),
            np.sort(small_corpus.tweets_per_user()),
        )

    def test_ids_actually_change(self, small_corpus):
        anonymous = pseudonymize_users(small_corpus, key="release-1")
        overlap = np.intersect1d(anonymous.unique_users, small_corpus.unique_users)
        assert overlap.size == 0  # 63-bit hashes vs small sequential ids

    def test_stable_within_key(self, small_corpus):
        a = pseudonymize_users(small_corpus, key="k1")
        b = pseudonymize_users(small_corpus, key="k1")
        assert np.array_equal(a.user_ids, b.user_ids)

    def test_unlinkable_across_keys(self, small_corpus):
        a = pseudonymize_users(small_corpus, key="k1")
        b = pseudonymize_users(small_corpus, key="k2")
        assert np.intersect1d(a.unique_users, b.unique_users).size == 0

    def test_empty_key_rejected(self, small_corpus):
        with pytest.raises(ValueError):
            pseudonymize_users(small_corpus, key="")


class TestCoarsen:
    def test_idempotent(self, small_corpus):
        once = coarsen_coordinates(small_corpus, 1.0)
        twice = coarsen_coordinates(once, 1.0)
        assert np.allclose(once.lats, twice.lats)
        assert np.allclose(once.lons, twice.lons)

    def test_displacement_bounded_by_cell(self, small_corpus):
        coarse = coarsen_coordinates(small_corpus, 1.0)
        moved = points_to_point_km(
            coarse.lats[:500], coarse.lons[:500], (0.0, 0.0)
        ) - points_to_point_km(small_corpus.lats[:500], small_corpus.lons[:500], (0.0, 0.0))
        # Rounding moves each coordinate at most half a cell in each axis.
        assert np.abs(moved).max() < 1.0

    def test_fig3_survives_one_km_coarsening(self, medium_corpus):
        """The headline robustness statement: rounding to ~1 km does not
        break national population estimation."""
        from repro.extraction import extract_area_observations
        from repro.extraction.population import twitter_population_arrays
        from repro.stats import log_pearson

        coarse = coarsen_coordinates(medium_corpus, 1.0)
        areas = areas_for_scale(Scale.NATIONAL)
        radius = search_radius_km(Scale.NATIONAL)
        original = log_pearson(
            *twitter_population_arrays(
                extract_area_observations(medium_corpus, areas, radius)
            )
        )
        blurred = log_pearson(
            *twitter_population_arrays(extract_area_observations(coarse, areas, radius))
        )
        assert blurred.r > original.r - 0.05

    def test_invalid_resolution(self, small_corpus):
        with pytest.raises(ValueError):
            coarsen_coordinates(small_corpus, 0.0)


class TestKAnonymity:
    def test_report_fields(self, medium_corpus):
        areas = areas_for_scale(Scale.NATIONAL)
        report = k_anonymity_report(medium_corpus, areas, 50.0, k=10)
        assert len(report.area_names) == 20
        assert report.publishable.dtype == bool
        assert report.n_suppressed == int((report.user_counts < 10).sum())

    def test_huge_k_suppresses_everything(self, small_corpus):
        areas = areas_for_scale(Scale.NATIONAL)
        report = k_anonymity_report(small_corpus, areas, 50.0, k=10**9)
        assert report.n_suppressed == 20

    def test_render(self, small_corpus):
        areas = areas_for_scale(Scale.NATIONAL)
        text = k_anonymity_report(small_corpus, areas, 50.0, k=5).render()
        assert "k-anonymity report" in text
        assert "Sydney" in text

    def test_invalid_k(self, small_corpus):
        with pytest.raises(ValueError):
            k_anonymity_report(small_corpus, areas_for_scale(Scale.NATIONAL), 50.0, k=0)

