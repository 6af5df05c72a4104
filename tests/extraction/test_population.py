"""Tests for repro.extraction.population on hand-built corpora."""

import numpy as np
import pytest

from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area, Scale
from repro.extraction.population import (
    assign_tweets_to_areas,
    extract_area_observations,
    twitter_population_arrays,
)
from repro.geo.coords import Coordinate
from repro.geo.distance import destination_point
from repro.geo.index import BruteForceIndex, GridIndex


def _area(name, lat, lon, pop=1000):
    return Area(name=name, center=Coordinate(lat=lat, lon=lon), population=pop, scale=Scale.NATIONAL)


AREA_A = _area("A", -33.0, 151.0, pop=5000)
AREA_B = _area("B", -35.0, 149.0, pop=2000)


def _corpus_at(points_with_users):
    """Build a corpus from (user, lat, lon) triples, timestamps 0,1,2..."""
    users = np.array([p[0] for p in points_with_users])
    lats = np.array([p[1] for p in points_with_users])
    lons = np.array([p[2] for p in points_with_users])
    ts = np.arange(len(points_with_users), dtype=np.float64)
    return TweetCorpus.from_arrays(users, ts, lats, lons)


class TestExtractAreaObservations:
    def test_counts_tweets_and_unique_users(self):
        near_a = destination_point(AREA_A.center, 90.0, 1.0)
        corpus = _corpus_at(
            [
                (1, near_a.lat, near_a.lon),
                (1, near_a.lat, near_a.lon),
                (2, near_a.lat, near_a.lon),
                (3, AREA_B.center.lat, AREA_B.center.lon),
            ]
        )
        obs = extract_area_observations(corpus, [AREA_A, AREA_B], radius_km=5.0)
        by_name = {o.area.name: o for o in obs}
        assert by_name["A"].n_tweets == 3
        assert by_name["A"].n_users == 2
        assert by_name["B"].n_tweets == 1
        assert by_name["B"].n_users == 1

    def test_radius_excludes_far_points(self):
        far = destination_point(AREA_A.center, 0.0, 10.0)
        corpus = _corpus_at([(1, far.lat, far.lon)])
        obs = extract_area_observations(corpus, [AREA_A], radius_km=5.0)
        assert obs[0].n_tweets == 0
        assert obs[0].n_users == 0

    def test_boundary_inclusive(self):
        edge = destination_point(AREA_A.center, 0.0, 5.0)
        corpus = _corpus_at([(1, edge.lat, edge.lon)])
        obs = extract_area_observations(corpus, [AREA_A], radius_km=5.0000001)
        assert obs[0].n_tweets == 1

    def test_census_population_passthrough(self):
        corpus = _corpus_at([(1, -33.0, 151.0)])
        obs = extract_area_observations(corpus, [AREA_A], radius_km=5.0)
        assert obs[0].census_population == 5000

    def test_invalid_radius_raises(self):
        corpus = _corpus_at([(1, -33.0, 151.0)])
        with pytest.raises(ValueError):
            extract_area_observations(corpus, [AREA_A], radius_km=0.0)

    def test_prebuilt_index_reuse(self):
        corpus = _corpus_at([(1, -33.0, 151.0)])
        index = GridIndex(corpus.lats, corpus.lons)
        obs = extract_area_observations(corpus, [AREA_A], 5.0, index=index)
        assert obs[0].n_tweets == 1

    def test_wrong_index_size_raises(self):
        corpus = _corpus_at([(1, -33.0, 151.0)])
        wrong = BruteForceIndex(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            extract_area_observations(corpus, [AREA_A], 5.0, index=wrong)

    def test_twitter_population_arrays(self):
        corpus = _corpus_at([(1, -33.0, 151.0)])
        obs = extract_area_observations(corpus, [AREA_A, AREA_B], 5.0)
        twitter, census = twitter_population_arrays(obs)
        assert twitter.tolist() == [1.0, 0.0]
        assert census.tolist() == [5000.0, 2000.0]


class TestAssignTweetsToAreas:
    def test_basic_labelling(self):
        corpus = _corpus_at(
            [
                (1, AREA_A.center.lat, AREA_A.center.lon),
                (1, AREA_B.center.lat, AREA_B.center.lon),
                (1, -20.0, 130.0),  # nowhere
            ]
        )
        labels = assign_tweets_to_areas(corpus, [AREA_A, AREA_B], 5.0)
        assert labels.tolist() == [0, 1, -1]

    def test_overlap_resolved_by_nearest(self):
        # Two areas 4 km apart with 5 km radii: a point 1 km from A is
        # inside both discs but must label as A.
        area_b_close = _area("B2", *destination_point(AREA_A.center, 90.0, 4.0))
        point = destination_point(AREA_A.center, 90.0, 1.0)
        corpus = _corpus_at([(1, point.lat, point.lon)])
        labels = assign_tweets_to_areas(corpus, [AREA_A, area_b_close], 5.0)
        assert labels.tolist() == [0]
        # And a point 3.5 km from A (0.5 km from B2) labels as B2.
        point2 = destination_point(AREA_A.center, 90.0, 3.5)
        corpus2 = _corpus_at([(1, point2.lat, point2.lon)])
        labels2 = assign_tweets_to_areas(corpus2, [AREA_A, area_b_close], 5.0)
        assert labels2.tolist() == [1]

    def test_order_independence_of_overlap_resolution(self):
        area_b_close = _area("B2", *destination_point(AREA_A.center, 90.0, 4.0))
        point = destination_point(AREA_A.center, 90.0, 1.0)
        corpus = _corpus_at([(1, point.lat, point.lon)])
        forward = assign_tweets_to_areas(corpus, [AREA_A, area_b_close], 5.0)
        reverse = assign_tweets_to_areas(corpus, [area_b_close, AREA_A], 5.0)
        assert forward.tolist() == [0]
        assert reverse.tolist() == [1]  # same area, new position in list

    def test_labels_align_with_corpus_rows(self, small_corpus):
        from repro.data.gazetteer import areas_for_scale

        labels = assign_tweets_to_areas(
            small_corpus, areas_for_scale(Scale.NATIONAL), 50.0
        )
        assert labels.shape == small_corpus.user_ids.shape
        assert labels.max() < 20
        assert labels.min() >= -1
