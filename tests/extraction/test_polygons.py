"""Tests for repro.extraction.polygons."""

import numpy as np
import pytest

from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area, Scale, areas_for_scale
from repro.extraction.polygons import extract_polygon_observations, hexagon_areas
from repro.geo.coords import Coordinate
from repro.geo.distance import destination_point


def _corpus(rows):
    users = np.array([r[0] for r in rows])
    ts = np.arange(len(rows), dtype=np.float64)
    lats = np.array([r[1] for r in rows])
    lons = np.array([r[2] for r in rows])
    return TweetCorpus.from_arrays(users, ts, lats, lons)


AREA = Area(
    name="X", center=Coordinate(lat=-33.0, lon=151.0), population=1000, scale=Scale.NATIONAL
)


class TestHexagonAreas:
    def test_one_hexagon_per_area(self):
        areas = areas_for_scale(Scale.METROPOLITAN)
        hexes = hexagon_areas(areas, 2.0)
        assert len(hexes) == 20
        for item in hexes:
            assert item.polygon.contains(item.area.center.lat, item.area.center.lon)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            hexagon_areas([AREA], 0.0)


class TestPolygonObservations:
    def test_counts_inside_hexagon(self):
        inner = destination_point(AREA.center, 0.0, 0.5)
        outer = destination_point(AREA.center, 0.0, 5.0)
        corpus = _corpus(
            [(1, inner.lat, inner.lon), (1, inner.lat, inner.lon), (2, outer.lat, outer.lon)]
        )
        observations = extract_polygon_observations(corpus, hexagon_areas([AREA], 2.0))
        assert observations[0].n_tweets == 2
        assert observations[0].n_users == 1
        assert observations[0].census_population == 1000

    def test_hexagon_subset_of_disc(self, small_corpus):
        """Hexagon counts never exceed the circumscribing disc's counts."""
        from repro.extraction import extract_area_observations

        areas = areas_for_scale(Scale.METROPOLITAN)
        disc = extract_area_observations(small_corpus, areas, 2.0)
        hexagon = extract_polygon_observations(small_corpus, hexagon_areas(areas, 2.0))
        for d, h in zip(disc, hexagon):
            assert h.n_tweets <= d.n_tweets
            assert h.n_users <= d.n_users

    def test_polygon_extraction_preserves_metro_correlation(self, medium_corpus):
        from repro.stats import log_pearson

        areas = areas_for_scale(Scale.METROPOLITAN)
        observations = extract_polygon_observations(
            medium_corpus, hexagon_areas(areas, 2.0)
        )
        users = np.array([o.n_users for o in observations], dtype=np.float64)
        census = np.array([o.census_population for o in observations], dtype=np.float64)
        assert log_pearson(users, census).r > 0.4

