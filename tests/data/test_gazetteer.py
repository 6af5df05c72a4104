"""Tests for repro.data.gazetteer — the paper's Section III area system."""

import numpy as np
import pytest

from repro.data.gazetteer import (
    METRO_SENSITIVITY_RADIUS_KM,
    SEARCH_RADIUS_KM,
    Scale,
    all_areas,
    areas_for_scale,
    national_cities,
    nsw_cities,
    search_radius_km,
    sydney_suburbs,
)
from repro.geo.bbox import AUSTRALIA_BBOX
from repro.geo.distance import pairwise_distance_matrix


def distance_matrix_km(scale: Scale) -> np.ndarray:
    return pairwise_distance_matrix([area.center for area in areas_for_scale(scale)])


def mean_pairwise_distance_km(scale: Scale) -> float:
    matrix = distance_matrix_km(scale)
    return float(matrix[np.triu_indices(len(matrix), k=1)].mean())


class TestAreaSets:
    def test_twenty_areas_per_scale(self):
        assert len(national_cities()) == 20
        assert len(nsw_cities()) == 20
        assert len(sydney_suburbs()) == 20

    def test_all_areas_is_sixty(self):
        assert len(all_areas()) == 60

    def test_every_area_inside_australia(self):
        for area in all_areas():
            assert AUSTRALIA_BBOX.contains(area.center), area.name

    def test_positive_populations(self):
        for area in all_areas():
            assert area.population > 0

    def test_sydney_is_most_populated_nationally(self):
        cities = national_cities()
        assert max(cities, key=lambda a: a.population).name == "Sydney"

    def test_sydney_tops_nsw_too(self):
        assert max(nsw_cities(), key=lambda a: a.population).name == "Sydney"

    def test_suburbs_smaller_than_sydney(self):
        sydney = national_cities()[0].population
        assert sum(a.population for a in sydney_suburbs()) < sydney

    def test_scales_tag_their_areas(self):
        for scale in Scale:
            for area in areas_for_scale(scale):
                assert area.scale is scale

    def test_unique_names_within_scale(self):
        for scale in Scale:
            names = [a.name for a in areas_for_scale(scale)]
            assert len(set(names)) == 20


class TestRadii:
    def test_paper_radii(self):
        assert search_radius_km(Scale.NATIONAL) == 50.0
        assert search_radius_km(Scale.STATE) == 25.0
        assert search_radius_km(Scale.METROPOLITAN) == 2.0
        assert METRO_SENSITIVITY_RADIUS_KM == 0.5

    def test_mapping_covers_all_scales(self):
        assert set(SEARCH_RADIUS_KM) == set(Scale)


class TestDistances:
    def test_mean_pairwise_distances_match_paper(self):
        # Paper quotes 1422 km, 341 km and 7.5 km.  Our gazetteer uses
        # approximate public coordinates; national and state land within
        # a couple of percent, the metropolitan selection is broader.
        assert mean_pairwise_distance_km(Scale.NATIONAL) == pytest.approx(1422, rel=0.05)
        assert mean_pairwise_distance_km(Scale.STATE) == pytest.approx(341, rel=0.05)
        assert mean_pairwise_distance_km(Scale.METROPOLITAN) < 30.0

    def test_distance_matrix_shape_and_symmetry(self):
        for scale in Scale:
            matrix = distance_matrix_km(scale)
            assert matrix.shape == (20, 20)
            assert np.allclose(matrix, matrix.T)
            assert np.all(np.diag(matrix) == 0)

    def test_metropolitan_areas_are_close_together(self):
        matrix = distance_matrix_km(Scale.METROPOLITAN)
        off_diag = matrix[~np.eye(20, dtype=bool)]
        assert off_diag.max() < 60.0
