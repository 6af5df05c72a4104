"""Tests for repro.geo.distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import Coordinate
from repro.geo.distance import (
    EARTH_RADIUS_KM,
    destination_point,
    haversine_km,
    pairwise_distance_matrix,
    points_to_point_km,
)

SYDNEY = Coordinate(lat=-33.8688, lon=151.2093)
MELBOURNE = Coordinate(lat=-37.8136, lon=144.9631)
PERTH = Coordinate(lat=-31.9505, lon=115.8605)

coords = st.tuples(
    st.floats(min_value=-85, max_value=85),
    st.floats(min_value=-179.9, max_value=179.9),
)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(SYDNEY, SYDNEY) == 0.0

    def test_one_degree_longitude_at_equator(self):
        expected = math.pi * EARTH_RADIUS_KM / 180.0
        assert haversine_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(expected, rel=1e-9)

    def test_sydney_melbourne_is_about_713km(self):
        assert haversine_km(SYDNEY, MELBOURNE) == pytest.approx(713.0, abs=10.0)

    def test_sydney_perth_is_about_3290km(self):
        assert haversine_km(SYDNEY, PERTH) == pytest.approx(3291.0, abs=30.0)

    def test_antipodal_is_half_circumference(self):
        half = math.pi * EARTH_RADIUS_KM
        assert haversine_km((0.0, 0.0), (0.0, -180.0)) == pytest.approx(half, rel=1e-9)

    def test_accepts_tuples_and_coordinates(self):
        d1 = haversine_km(SYDNEY, (-37.8136, 144.9631))
        d2 = haversine_km((SYDNEY.lat, SYDNEY.lon), MELBOURNE)
        assert d1 == pytest.approx(d2)

    @given(coords, coords)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)

    @given(coords, coords, coords)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        ab = haversine_km(a, b)
        bc = haversine_km(b, c)
        ac = haversine_km(a, c)
        assert ac <= ab + bc + 1e-6

    @given(coords)
    def test_identity(self, a):
        assert haversine_km(a, a) == pytest.approx(0.0, abs=1e-9)


class TestBearingAndDestination:
    def test_destination_roundtrip_distance(self):
        end = destination_point(SYDNEY, 45.0, 100.0)
        assert haversine_km(SYDNEY, end) == pytest.approx(100.0, rel=1e-6)

    @given(coords, st.floats(min_value=0, max_value=359.99), st.floats(min_value=0.01, max_value=2000))
    @settings(max_examples=60)
    def test_destination_lands_at_requested_distance(self, start, bearing, distance):
        end = destination_point(start, bearing, distance)
        assert haversine_km(start, end) == pytest.approx(distance, rel=1e-6, abs=1e-6)


class TestVectorised:
    def test_points_to_point_matches_scalar(self):
        lats = np.array([SYDNEY.lat, MELBOURNE.lat, PERTH.lat])
        lons = np.array([SYDNEY.lon, MELBOURNE.lon, PERTH.lon])
        dists = points_to_point_km(lats, lons, SYDNEY)
        assert dists[0] == pytest.approx(0.0, abs=1e-9)
        assert dists[1] == pytest.approx(haversine_km(MELBOURNE, SYDNEY), rel=1e-12)
        assert dists[2] == pytest.approx(haversine_km(PERTH, SYDNEY), rel=1e-12)

    def test_points_to_point_shape_mismatch(self):
        with pytest.raises(ValueError):
            points_to_point_km(np.zeros(3), np.zeros(4), SYDNEY)

    def test_pairwise_matrix_properties(self):
        points = [SYDNEY, MELBOURNE, PERTH]
        matrix = pairwise_distance_matrix(points)
        assert matrix.shape == (3, 3)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)
        assert matrix[0, 1] == pytest.approx(haversine_km(SYDNEY, MELBOURNE), rel=1e-9)

    def test_pairwise_matrix_empty(self):
        assert pairwise_distance_matrix([]).shape == (0, 0)

