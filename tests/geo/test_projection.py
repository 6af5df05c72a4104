"""Tests for repro.geo.projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import Coordinate
from repro.geo.distance import destination_point, haversine_km
from repro.geo.projection import LocalProjection

SYDNEY = Coordinate(lat=-33.8688, lon=151.2093)


def _planar_km(proj, a, b):
    """Euclidean distance between two ``(lat, lon)`` points once projected."""
    (ax, ay), (bx, by) = proj.to_xy(*a), proj.to_xy(*b)
    return math.hypot(ax - bx, ay - by)


class TestLocalProjection:
    def test_origin_maps_to_zero(self):
        proj = LocalProjection(SYDNEY)
        assert proj.to_xy(SYDNEY.lat, SYDNEY.lon) == pytest.approx((0.0, 0.0))

    def test_north_is_positive_y(self):
        proj = LocalProjection(SYDNEY)
        _x, y = proj.to_xy(SYDNEY.lat + 0.1, SYDNEY.lon)
        assert y > 0

    def test_east_is_positive_x(self):
        proj = LocalProjection(SYDNEY)
        x, _y = proj.to_xy(SYDNEY.lat, SYDNEY.lon + 0.1)
        assert x > 0

    def test_roundtrip(self):
        proj = LocalProjection(SYDNEY)
        back = proj.to_latlon(*proj.to_xy(-33.9, 151.3))
        assert back.lat == pytest.approx(-33.9, abs=1e-9)
        assert back.lon == pytest.approx(151.3, abs=1e-9)

    def test_accepts_tuple_origin(self):
        proj = LocalProjection((-33.8688, 151.2093))
        assert proj.origin == SYDNEY

    def test_vectorised_matches_scalar(self):
        proj = LocalProjection(SYDNEY)
        lats = np.array([-33.9, -33.7, -34.0])
        lons = np.array([151.0, 151.3, 151.2])
        xy = proj.to_xy_many(lats, lons)
        for i in range(3):
            assert tuple(xy[i]) == pytest.approx(proj.to_xy(lats[i], lons[i]))

    def test_planar_distance_close_to_haversine(self):
        proj = LocalProjection(SYDNEY)
        a = (-33.9145, 151.2420)
        b = (-33.7963, 151.2843)
        assert _planar_km(proj, a, b) == pytest.approx(
            haversine_km(a, b), rel=0.01
        )

    @given(
        st.floats(min_value=0.05, max_value=60.0),
        st.floats(min_value=0, max_value=360),
    )
    @settings(max_examples=40)
    def test_local_accuracy_within_one_percent(self, distance, bearing):
        proj = LocalProjection(SYDNEY)
        end = destination_point(SYDNEY, bearing, distance)
        planar = _planar_km(proj, (SYDNEY.lat, SYDNEY.lon), (end.lat, end.lon))
        assert planar == pytest.approx(distance, rel=0.01)
