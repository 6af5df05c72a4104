"""Tests for repro.geo.bbox."""

import numpy as np
import pytest

from repro.geo.bbox import AUSTRALIA_BBOX, BoundingBox
from repro.geo.coords import Coordinate


class TestConstruction:
    def test_valid_box(self):
        box = BoundingBox(min_lat=-40, max_lat=-10, min_lon=110, max_lon=155)
        assert box.lat_span == 30
        assert box.lon_span == 45

    def test_inverted_latitude_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(min_lat=10, max_lat=-10, min_lon=0, max_lon=1)

    def test_inverted_longitude_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(min_lat=-10, max_lat=10, min_lon=5, max_lon=1)

    def test_degenerate_point_box_allowed(self):
        box = BoundingBox(min_lat=0, max_lat=0, min_lon=0, max_lon=0)
        assert box.contains((0.0, 0.0))


class TestContains:
    def test_inside(self):
        assert AUSTRALIA_BBOX.contains(Coordinate(lat=-33.87, lon=151.21))

    def test_outside(self):
        assert not AUSTRALIA_BBOX.contains((40.7, -74.0))  # New York

    def test_boundary_inclusive(self):
        box = BoundingBox(min_lat=0, max_lat=1, min_lon=0, max_lon=1)
        assert box.contains((0.0, 0.0))
        assert box.contains((1.0, 1.0))

    def test_contains_mask(self):
        box = BoundingBox(min_lat=0, max_lat=1, min_lon=0, max_lon=1)
        lats = np.array([0.5, 2.0, 0.0])
        lons = np.array([0.5, 0.5, 1.0])
        assert box.contains_mask(lats, lons).tolist() == [True, False, True]


class TestGeometry:
    def test_center(self):
        box = BoundingBox(min_lat=-10, max_lat=10, min_lon=20, max_lon=40)
        assert box.center == Coordinate(lat=0.0, lon=30.0)

    def test_expanded(self):
        box = BoundingBox(min_lat=0, max_lat=1, min_lon=0, max_lon=1).expanded(0.5)
        assert box.min_lat == -0.5
        assert box.max_lon == 1.5

    def test_expanded_clamps_latitude(self):
        box = BoundingBox(min_lat=-89, max_lat=89, min_lon=0, max_lon=1).expanded(5)
        assert box.min_lat == -90
        assert box.max_lat == 90

    def test_expanded_negative_margin_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(min_lat=0, max_lat=1, min_lon=0, max_lon=1).expanded(-1)


class TestAustraliaBox:
    def test_matches_table1_exactly(self):
        assert AUSTRALIA_BBOX.min_lon == 112.921112
        assert AUSTRALIA_BBOX.max_lon == 159.278717
        assert AUSTRALIA_BBOX.min_lat == -54.640301
        assert AUSTRALIA_BBOX.max_lat == -9.228820

    def test_contains_all_capitals(self):
        capitals = [(-33.87, 151.21), (-37.81, 144.96), (-31.95, 115.86), (-12.46, 130.85)]
        for lat, lon in capitals:
            assert AUSTRALIA_BBOX.contains((lat, lon))
