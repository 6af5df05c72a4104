"""Tests for repro.geo.coords."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.coords import (
    Coordinate,
    CoordinateError,
    normalize_longitude,
    validate_latitude,
    validate_longitude,
)


class TestNormalizeLongitude:
    def test_identity_in_range(self):
        assert normalize_longitude(151.2) == pytest.approx(151.2)

    def test_wraps_positive(self):
        assert normalize_longitude(190.0) == pytest.approx(-170.0)

    def test_wraps_negative(self):
        assert normalize_longitude(-190.0) == pytest.approx(170.0)

    def test_boundary_180_maps_to_minus_180(self):
        assert normalize_longitude(180.0) == pytest.approx(-180.0)

    def test_minus_180_stays(self):
        assert normalize_longitude(-180.0) == pytest.approx(-180.0)

    def test_full_turn(self):
        assert normalize_longitude(360.0) == pytest.approx(0.0)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_always_in_half_open_interval(self, lon):
        wrapped = normalize_longitude(lon)
        assert -180.0 <= wrapped < 180.0

    @given(st.floats(min_value=-720, max_value=720))
    def test_wrapping_preserves_angle(self, lon):
        wrapped = normalize_longitude(lon)
        assert math.isclose(
            math.cos(math.radians(wrapped)), math.cos(math.radians(lon)), abs_tol=1e-9
        )
        assert math.isclose(
            math.sin(math.radians(wrapped)), math.sin(math.radians(lon)), abs_tol=1e-9
        )


class TestValidation:
    def test_latitude_in_range_passes(self):
        assert validate_latitude(-33.87) == -33.87

    @pytest.mark.parametrize("lat", [90.0001, -90.0001, float("nan"), float("inf")])
    def test_bad_latitude_raises(self, lat):
        with pytest.raises(CoordinateError):
            validate_latitude(lat)

    @pytest.mark.parametrize("lon", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_longitude_raises(self, lon):
        with pytest.raises(CoordinateError):
            validate_longitude(lon)

    def test_poles_are_valid(self):
        assert validate_latitude(90.0) == 90.0
        assert validate_latitude(-90.0) == -90.0


class TestCoordinate:
    def test_construction_and_fields(self):
        c = Coordinate(lat=-33.8688, lon=151.2093)
        assert c.lat == pytest.approx(-33.8688)
        assert c.lon == pytest.approx(151.2093)

    def test_longitude_normalised_on_construction(self):
        c = Coordinate(lat=0.0, lon=200.0)
        assert c.lon == pytest.approx(-160.0)

    def test_invalid_latitude_raises(self):
        with pytest.raises(CoordinateError):
            Coordinate(lat=95.0, lon=0.0)

    def test_frozen(self):
        c = Coordinate(lat=1.0, lon=2.0)
        with pytest.raises(AttributeError):
            c.lat = 3.0

    def test_equality_after_normalisation(self):
        assert Coordinate(lat=0.0, lon=190.0) == Coordinate(lat=0.0, lon=-170.0)

    def test_iteration_and_tuple(self):
        c = Coordinate(lat=-35.0, lon=149.0)
        assert tuple(c) == (-35.0, 149.0)

    def test_radians_properties(self):
        c = Coordinate(lat=90.0, lon=0.0)
        assert c.lat_rad == pytest.approx(math.pi / 2)

    def test_str_hemispheres(self):
        text = str(Coordinate(lat=-33.8688, lon=151.2093))
        assert "S" in text and "E" in text

    @given(
        st.floats(min_value=-90, max_value=90),
        st.floats(min_value=-1000, max_value=1000),
    )
    def test_any_valid_input_constructs(self, lat, lon):
        c = Coordinate(lat=lat, lon=lon)
        assert -90 <= c.lat <= 90
        assert -180 <= c.lon < 180
