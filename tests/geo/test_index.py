"""Tests for repro.geo.index — grid index must match brute force exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.index import BruteForceIndex, GridIndex


def _random_points(n, seed=0, lat_range=(-44, -10), lon_range=(113, 154)):
    rng = np.random.default_rng(seed)
    lats = rng.uniform(*lat_range, n)
    lons = rng.uniform(*lon_range, n)
    return lats, lons


class TestBruteForce:
    def test_empty_index(self):
        index = BruteForceIndex(np.empty(0), np.empty(0))
        assert len(index) == 0
        result = index.query_radius((0.0, 0.0), 100.0)
        assert len(result) == 0

    def test_query_finds_exact_point(self):
        index = BruteForceIndex(np.array([-33.87]), np.array([151.21]))
        result = index.query_radius((-33.87, 151.21), 1.0)
        assert result.indices.tolist() == [0]
        assert result.distances_km[0] == pytest.approx(0.0, abs=1e-9)

    def test_negative_radius_raises(self):
        index = BruteForceIndex(np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            index.query_radius((0.0, 0.0), -1.0)

    def test_mismatched_arrays_raise(self):
        with pytest.raises(ValueError):
            BruteForceIndex(np.zeros(3), np.zeros(4))


class TestGridIndex:
    def test_matches_brute_force_on_random_data(self):
        lats, lons = _random_points(2000, seed=3)
        brute = BruteForceIndex(lats, lons)
        grid = GridIndex(lats, lons)
        for center in [(-33.87, 151.21), (-37.81, 144.96), (-20.0, 130.0)]:
            for radius in (0.5, 5.0, 50.0, 500.0, 5000.0):
                b = brute.query_radius(center, radius)
                g = grid.query_radius(center, radius)
                assert np.array_equal(b.indices, g.indices), (center, radius)
                assert np.allclose(b.distances_km, g.distances_km)

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.1, max_value=3000.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, n, radius, seed):
        lats, lons = _random_points(n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        center = (rng.uniform(-44, -10), rng.uniform(113, 154))
        brute = BruteForceIndex(lats, lons)
        grid = GridIndex(lats, lons)
        assert np.array_equal(
            brute.query_radius(center, radius).indices,
            grid.query_radius(center, radius).indices,
        )

    def test_query_center_far_outside_grid(self):
        lats, lons = _random_points(100, seed=9)
        grid = GridIndex(lats, lons)
        brute = BruteForceIndex(lats, lons)
        center = (60.0, -100.0)  # nowhere near the data
        assert np.array_equal(
            grid.query_radius(center, 20000.0).indices,
            brute.query_radius(center, 20000.0).indices,
        )
        assert len(grid.query_radius(center, 10.0)) == 0

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.1, max_value=8000.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_over_the_whole_globe(self, n, radius, seed):
        """Wide discs near the poles and across the antimeridian lose no point."""
        lats, lons = _random_points(n, seed=seed, lat_range=(-85, 85), lon_range=(-180, 180))
        rng = np.random.default_rng(seed + 1)
        center = (rng.uniform(-85, 85), rng.uniform(-180, 180))
        assert np.array_equal(
            BruteForceIndex(lats, lons).query_radius(center, radius).indices,
            GridIndex(lats, lons).query_radius(center, radius).indices,
        )

    @pytest.mark.parametrize(
        "seed, radius",
        [(126, 2000.0), (316, 2000.0), (331, 3000.0), (6863, 1000.0), (7527, 1000.0)],
    )
    def test_wide_disc_at_high_latitude(self, seed, radius):
        """A disc is wider in longitude at its pole-ward edge than at its centre.

        These discs reach neither a pole nor the antimeridian; a margin
        taken at the centre's latitude missed a point inside each.
        """
        lats, lons = _random_points(300, seed=seed, lat_range=(-85, 85), lon_range=(-180, 180))
        rng = np.random.default_rng(seed + 1)
        center = (rng.uniform(-80, 80), rng.uniform(-100, 100))
        assert np.array_equal(
            GridIndex(lats, lons).query_radius(center, radius).indices,
            BruteForceIndex(lats, lons).query_radius(center, radius).indices,
        )

    def test_disc_across_the_antimeridian(self):
        # Filler points spread the grid over several longitude columns.
        lats = np.concatenate([[-17.0, -17.0], np.full(1024, 60.0)])
        lons = np.concatenate([[179.9, -179.9], np.linspace(-179.0, 179.0, 1024)])
        grid = GridIndex(lats, lons)
        assert grid.query_radius((-17.0, 179.95), 50.0).indices.tolist() == [0, 1]
        assert grid.query_radius((-17.0, -179.95), 50.0).indices.tolist() == [0, 1]

    def test_empty_grid_index(self):
        grid = GridIndex(np.empty(0), np.empty(0))
        assert len(grid.query_radius((0.0, 0.0), 100.0)) == 0

    def test_duplicate_points_all_returned(self):
        lats = np.full(7, -33.87)
        lons = np.full(7, 151.21)
        grid = GridIndex(lats, lons)
        result = grid.query_radius((-33.87, 151.21), 1.0)
        assert len(result) == 7
