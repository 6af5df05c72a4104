"""Labelling kernels: dense, indexed, production and scalar paths agree exactly."""

import numpy as np
import pytest

from repro.core.label import (
    containing_areas,
    count_population,
    label_corpus,
    label_point,
    label_points,
    label_points_dense,
    membership_points,
    point_area_distances,
)
from repro.core.world import World
from repro.data.gazetteer import Area, Scale
from repro.geo.coords import Coordinate
from repro.geo.distance import points_to_point_km
from repro.geo.index import BruteForceIndex, GridIndex

WORLD = World.from_scale(Scale.NATIONAL)


def _scatter(n, seed=7, spread=3.0):
    """Random points clustered around the national centres."""
    rng = np.random.default_rng(seed)
    anchors = rng.integers(0, WORLD.n_areas, size=n)
    lats = WORLD.centers_lat[anchors] + rng.normal(0.0, spread, size=n)
    lons = WORLD.centers_lon[anchors] + rng.normal(0.0, spread, size=n)
    return np.clip(lats, -89.0, 89.0), lons


class TestKernelAgreement:
    def test_dense_equals_indexed_equals_scalar(self):
        lats, lons = _scatter(500)
        dense = label_points_dense(WORLD, lats.copy(), lons.copy())
        indexed = label_corpus(WORLD, lats, lons)
        scalar = np.array(
            [label_point(WORLD, lat, lon) for lat, lon in zip(lats, lons)]
        )
        assert np.array_equal(dense, indexed)
        assert np.array_equal(dense, scalar)
        assert np.array_equal(dense, label_points(WORLD, lats, lons))

    def test_orientation_swap_is_bitwise_exact(self):
        """Swapping the haversine orientation loses nothing.

        Centres->point and points->centre distances are bit-identical:
        haversine is symmetric and the vectorised arithmetic sequences
        match, so no orientation can reintroduce the boundary drift the
        old per-tweet scan suffered from.
        """
        lats, lons = _scatter(64, seed=11)
        dense = point_area_distances(WORLD, lats, lons)
        for row, (lat, lon) in enumerate(zip(lats, lons)):
            swapped = points_to_point_km(
                WORLD.centers_lat, WORLD.centers_lon, (float(lat), float(lon))
            )
            assert np.array_equal(dense[row], swapped)

    def test_prebuilt_index_paths_agree(self):
        lats, lons = _scatter(300, seed=3)
        brute = label_corpus(WORLD, lats, lons, index=BruteForceIndex(lats, lons))
        grid = label_corpus(WORLD, lats, lons, index=GridIndex(lats, lons))
        assert np.array_equal(brute, grid)


class TestSemantics:
    def test_tie_breaks_to_earlier_area(self):
        left = Area(
            name="left", center=Coordinate(0.0, -1.0), population=10, scale=Scale.METROPOLITAN
        )
        right = Area(
            name="right", center=Coordinate(0.0, 1.0), population=10, scale=Scale.METROPOLITAN
        )
        world = World.from_areas((left, right), 500.0)
        assert label_point(world, 0.0, 0.0) == 0
        assert label_points(world, np.array([0.0]), np.array([0.0]))[0] == 0
        assert label_corpus(world, np.array([0.0]), np.array([0.0]))[0] == 0

    def test_outside_every_disc_is_minus_one(self):
        # The middle of the Indian Ocean is outside every 50 km disc.
        assert label_point(WORLD, -30.0, 80.0) == -1
        labels = label_points(WORLD, np.array([-30.0]), np.array([80.0]))
        assert labels[0] == -1

    def test_containing_areas_vs_membership_matrix(self):
        lats, lons = _scatter(100, seed=5)
        membership = membership_points(WORLD, lats, lons)
        for row, (lat, lon) in enumerate(zip(lats, lons)):
            per_point = containing_areas(WORLD, float(lat), float(lon))
            assert np.array_equal(np.nonzero(membership[row])[0], per_point)

    def test_count_population_counts_overlaps_independently(self):
        # Two coincident discs: every tweet counts toward both.
        a = Area(name="a", center=Coordinate(0.0, 0.0), population=1, scale=Scale.METROPOLITAN)
        b = Area(name="b", center=Coordinate(0.0, 0.0), population=1, scale=Scale.METROPOLITAN)
        world = World.from_areas((a, b), 10.0)
        lats = np.zeros(4)
        lons = np.zeros(4)
        users = np.array([1, 1, 2, 3])
        tweets, unique = count_population(world, lats, lons, users)
        assert np.array_equal(tweets, [4, 4])
        assert np.array_equal(unique, [3, 3])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            label_points(WORLD, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="different point set"):
            lats, lons = _scatter(10)
            label_corpus(WORLD, lats, lons, index=BruteForceIndex(lats[:5], lons[:5]))
