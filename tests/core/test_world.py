"""World: the canonical area system and its cached geometry."""

import numpy as np
import pytest

from repro.core.world import World
from repro.data.gazetteer import Scale, areas_for_scale, search_radius_km
from repro.geo.distance import pairwise_distance_matrix


class TestConstruction:
    def test_from_scale_uses_paper_radius(self):
        for scale in Scale:
            world = World.from_scale(scale)
            assert world.radius_km == search_radius_km(scale)
            assert world.areas == areas_for_scale(scale)

    def test_from_scale_radius_override(self):
        world = World.from_scale(Scale.METROPOLITAN, radius_km=0.5)
        assert world.radius_km == 0.5

    def test_from_areas_coerces_to_tuple(self):
        areas = list(areas_for_scale(Scale.NATIONAL))
        world = World.from_areas(areas, 50.0)
        assert isinstance(world.areas, tuple)
        assert len(world) == len(areas)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_rejects_non_positive_radius(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            World.from_areas(areas_for_scale(Scale.NATIONAL), radius)

    def test_with_radius_same_value_is_identity(self):
        world = World.from_scale(Scale.NATIONAL)
        assert world.with_radius(world.radius_km) is world

    def test_with_radius_shares_areas(self):
        world = World.from_scale(Scale.NATIONAL)
        smaller = world.with_radius(10.0)
        assert smaller.radius_km == 10.0
        assert smaller.areas is world.areas


class TestDerivedGeometry:
    @pytest.fixture(scope="class")
    def world(self):
        return World.from_scale(Scale.NATIONAL)

    def test_center_columns_align_with_areas(self, world):
        for i, area in enumerate(world.areas):
            assert world.centers_lat[i] == area.center.lat
            assert world.centers_lon[i] == area.center.lon

    def test_populations_align_with_areas(self, world):
        assert np.array_equal(
            world.populations,
            np.array([a.population for a in world.areas], dtype=np.float64),
        )

    def test_distance_matrix_matches_gazetteer(self, world):
        assert np.array_equal(
            world.distance_matrix_km,
            pairwise_distance_matrix([a.center for a in areas_for_scale(Scale.NATIONAL)]),
        )

    def test_distance_matrix_is_cached(self, world):
        assert world.distance_matrix_km is world.distance_matrix_km

    def test_names_and_area_index(self, world):
        assert world.names == tuple(a.name for a in world.areas)
        assert world.area_index(world.areas[3].name.upper()) == 3
        assert world.area_index("nowhere-at-all") == -1
