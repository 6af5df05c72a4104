"""Equivalence suite: the grid labelling index vs the dense reference.

The acceptance contract of :class:`repro.geo.index.CenterGridIndex` is
*exact* agreement with the dense masked-argmin kernel — same winner,
same first-minimum tie-break, same outside-ε misses — at every paper
radius (ε ∈ {2, 25, 50} km), including points sitting exactly on grid
cell edges and exactly at distance ε from a centre.  The suite checks
it with hypothesis-driven point clouds over synthetic worlds and with
hand-pinned adversarial cases, and also proves that a point
:class:`GridIndex` over a country-scale world's centres answers radius
queries like brute force.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import (
    DENSE_AREA_THRESHOLD,
    label_point,
    label_points,
    label_points_dense,
)
from repro.core.world import World
from repro.data.gazetteer import Area, Scale, gazetteer_from_spec
from repro.geo.bbox import AUSTRALIA_BBOX
from repro.geo.coords import Coordinate
from repro.geo.distance import destination_point
from repro.geo.index import BruteForceIndex, CenterGridIndex, GridIndex

#: One synthetic world per paper scale; 300 leaves keeps builds fast
#: while exceeding :data:`DENSE_AREA_THRESHOLD` at the metro scale.
GAZETTEER = "synth:300@5"

#: ε per scale, as Section III fixes them.
RADII = {Scale.NATIONAL: 50.0, Scale.STATE: 25.0, Scale.METROPOLITAN: 2.0}


@lru_cache(maxsize=None)
def world_for(scale: Scale, gazetteer: str | None = GAZETTEER) -> World:
    return World.from_scale(scale, gazetteer=gazetteer)


lat_strategy = st.floats(
    min_value=AUSTRALIA_BBOX.min_lat - 1.0,
    max_value=AUSTRALIA_BBOX.max_lat + 1.0,
    allow_nan=False,
    allow_infinity=False,
)
lon_strategy = st.floats(
    min_value=AUSTRALIA_BBOX.min_lon - 1.0,
    max_value=AUSTRALIA_BBOX.max_lon + 1.0,
    allow_nan=False,
    allow_infinity=False,
)
points_strategy = st.lists(
    st.tuples(lat_strategy, lon_strategy), min_size=1, max_size=64
)


def grid_labels(grid: CenterGridIndex, lats, lons) -> np.ndarray:
    """The nearest-centre labels of the grid's candidate scan."""
    return grid.label_and_contain(np.asarray(lats, float), np.asarray(lons, float))[0]


def assert_equivalent(world: World, lats: np.ndarray, lons: np.ndarray) -> None:
    """Grid labelling must match the dense reference element-for-element."""
    grid = grid_labels(world.center_grid, lats, lons)
    dense = label_points_dense(world, lats, lons)
    assert np.array_equal(grid, dense), (
        f"grid/dense disagree at ε={world.radius_km}: "
        f"{grid.tolist()} != {dense.tolist()}"
    )


class TestGridDenseEquivalence:
    @given(points=points_strategy, scale=st.sampled_from(list(Scale)))
    @settings(max_examples=60, deadline=None)
    def test_random_points_every_radius(self, points, scale):
        world = world_for(scale)
        assert world.radius_km == RADII[scale]
        lats = np.array([p[0] for p in points])
        lons = np.array([p[1] for p in points])
        assert_equivalent(world, lats, lons)

    @given(
        area=st.integers(min_value=0, max_value=299),
        bearing=st.floats(min_value=0.0, max_value=360.0),
        fraction=st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 1.5]),
        scale=st.sampled_from(list(Scale)),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_near_the_epsilon_boundary(self, area, bearing, fraction, scale):
        """Points at, just inside and just outside ε from a real centre."""
        world = world_for(scale)
        center = world.areas[area % world.n_areas].center
        point = destination_point(center, bearing, world.radius_km * fraction)
        assert_equivalent(
            world, np.array([point.lat]), np.array([point.lon])
        )

    @given(
        row=st.integers(min_value=0, max_value=10_000),
        col=st.integers(min_value=0, max_value=10_000),
        scale=st.sampled_from(list(Scale)),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_on_grid_cell_edges(self, row, col, scale):
        """Points exactly on the index's own cell boundary lines."""
        world = world_for(scale)
        spec = world.center_grid.spec
        lat = spec.bbox.min_lat + (row % (spec.n_rows + 1)) * spec.cell_height_deg
        lon = spec.bbox.min_lon + (col % (spec.n_cols + 1)) * spec.cell_width_deg
        assert_equivalent(world, np.array([lat]), np.array([lon]))

    def test_centres_label_to_themselves(self):
        for scale in Scale:
            world = world_for(scale)
            labels = grid_labels(
                world.center_grid, world.centers_lat, world.centers_lon
            )
            dense = label_points_dense(world, world.centers_lat, world.centers_lon)
            assert np.array_equal(labels, dense)
            # A centre is distance 0 from itself; some other centre can
            # only tie, and ties break to the earlier index.
            assert np.all(labels <= np.arange(world.n_areas))

    def test_legacy_world_unaffected_and_equivalent(self):
        world = world_for(Scale.NATIONAL, gazetteer=None)
        assert world.n_areas <= DENSE_AREA_THRESHOLD
        rng = np.random.default_rng(11)
        lats = rng.uniform(-45.0, -10.0, 500)
        lons = rng.uniform(112.0, 155.0, 500)
        assert np.array_equal(
            label_points(world, lats, lons),
            label_points_dense(world, lats, lons),
        )
        assert_equivalent(world, lats, lons)

    def test_large_world_dispatch_routes_through_grid(self):
        world = world_for(Scale.METROPOLITAN)
        assert world.n_areas > DENSE_AREA_THRESHOLD
        rng = np.random.default_rng(12)
        lats = rng.uniform(-45.0, -10.0, 2000)
        lons = rng.uniform(112.0, 155.0, 2000)
        assert np.array_equal(
            label_points(world, lats, lons),
            label_points_dense(world, lats, lons),
        )

    def test_label_point_matches_batch(self):
        for scale in Scale:
            world = world_for(scale)
            for area in (0, world.n_areas // 2, world.n_areas - 1):
                center = world.areas[area].center
                scalar = label_point(world, center.lat, center.lon)
                batch = label_points(
                    world, np.array([center.lat]), np.array([center.lon])
                )
                assert scalar == int(batch[0])


class TestPinnedCases:
    def _two_centre_world(self, radius_km: float = 50.0) -> World:
        areas = (
            Area(
                name="west",
                center=Coordinate(lat=0.0, lon=-0.1),
                population=10,
                scale=Scale.NATIONAL,
            ),
            Area(
                name="east",
                center=Coordinate(lat=0.0, lon=0.1),
                population=10,
                scale=Scale.NATIONAL,
            ),
        )
        return World.from_areas(areas, radius_km)

    def test_exact_tie_breaks_to_lower_index(self):
        world = self._two_centre_world()
        grid = CenterGridIndex(world.centers_lat, world.centers_lon, world.radius_km)
        # (0, 0) is bitwise equidistant from the mirrored centres.
        assert grid_labels(grid, [0.0], [0.0])[0] == 0
        assert label_points_dense(world, np.zeros(1), np.zeros(1))[0] == 0

    def test_outside_epsilon_is_minus_one(self):
        world = self._two_centre_world(radius_km=5.0)
        grid = CenterGridIndex(world.centers_lat, world.centers_lon, world.radius_km)
        assert grid_labels(grid, [3.0], [0.0])[0] == -1
        assert grid_labels(grid, [0.0], [0.1])[0] == 1

    def test_point_far_outside_grid_box_short_circuits(self):
        world = self._two_centre_world(radius_km=5.0)
        grid = CenterGridIndex(world.centers_lat, world.centers_lon, world.radius_km)
        labels = grid_labels(grid, [80.0, -80.0], [170.0, -170.0])
        assert labels.tolist() == [-1, -1]


class TestCentersIndexUpgrade:
    def test_grid_and_brute_force_answer_identically(self):
        """A point grid over 2500+ clustered centres answers like brute force."""
        world = World.from_scale(
            Scale.METROPOLITAN, gazetteer="synth:2500@5"
        )
        grid = GridIndex(world.centers_lat, world.centers_lon)
        brute = BruteForceIndex(world.centers_lat, world.centers_lon)
        rng = np.random.default_rng(13)
        for _ in range(25):
            center = (
                float(rng.uniform(-45.0, -10.0)),
                float(rng.uniform(112.0, 155.0)),
            )
            radius = float(rng.uniform(0.5, 120.0))
            got = grid.query_radius(center, radius)
            want = brute.query_radius(center, radius)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.distances_km, want.distances_km)


class TestLegacyNeverRoutesThroughGenerator:
    def test_legacy_paths_never_import_or_call_the_generator(self, monkeypatch):
        """The paper's worlds must not depend on the synthesiser at all."""
        import repro.geo.gazetteer as generator

        def _boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("legacy path reached the gazetteer generator")

        monkeypatch.setattr(generator, "build_gazetteer", _boom)
        monkeypatch.setattr(generator, "cached_gazetteer", _boom)

        for spec in (None, "", "legacy"):
            assert gazetteer_from_spec(spec).is_legacy
        for scale in Scale:
            world = World.from_scale(scale)
            assert world.n_areas == 20
            assert not world.has_footprints

    def test_legacy_synth_config_never_touches_generator(self, monkeypatch):
        import repro.geo.gazetteer as generator
        from repro.synth.config import SynthConfig

        def _boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("legacy config reached the gazetteer generator")

        monkeypatch.setattr(generator, "parse_gazetteer_spec", _boom)
        config = SynthConfig(n_users=10)
        assert config.gazetteer == "legacy"

    def test_synth_spec_does_use_generator(self):
        gazetteer = gazetteer_from_spec("synth:60@7")
        assert not gazetteer.is_legacy
        assert gazetteer.n_areas >= 60
        with pytest.raises(Exception):
            gazetteer_from_spec("synth:nope")
