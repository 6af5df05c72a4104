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

import repro.geo.index as index_module
from repro.core.label import (
    DENSE_AREA_THRESHOLD,
    DISTANCE_BLOCK,
    label_point,
    label_points,
    label_points_dense,
    membership_points,
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


def assert_csr_equivalent(world: World, lats, lons) -> tuple[np.ndarray, ...]:
    """``(labels, indptr, indices)`` bitwise equal the dense reference."""
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    labels, indptr, indices = world.center_grid.label_and_contain(lats, lons)
    rows, cols = np.nonzero(membership_points(world, lats, lons))
    assert np.array_equal(labels, label_points_dense(world, lats, lons))
    assert indptr.dtype == indices.dtype == labels.dtype == np.int64
    assert np.array_equal(indptr[1:], np.cumsum(np.bincount(rows, minlength=lats.size)))
    assert indptr[0] == 0
    assert np.array_equal(indices, cols)
    return labels, indptr, indices


@pytest.fixture
def scored_blocks(monkeypatch):
    """The pair count of every block the pair scan scores, in order."""
    calls = []
    original = index_module._haversine

    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return original(*args, **kwargs)

    monkeypatch.setattr(index_module, "_haversine", counting)
    return calls


def two_cluster_world() -> World:
    """150 suburbs around Sydney and 150 around Perth at ε = 2 km: the
    grid box spans the continent, and most of its cells hold no disc."""
    rng = np.random.default_rng(21)
    areas = []
    for lat, lon in ((-33.87, 151.21), (-31.95, 115.86)):
        for _ in range(150):
            areas.append(
                Area(
                    name=f"s{len(areas)}",
                    center=Coordinate(
                        lat=lat + float(rng.normal(0.0, 0.1)),
                        lon=lon + float(rng.normal(0.0, 0.1)),
                    ),
                    population=100,
                    scale=Scale.METROPOLITAN,
                )
            )
    return World.from_areas(areas, radius_km=2.0)


def antimeridian_world() -> World:
    """Discs every 0.05° of latitude at 179.95°E and 179.97°W, ε = 8 km."""
    areas = [
        Area(
            name=f"a{k}",
            center=Coordinate(lat=-17.0 + 0.05 * (k // 2), lon=(179.95, -179.97)[k % 2]),
            population=1000,
            scale=Scale.METROPOLITAN,
        )
        for k in range(300)
    ]
    return World.from_areas(areas, radius_km=8.0)


class TestPairScanMatchesDense:
    """The pair scan's labels and CSR equal the dense reference bitwise."""

    def test_batch_spanning_several_pair_blocks(self, scored_blocks):
        world = two_cluster_world()
        rng = np.random.default_rng(31)
        n = 20_000
        k = rng.integers(0, world.n_areas, n)
        lats = world.centers_lat[k] + rng.normal(0.0, 0.02, n)
        lons = world.centers_lon[k] + rng.normal(0.0, 0.02, n)
        labels, _, _ = assert_csr_equivalent(world, lats, lons)
        assert len(scored_blocks) >= 2
        assert max(scored_blocks) <= 2 * DISTANCE_BLOCK
        assert sum(scored_blocks) > DISTANCE_BLOCK
        assert (labels >= 0).any() and (labels < 0).any()

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_tiny_blocks_join_seamlessly(self, monkeypatch, block):
        monkeypatch.setattr(index_module, "DISTANCE_BLOCK", block)
        world = two_cluster_world()
        rng = np.random.default_rng(block)
        k = rng.integers(0, world.n_areas, 200)
        lats = world.centers_lat[k] + rng.normal(0.0, 0.02, 200)
        lons = world.centers_lon[k] + rng.normal(0.0, 0.02, 200)
        labels, indptr, _ = assert_csr_equivalent(world, lats, lons)
        assert (labels >= 0).sum() > 50
        assert np.diff(indptr).max() >= 2  # overlapping discs

    def test_points_in_cells_no_disc_reaches(self, scored_blocks):
        world = two_cluster_world()
        grid = world.center_grid
        spec = grid.spec
        assert grid.n_cells_occupied < spec.n_rows * spec.n_cols
        rng = np.random.default_rng(32)
        lats = np.concatenate(
            [rng.uniform(spec.bbox.min_lat, spec.bbox.max_lat, 500), world.centers_lat[:20]]
        )
        lons = np.concatenate(
            [rng.uniform(spec.bbox.min_lon, spec.bbox.max_lon, 500), world.centers_lon[:20]]
        )
        cells = spec.cells_of(lats, lons)
        cell_ids = cells[:, 0] * spec.n_cols + cells[:, 1]
        empty = ~np.isin(cell_ids, grid._cell_ids)
        assert empty[:500].sum() > 400 and not empty[500:].any()
        labels, indptr, _ = assert_csr_equivalent(world, lats, lons)
        assert np.all(labels[empty] == -1)
        assert np.all(np.diff(indptr)[empty] == 0)
        assert np.all(labels[500:] >= 0)
        # Only points in occupied cells were scored.
        assert scored_blocks == [int(np.diff(grid._cell_indptr)[
            np.searchsorted(grid._cell_ids, cell_ids[~empty])
        ].sum())]

    def test_points_outside_the_grid_box(self):
        world = two_cluster_world()
        box = world.center_grid.spec.bbox
        eps = 1e-9
        lats = np.array(
            [box.min_lat - eps, box.max_lat + eps, -33.87, -33.87, 0.0, -89.0, 89.0, -33.87]
        )
        lons = np.array(
            [151.21, 151.21, box.min_lon - eps, box.max_lon + eps, 0.0, 151.0, -170.0, 151.21]
        )
        labels, indptr, _ = assert_csr_equivalent(world, lats, lons)
        assert labels[:-1].tolist() == [-1] * 7
        assert indptr[7] == 0

    def test_batch_with_no_hits(self, scored_blocks):
        # Centres at (0, ±0.1), ε = 5 km: the first three points sit in
        # occupied cells ~6.3 km from the nearest centre, so pairs are
        # scored and none is within ε; the last is outside the box.
        world = TestPinnedCases()._two_centre_world(radius_km=5.0)
        lats = np.array([0.04, -0.04, 0.04, 30.0])
        lons = np.array([0.14, -0.14, -0.06, 0.0])
        labels, indptr, indices = assert_csr_equivalent(world, lats, lons)
        assert scored_blocks and scored_blocks[0] >= 3
        assert labels.tolist() == [-1] * 4
        assert indptr.tolist() == [0] * 5
        assert indices.size == 0
        assert assert_csr_equivalent(world, [], [])[1].tolist() == [0]

    def test_antimeridian_wrapping_world(self):
        world = antimeridian_world()
        grid = world.center_grid
        assert grid.spec.bbox.min_lon < -180.0 or grid.spec.bbox.max_lon > 180.0
        rng = np.random.default_rng(33)
        lats = rng.uniform(-17.2, -9.3, 600)
        lons = np.concatenate(
            [
                rng.uniform(179.8, 180.0, 200),
                rng.uniform(-180.0, -179.8, 200),
                rng.choice([180.0, -180.0, 179.95, -179.97], 200),
            ]
        )
        labels, indptr, _ = assert_csr_equivalent(world, lats, lons)
        assert (labels[200:400] >= 0).sum() > 50
        assert np.diff(indptr).max() >= 2


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
