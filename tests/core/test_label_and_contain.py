"""Equivalence suite: the single-pass ingest kernel vs the reference kernels.

:func:`repro.core.label.label_and_contain` returns, from one distance
pass, the nearest label of every point and its CSR ε-disc containment.
The contract is *bitwise* agreement with the two reference kernels it
replaces on the ingest path:

* ``labels`` equal :func:`label_points_dense` (the masked argmin);
* ``(indptr, indices)`` equal ``np.nonzero(membership_points(...))``.

Worlds sit on both sides of :data:`DENSE_AREA_THRESHOLD` — the legacy
20-area scales (dense path) and the metropolitan scales of ``synth:300``
and ``synth:1000`` (grid path) — and the cases include points exactly ε
from a centre, points inside overlapping discs, points outside the grid
index's box, an empty batch and a zero-area world.  The broadcast
distance matrix both paths rest on is pinned against the single-centre
haversine column by column.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import (
    DENSE_AREA_THRESHOLD,
    DISTANCE_BLOCK,
    PointLabels,
    label_and_contain,
    label_points_dense,
    membership_points,
    point_area_distances,
)
from repro.core.world import World
from repro.data.gazetteer import Area, Scale
from repro.data.schema import Tweet, TweetBatch
from repro.geo.bbox import AUSTRALIA_BBOX
from repro.geo.coords import Coordinate
from repro.geo.distance import destination_point, points_to_point_km

#: (gazetteer, scale) pairs; ``None`` is the legacy 20-area gazetteer.
WORLDS = [
    (None, Scale.NATIONAL),
    (None, Scale.METROPOLITAN),
    ("synth:300", Scale.STATE),
    ("synth:300", Scale.METROPOLITAN),
    ("synth:1000", Scale.METROPOLITAN),
]


@lru_cache(maxsize=None)
def world_for(gazetteer: str | None, scale: Scale) -> World:
    return World.from_scale(scale, gazetteer=gazetteer)


def assert_matches_reference(world: World, lats, lons) -> PointLabels:
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    result = label_and_contain(world, lats, lons)
    assert np.array_equal(result.labels, label_points_dense(world, lats, lons))
    rows, cols = np.nonzero(membership_points(world, lats, lons))
    assert result.indptr.shape == (lats.size + 1,)
    assert np.array_equal(result.indices, cols)
    assert np.array_equal(np.repeat(np.arange(lats.size), np.diff(result.indptr)), rows)
    return result


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
world_strategy = st.sampled_from(WORLDS)


class TestWorldsStraddleTheThreshold:
    def test_both_paths_are_exercised(self):
        sizes = {world_for(*spec).n_areas for spec in WORLDS}
        assert min(sizes) <= DENSE_AREA_THRESHOLD < max(sizes)


class TestEquivalence:
    @given(
        spec=world_strategy,
        points=st.lists(st.tuples(lat_strategy, lon_strategy), max_size=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_points(self, spec, points):
        world = world_for(*spec)
        assert_matches_reference(
            world, [p[0] for p in points], [p[1] for p in points]
        )

    @given(
        spec=world_strategy,
        picks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.floats(min_value=0.0, max_value=360.0),
                st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 1.5]),
            ),
            min_size=1,
            max_size=32,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_points_at_the_epsilon_boundary(self, spec, picks):
        """Points at, just inside and just outside ε from real centres."""
        world = world_for(*spec)
        points = [
            destination_point(
                world.areas[area % world.n_areas].center,
                bearing,
                world.radius_km * fraction,
            )
            for area, bearing, fraction in picks
        ]
        assert_matches_reference(
            world, [p.lat for p in points], [p.lon for p in points]
        )

    @given(
        spec=world_strategy,
        area=st.integers(min_value=0, max_value=10_000),
        bearing=st.floats(min_value=0.0, max_value=360.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_points_exactly_epsilon_from_a_centre(self, spec, area, bearing):
        """ε set to the point's exact distance: the boundary is inclusive."""
        base = world_for(*spec)
        index = area % base.n_areas
        center = base.areas[index].center
        point = destination_point(center, bearing, base.radius_km)
        exact = float(
            points_to_point_km(np.array([point.lat]), np.array([point.lon]), center)[0]
        )
        world = base.with_radius(exact)
        result = assert_matches_reference(world, [point.lat], [point.lon])
        assert index in result.indices[result.indptr[0] : result.indptr[1]].tolist()

    @given(
        spec=world_strategy,
        area=st.integers(min_value=0, max_value=10_000),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_between_near_centres(self, spec, area, share):
        """Points on the segment to the nearest other centre (overlaps)."""
        world = world_for(*spec)
        i = area % world.n_areas
        gaps = world.distance_matrix_km[i].copy()
        gaps[i] = np.inf
        j = int(np.argmin(gaps))
        lat = world.centers_lat[i] + share * (world.centers_lat[j] - world.centers_lat[i])
        lon = world.centers_lon[i] + share * (world.centers_lon[j] - world.centers_lon[i])
        assert_matches_reference(world, [lat], [lon])

    @pytest.mark.parametrize("spec", WORLDS)
    def test_overlapping_discs_report_every_container(self, spec):
        world = world_for(*spec)
        gaps = world.distance_matrix_km + np.diag(np.full(world.n_areas, np.inf))
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        midpoint_lat = (world.centers_lat[i] + world.centers_lat[j]) / 2.0
        midpoint_lon = (world.centers_lon[i] + world.centers_lon[j]) / 2.0
        result = assert_matches_reference(world, [midpoint_lat], [midpoint_lon])
        if gaps[i, j] < world.radius_km:
            assert {int(i), int(j)} <= set(result.indices.tolist())

    @pytest.mark.parametrize("spec", WORLDS)
    def test_centres_and_points_outside_the_grid_box(self, spec):
        world = world_for(*spec)
        far = np.array([0.0, -89.0, 60.0, AUSTRALIA_BBOX.min_lat - 30.0])
        lats = np.concatenate([world.centers_lat, far])
        lons = np.concatenate([world.centers_lon, [0.0, 10.0, -120.0, 100.0]])
        result = assert_matches_reference(world, lats, lons)
        tail = slice(world.n_areas, None)
        assert np.all(result.labels[tail] == -1)
        assert np.all(np.diff(result.indptr)[tail] == 0)

    @pytest.mark.parametrize("spec", WORLDS)
    def test_empty_batch(self, spec):
        result = assert_matches_reference(world_for(*spec), [], [])
        assert len(result) == 0
        assert result.indptr.tolist() == [0]

    def test_zero_area_world(self):
        world = World(areas=(), radius_km=50.0)
        result = label_and_contain(world, np.array([-33.0, 0.0]), np.array([151.0, 0.0]))
        assert result.labels.tolist() == [-1, -1]
        assert result.indptr.tolist() == [0, 0, 0]
        assert result.indices.size == 0


class TestBroadcastDistances:
    @given(
        spec=world_strategy,
        points=st.lists(st.tuples(lat_strategy, lon_strategy), min_size=1, max_size=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_equal_single_centre_haversine(self, spec, points):
        world = world_for(*spec)
        lats = np.array([p[0] for p in points])
        lons = np.array([p[1] for p in points])
        matrix = point_area_distances(world, lats, lons)
        for j, area in enumerate(world.areas):
            column = points_to_point_km(lats, lons, (area.center.lat, area.center.lon))
            assert np.array_equal(matrix[:, j], column)

    @pytest.mark.parametrize("spec", [(None, Scale.NATIONAL), ("synth:300", Scale.STATE)])
    def test_kernel_blocks_join_seamlessly(self, spec):
        """A batch spanning several dense row blocks labels as one."""
        world = world_for(*spec)
        rows = DISTANCE_BLOCK // world.n_areas
        rng = np.random.default_rng(9)
        n = 2 * rows + 5
        k = rng.integers(0, world.n_areas, n)
        lats = world.centers_lat[k] + rng.normal(0.0, world.radius_km / 111.0, n)
        lons = world.centers_lon[k] + rng.normal(0.0, world.radius_km / 111.0, n)
        result = assert_matches_reference(world, lats, lons)
        assert (result.labels >= 0).any() and (result.labels < 0).any()

    def test_distance_blocks_join_seamlessly(self):
        world = world_for("synth:1000", Scale.METROPOLITAN)
        rows = DISTANCE_BLOCK // world.n_areas
        rng = np.random.default_rng(5)
        n = 2 * rows + 3
        lats = rng.uniform(-40.0, -12.0, n)
        lons = rng.uniform(115.0, 152.0, n)
        matrix = point_area_distances(world, lats, lons)
        for j in (0, world.n_areas // 2, world.n_areas - 1):
            center = world.areas[j].center
            assert np.array_equal(
                matrix[:, j], points_to_point_km(lats, lons, (center.lat, center.lon))
            )


class TestLabelTweetBatch:
    def test_sorts_by_time_and_labels_rows_in_that_order(self):
        world = world_for(None, Scale.NATIONAL)
        tweets = [
            Tweet(user_id=i, timestamp=float(ts), lat=float(world.centers_lat[a]),
                  lon=float(world.centers_lon[a]))
            for i, (ts, a) in enumerate([(30, 2), (10, 0), (20, 1), (10, 3)])
        ]
        ordered = TweetBatch.from_tweets(tweets)
        labelled = label_and_contain(world, ordered.lats, ordered.lons)
        assert ordered.timestamps.tolist() == [10.0, 10.0, 20.0, 30.0]
        # Stable: equal timestamps keep arrival order.
        assert ordered.user_ids.tolist() == [1, 3, 2, 0]
        assert labelled.labels.tolist() == [0, 3, 1, 2]


def antimeridian_world(n_areas: int = 200, radius_km: float = 8.0) -> World:
    """A row of discs centred at 179.95°E, 0.05° of latitude apart."""
    areas = [
        Area(
            name=f"a{k}",
            center=Coordinate(lat=-17.0 + 0.05 * k, lon=179.95),
            population=1000,
            scale=Scale.METROPOLITAN,
        )
        for k in range(n_areas)
    ]
    return World.from_areas(areas, radius_km=radius_km)


class TestAntimeridian:
    """A country-scale world whose discs straddle ±180° (grid path)."""

    def test_points_across_the_antimeridian_find_their_centres(self):
        world = antimeridian_world()
        assert world.n_areas > DENSE_AREA_THRESHOLD
        # Each point is ~6.4 km east of its row's centre, across ±180°.
        lons = np.full(world.n_areas, -179.99)
        result = assert_matches_reference(world, world.centers_lat, lons)
        assert result.labels.tolist() == list(range(world.n_areas))
        assert np.all(np.diff(result.indptr) >= 1)

    def test_points_on_both_sides_match_the_dense_reference(self):
        world = antimeridian_world()
        rng = np.random.default_rng(7)
        lats = rng.uniform(-17.2, -6.8, size=400)
        lons = np.concatenate(
            [rng.uniform(179.8, 180.0, size=200), rng.uniform(-180.0, -179.9, size=200)]
        )
        result = assert_matches_reference(world, lats, lons)
        assert (result.labels[200:] >= 0).sum() >= 40
