"""Tests for repro.geo.polygon."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coords import Coordinate
from repro.geo.distance import destination_point, haversine_km
from repro.geo.polygon import Polygon, regular_polygon

SYDNEY = Coordinate(lat=-33.8688, lon=151.2093)


class TestPolygonBasics:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0.0, 0.0), (0.0, 1.0)])

    def test_degenerate_collinear(self):
        with pytest.raises(ValueError):
            Polygon([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)])

    def test_triangle_area(self):
        # A right triangle with ~111 km legs at the equator.
        polygon = Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        km_per_deg = 111.195
        expected = km_per_deg * km_per_deg / 2.0
        assert polygon.area_km2 == pytest.approx(expected, rel=0.01)

    def test_area_independent_of_winding(self):
        cw = Polygon([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])
        ccw = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        assert cw.area_km2 == pytest.approx(ccw.area_km2)



class TestContainment:
    def test_center_inside(self):
        square = Polygon([(-1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (1.0, -1.0)])
        assert square.contains(0.0, 0.0)

    def test_outside(self):
        square = Polygon([(-1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (1.0, -1.0)])
        assert not square.contains(2.0, 0.0)
        assert not square.contains(0.0, -3.0)

    def test_concave_polygon(self):
        # A "C" shape: the notch must be outside.
        c_shape = Polygon(
            [
                (0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0),
                (1.0, 2.0), (3.0, 2.0), (3.0, 3.0), (0.0, 3.0),
            ]
        )
        assert c_shape.contains(0.5, 0.5)
        assert c_shape.contains(2.0, 0.5)
        assert not c_shape.contains(2.0, 1.5)  # inside the notch

    def test_contains_mask_matches_scalar(self):
        polygon = regular_polygon(SYDNEY, 10.0, n_vertices=7)
        rng = np.random.default_rng(0)
        lats = SYDNEY.lat + rng.uniform(-0.3, 0.3, 200)
        lons = SYDNEY.lon + rng.uniform(-0.3, 0.3, 200)
        mask = polygon.contains_mask(lats, lons)
        for i in range(200):
            assert mask[i] == polygon.contains(lats[i], lons[i])

    def test_shape_mismatch_raises(self):
        polygon = regular_polygon(SYDNEY, 5.0)
        with pytest.raises(ValueError):
            polygon.contains_mask(np.zeros(2), np.zeros(3))


class TestHalfOpenBoundaryRule:
    """Tiling polygons partition the plane: every boundary point has
    exactly one owner under the half-open rule (left/bottom edges in,
    right/top edges out).  The squares share bitwise-identical vertices
    and one projection anchor, so the rule is exercised exactly."""

    ANCHOR = (0.0, 0.0)

    def _square(self, lat0, lon0, size=1.0):
        return Polygon(
            [
                (lat0, lon0),
                (lat0, lon0 + size),
                (lat0 + size, lon0 + size),
                (lat0 + size, lon0),
            ],
            anchor=self.ANCHOR,
        )

    def test_shared_edge_single_ownership(self):
        left = self._square(0.0, -1.0)
        right = self._square(0.0, 0.0)
        # Points along the shared vertical edge lon=0 belong to exactly
        # one square (the one whose left edge it is).
        for lat in (0.0, 0.25, 0.5, 0.9999):
            owners = [p.contains(lat, 0.0) for p in (left, right)]
            assert sum(owners) == 1, f"lat={lat}: {owners}"
            assert right.contains(lat, 0.0)

    def test_shared_horizontal_edge_single_ownership(self):
        bottom = self._square(-1.0, 0.0)
        top = self._square(0.0, 0.0)
        for lon in (0.0, 0.25, 0.5, 0.9999):
            owners = [p.contains(0.0, lon) for p in (bottom, top)]
            assert sum(owners) == 1, f"lon={lon}: {owners}"
            assert top.contains(0.0, lon)

    def test_shared_vertex_single_ownership(self):
        # Four squares meeting at the origin: the vertex belongs to
        # exactly one — the square whose bottom-left corner it is.
        quads = [
            self._square(lat0, lon0)
            for lat0 in (-1.0, 0.0)
            for lon0 in (-1.0, 0.0)
        ]
        owners = [q.contains(0.0, 0.0) for q in quads]
        assert sum(owners) == 1, owners
        assert self._square(0.0, 0.0).contains(0.0, 0.0)

    def test_every_interior_point_of_a_2x2_tiling_owned_once(self):
        quads = [
            self._square(lat0, lon0)
            for lat0 in (-1.0, 0.0)
            for lon0 in (-1.0, 0.0)
        ]
        rng = np.random.default_rng(3)
        lats = rng.uniform(-0.999, 0.999, 300)
        lons = rng.uniform(-0.999, 0.999, 300)
        for lat, lon in zip(lats, lons):
            assert sum(q.contains(lat, lon) for q in quads) == 1

    def test_contains_mask_agrees_on_boundary(self):
        square = self._square(0.0, 0.0)
        lats = np.array([0.0, 0.0, 1.0, 0.5, 0.5])
        lons = np.array([0.0, 0.5, 0.5, 0.0, 1.0])
        mask = square.contains_mask(lats, lons)
        for i in range(lats.size):
            assert mask[i] == square.contains(lats[i], lons[i])

    def test_explicit_anchor_is_stored(self):
        square = self._square(0.0, 0.0)
        assert square.anchor is not None


class TestRegularPolygon:
    def test_vertices_at_circumradius(self):
        hexagon = regular_polygon(SYDNEY, 10.0, n_vertices=6)
        for lat, lon in zip(hexagon.vertex_lats, hexagon.vertex_lons):
            assert haversine_km(SYDNEY, (lat, lon)) == pytest.approx(10.0, rel=0.01)

    def test_centroid_at_center(self):
        hexagon = regular_polygon(SYDNEY, 10.0)
        center = (hexagon.vertex_lats.mean(), hexagon.vertex_lons.mean())
        assert haversine_km(SYDNEY, center) < 0.1

    def test_many_sided_polygon_approximates_disc(self):
        polygon = regular_polygon(SYDNEY, 10.0, n_vertices=64)
        disc_area = np.pi * 10.0**2
        assert polygon.area_km2 == pytest.approx(disc_area, rel=0.01)

    @given(
        st.floats(min_value=0.5, max_value=50.0),
        st.integers(min_value=3, max_value=20),
        st.floats(min_value=0, max_value=360),
    )
    @settings(max_examples=30)
    def test_contains_center_property(self, radius, n, rotation):
        polygon = regular_polygon(SYDNEY, radius, n_vertices=n, rotation_deg=rotation)
        assert polygon.contains(SYDNEY.lat, SYDNEY.lon)

    @given(st.floats(min_value=1.0, max_value=30.0), st.floats(min_value=0, max_value=360))
    @settings(max_examples=30)
    def test_interior_and_exterior_points(self, radius, bearing):
        hexagon = regular_polygon(SYDNEY, radius, n_vertices=6)
        # Inside the inscribed circle -> contained.
        inner = destination_point(SYDNEY, bearing, radius * 0.7)
        assert hexagon.contains(inner.lat, inner.lon)
        # Beyond the circumradius -> outside.
        outer = destination_point(SYDNEY, bearing, radius * 1.2)
        assert not hexagon.contains(outer.lat, outer.lon)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            regular_polygon(SYDNEY, 0.0)
        with pytest.raises(ValueError):
            regular_polygon(SYDNEY, 5.0, n_vertices=2)

