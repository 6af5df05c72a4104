"""Polygonal areas: point-in-polygon tests, centroids, hulls.

The paper extracts populations with ε-discs, but a production system
would use real administrative boundaries.  This module provides the
geometry: polygons in lat/lon space evaluated through a local
equirectangular projection (exact enough for administrative-area sizes),
with ray-casting containment, shoelace areas/centroids, regular-polygon
constructors and a convex hull.

The A11 ablation compares disc extraction against hexagonal-cell
extraction at the metropolitan scale.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geo.coords import Coordinate
from repro.geo.distance import EARTH_RADIUS_KM
from repro.geo.projection import LocalProjection


class Polygon:
    """A simple (non-self-intersecting) polygon in lat/lon space.

    Vertices are given in order (either winding); the polygon is closed
    implicitly.  All geometry is computed in a local equirectangular
    projection centred on the vertex mean, so polygons should stay
    within administrative-area scales (tens of kilometres).

    Polygons that tile a region (the synthetic gazetteer's Voronoi
    cells) must share one ``anchor``: containment is decided in the
    projected plane, so only a common frame makes the half-open
    boundary rule (see :meth:`contains`) consistent across neighbours —
    each boundary point then belongs to exactly one tile.
    """

    def __init__(
        self,
        vertices: Sequence[Coordinate | tuple[float, float]],
        anchor: Coordinate | tuple[float, float] | None = None,
    ) -> None:
        if len(vertices) < 3:
            raise ValueError(f"polygon needs >= 3 vertices, got {len(vertices)}")
        latlon = []
        for vertex in vertices:
            if isinstance(vertex, Coordinate):
                latlon.append((vertex.lat, vertex.lon))
            else:
                latlon.append((float(vertex[0]), float(vertex[1])))
        self.vertex_lats = np.array([p[0] for p in latlon])
        self.vertex_lons = np.array([p[1] for p in latlon])
        if anchor is None:
            anchor = Coordinate(
                lat=float(self.vertex_lats.mean()), lon=float(self.vertex_lons.mean())
            )
        elif not isinstance(anchor, Coordinate):
            anchor = Coordinate(lat=float(anchor[0]), lon=float(anchor[1]))
        self.anchor = anchor
        self._projection = LocalProjection(anchor)
        xy = self._projection.to_xy_many(self.vertex_lats, self.vertex_lons)
        self._x = xy[:, 0]
        self._y = xy[:, 1]
        # Shoelace cross terms, reused by area/centroid.
        x_next = np.roll(self._x, -1)
        y_next = np.roll(self._y, -1)
        self._cross = self._x * y_next - x_next * self._y
        if abs(self._cross.sum()) < 1e-12:
            raise ValueError("polygon is degenerate (zero area)")

    def __len__(self) -> int:
        return int(self.vertex_lats.size)

    @property
    def area_km2(self) -> float:
        """Enclosed area in square kilometres (always positive)."""
        return float(abs(self._cross.sum()) / 2.0)

    def contains(self, lat: float, lon: float) -> bool:
        """Ray-casting containment with a deterministic half-open edge rule.

        Each edge is half-open in the projected plane: the crossing test
        ``(y1 > py) != (y2 > py)`` counts an edge only when the point's
        y-coordinate lies in ``[min(y1, y2), max(y1, y2))``, and the
        strict ``px < x_at_py`` comparison puts points exactly on a
        non-horizontal edge *outside* while the region to that edge's
        left is *inside*.  Concretely: left and bottom boundaries are
        in, right and top boundaries (and points on horizontal top
        edges) are out.  When two polygons built with the same
        ``anchor`` share an edge, every point of that edge is therefore
        inside exactly one of them — tilings partition the plane with
        no doubly-owned and no orphaned boundary points.
        """
        return bool(self.contains_mask(np.array([lat]), np.array([lon]))[0])

    def contains_mask(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
        """Vectorised ray casting for many points (same rule as :meth:`contains`)."""
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        if lats.shape != lons.shape:
            raise ValueError("lats/lons must have the same shape")
        xy = self._projection.to_xy_many(lats, lons)
        px = xy[..., 0]
        py = xy[..., 1]
        inside = np.zeros(px.shape, dtype=bool)
        n = len(self)
        for i in range(n):
            x1, y1 = self._x[i], self._y[i]
            x2, y2 = self._x[(i + 1) % n], self._y[(i + 1) % n]
            crosses = (y1 > py) != (y2 > py)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_at_py = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (px < x_at_py)
        return inside


def regular_polygon(
    center: Coordinate | tuple[float, float],
    radius_km: float,
    n_vertices: int = 6,
    rotation_deg: float = 0.0,
) -> Polygon:
    """A regular n-gon of circumradius ``radius_km`` around a centre.

    The default hexagon is the standard cell shape for tiling a city.
    """
    if radius_km <= 0:
        raise ValueError("radius must be positive")
    if n_vertices < 3:
        raise ValueError("need at least 3 vertices")
    if isinstance(center, Coordinate):
        center_lat, center_lon = center.lat, center.lon
    else:
        center_lat, center_lon = center
    km_per_deg = math.pi * EARTH_RADIUS_KM / 180.0
    cos_lat = max(math.cos(math.radians(center_lat)), 1e-9)
    vertices = []
    for k in range(n_vertices):
        theta = math.radians(rotation_deg + 360.0 * k / n_vertices)
        dlat = radius_km * math.cos(theta) / km_per_deg
        dlon = radius_km * math.sin(theta) / (km_per_deg * cos_lat)
        vertices.append((center_lat + dlat, center_lon + dlon))
    return Polygon(vertices)

