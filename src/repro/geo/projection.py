"""Local equirectangular projection.

For small-area work (the metropolitan scale of the paper, where areas are
a few kilometres apart) a planar approximation is accurate and much
cheaper than spherical trigonometry.  :class:`LocalProjection` maps
lat/lon to local ``(x, y)`` kilometres around a reference origin, with
the x-axis pointing east and the y-axis pointing north.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.coords import Coordinate
from repro.geo.distance import EARTH_RADIUS_KM


class LocalProjection:
    """Equirectangular projection centred on an origin coordinate.

    Distances computed in the projected plane agree with haversine to well
    under 1% within ~100 km of the origin at mid latitudes, degrading as
    points move away; use only for genuinely local geometry.
    """

    def __init__(self, origin: Coordinate | tuple[float, float]) -> None:
        if not isinstance(origin, Coordinate):
            origin = Coordinate(lat=float(origin[0]), lon=float(origin[1]))
        self.origin = origin
        self._cos_lat = math.cos(origin.lat_rad)
        self._km_per_deg = math.pi * EARTH_RADIUS_KM / 180.0

    def to_xy(self, lat: float, lon: float) -> tuple[float, float]:
        """Project a single point to local ``(x_km, y_km)``."""
        x = (lon - self.origin.lon) * self._km_per_deg * self._cos_lat
        y = (lat - self.origin.lat) * self._km_per_deg
        return x, y

    def to_xy_many(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
        """Vectorised projection returning an ``(n, 2)`` array of km."""
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        x = (lons - self.origin.lon) * self._km_per_deg * self._cos_lat
        y = (lats - self.origin.lat) * self._km_per_deg
        return np.stack([x, y], axis=-1)

    def to_latlon(self, x_km: float, y_km: float) -> Coordinate:
        """Inverse projection from local kilometres back to lat/lon."""
        lat = self.origin.lat + y_km / self._km_per_deg
        lon = self.origin.lon + x_km / (self._km_per_deg * self._cos_lat)
        return Coordinate(lat=lat, lon=lon)
