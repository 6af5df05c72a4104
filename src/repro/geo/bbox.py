"""Axis-aligned bounding boxes in latitude/longitude space.

The paper filters its corpus to the Australian box
``[112.921112, 159.278717]`` longitude × ``[-54.640301, -9.228820]``
latitude (Table I).  :data:`AUSTRALIA_BBOX` reproduces exactly that box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.coords import Coordinate


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A closed lat/lon box ``[min_lat, max_lat] x [min_lon, max_lon]``.

    Longitudes are treated as plain numbers (no dateline wrapping): the
    paper's Australian box does not cross the antimeridian and neither do
    any boxes this library constructs.
    """

    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self) -> None:
        if self.min_lat > self.max_lat:
            raise ValueError(f"min_lat {self.min_lat} > max_lat {self.max_lat}")
        if self.min_lon > self.max_lon:
            raise ValueError(f"min_lon {self.min_lon} > max_lon {self.max_lon}")

    def contains(self, point: Coordinate | tuple[float, float]) -> bool:
        """Whether a point lies inside the box (boundary inclusive)."""
        if isinstance(point, Coordinate):
            lat, lon = point.lat, point.lon
        else:
            lat, lon = point
        return self.min_lat <= lat <= self.max_lat and self.min_lon <= lon <= self.max_lon

    def contains_mask(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
        """Vectorised membership test returning a boolean mask."""
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        return (
            (lats >= self.min_lat)
            & (lats <= self.max_lat)
            & (lons >= self.min_lon)
            & (lons <= self.max_lon)
        )

    @property
    def center(self) -> Coordinate:
        """The geometric centre of the box."""
        return Coordinate(
            lat=(self.min_lat + self.max_lat) / 2.0,
            lon=(self.min_lon + self.max_lon) / 2.0,
        )

    @property
    def lat_span(self) -> float:
        """Height of the box in degrees of latitude."""
        return self.max_lat - self.min_lat

    @property
    def lon_span(self) -> float:
        """Width of the box in degrees of longitude."""
        return self.max_lon - self.min_lon

    def expanded(self, margin_deg: float) -> "BoundingBox":
        """A copy grown by ``margin_deg`` on every side (lat clamped to ±90)."""
        if margin_deg < 0:
            raise ValueError(f"margin must be non-negative, got {margin_deg}")
        return BoundingBox(
            min_lat=max(-90.0, self.min_lat - margin_deg),
            max_lat=min(90.0, self.max_lat + margin_deg),
            min_lon=self.min_lon - margin_deg,
            max_lon=self.max_lon + margin_deg,
        )


AUSTRALIA_BBOX = BoundingBox(
    min_lat=-54.640301,
    max_lat=-9.228820,
    min_lon=112.921112,
    max_lon=159.278717,
)
"""The exact collection box from Table I of the paper."""
