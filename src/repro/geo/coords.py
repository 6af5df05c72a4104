"""Coordinate value type.

A :class:`Coordinate` is an immutable, validated (latitude, longitude)
pair in decimal degrees.  Latitude must lie in [-90, 90].  Longitude is
normalised into [-180, 180) so that coordinates compare consistently no
matter how the caller spelled them (e.g. 190°E == -170°W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


class CoordinateError(ValueError):
    """Raised when a latitude/longitude pair is not a valid position."""


def normalize_longitude(lon_deg: float) -> float:
    """Wrap a longitude in degrees into the half-open interval [-180, 180).

    >>> normalize_longitude(190.0)
    -170.0
    >>> normalize_longitude(-180.0)
    -180.0
    >>> normalize_longitude(360.0)
    0.0
    """
    wrapped = math.fmod(lon_deg + 180.0, 360.0)
    if wrapped < 0:
        wrapped += 360.0
    return wrapped - 180.0


def validate_latitude(lat_deg: float) -> float:
    """Return ``lat_deg`` unchanged if it is a valid latitude.

    Raises :class:`CoordinateError` for NaN, infinities, or values outside
    [-90, 90].
    """
    if not math.isfinite(lat_deg):
        raise CoordinateError(f"latitude must be finite, got {lat_deg!r}")
    if lat_deg < -90.0 or lat_deg > 90.0:
        raise CoordinateError(f"latitude must be in [-90, 90], got {lat_deg!r}")
    return float(lat_deg)


def validate_longitude(lon_deg: float) -> float:
    """Normalise and return a valid longitude, raising on non-finite input."""
    if not math.isfinite(lon_deg):
        raise CoordinateError(f"longitude must be finite, got {lon_deg!r}")
    return normalize_longitude(float(lon_deg))


@dataclass(frozen=True, slots=True)
class Coordinate:
    """An immutable WGS84-style position in decimal degrees.

    Attributes
    ----------
    lat:
        Latitude in [-90, 90].
    lon:
        Longitude, normalised to [-180, 180).
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lat", validate_latitude(self.lat))
        object.__setattr__(self, "lon", validate_longitude(self.lon))

    def __iter__(self) -> Iterator[float]:
        yield self.lat
        yield self.lon

    @property
    def lat_rad(self) -> float:
        """Latitude in radians."""
        return math.radians(self.lat)

    def __str__(self) -> str:
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.5f}{ns} {abs(self.lon):.5f}{ew}"
