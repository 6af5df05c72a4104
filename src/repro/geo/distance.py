"""Great-circle distances, bearings and destination points.

All functions accept either :class:`~repro.geo.coords.Coordinate` objects
or plain ``(lat, lon)`` degree pairs, and all distances are in kilometres
on a spherical Earth of radius :data:`EARTH_RADIUS_KM`.

Two distance formulas are provided:

* :func:`haversine_km` — the standard haversine great-circle distance,
  numerically stable for both antipodal and very close points.  This is
  the formula used everywhere correctness matters.
* :func:`equirectangular_km` — a fast planar approximation adequate for
  points a few tens of kilometres apart (the metropolitan scale in the
  paper).  Used by the spatial index for cheap candidate pruning.

Vectorised variants (:func:`points_to_point_km`,
:func:`points_to_points_km`, :func:`pairwise_distance_matrix`) operate on numpy arrays and are the
workhorses of the extraction pipelines, which must compute distances from
millions of tweets to area centres.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geo.coords import Coordinate

EARTH_RADIUS_KM = 6371.0088
"""Mean Earth radius (IUGG) in kilometres."""

_CoordLike = Coordinate | tuple[float, float]


def _latlon(point: _CoordLike) -> tuple[float, float]:
    """Extract ``(lat, lon)`` degrees from a coordinate-like value."""
    if isinstance(point, Coordinate):
        return point.lat, point.lon
    lat, lon = point
    return float(lat), float(lon)


def haversine_km(a: _CoordLike, b: _CoordLike) -> float:
    """Great-circle distance between two points in kilometres.

    >>> round(haversine_km((0.0, 0.0), (0.0, 1.0)), 1)
    111.2
    """
    lat1, lon1 = _latlon(a)
    lat2, lon2 = _latlon(b)
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    # Clamp against tiny negative rounding before sqrt, and >1 before asin.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def equirectangular_km(a: _CoordLike, b: _CoordLike) -> float:
    """Fast planar approximation of the distance between nearby points.

    Projects both points onto a plane tangent at their mean latitude.  The
    error relative to haversine is well under 1% for separations below
    ~100 km at Australian latitudes, which covers the paper's metropolitan
    and state search radii.
    """
    lat1, lon1 = _latlon(a)
    lat2, lon2 = _latlon(b)
    mean_lat = math.radians((lat1 + lat2) / 2.0)
    dlon = lon2 - lon1
    # Wrap the longitude delta so nearby points straddling the
    # antimeridian measure short, not almost-360-degrees apart.
    dlon = (dlon + 180.0) % 360.0 - 180.0
    dx = math.radians(dlon) * math.cos(mean_lat)
    dy = math.radians(lat2 - lat1)
    return EARTH_RADIUS_KM * math.hypot(dx, dy)


def bearing_deg(a: _CoordLike, b: _CoordLike) -> float:
    """Initial great-circle bearing from ``a`` to ``b`` in degrees [0, 360)."""
    lat1, lon1 = _latlon(a)
    lat2, lon2 = _latlon(b)
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlmb = math.radians(lon2 - lon1)
    y = math.sin(dlmb) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlmb)
    theta = math.degrees(math.atan2(y, x))
    return theta % 360.0


def destination_point(start: _CoordLike, bearing: float, distance_km: float) -> Coordinate:
    """Point reached travelling ``distance_km`` from ``start`` at ``bearing``.

    Used by the synthetic generator to scatter tweet positions around an
    area centre: draw a bearing and a radial distance, then land here.
    """
    lat1, lon1 = _latlon(start)
    phi1 = math.radians(lat1)
    lmb1 = math.radians(lon1)
    theta = math.radians(bearing)
    delta = distance_km / EARTH_RADIUS_KM
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * math.sin(phi2)
    lmb2 = lmb1 + math.atan2(y, x)
    return Coordinate(lat=math.degrees(phi2), lon=math.degrees(lmb2))


def points_to_point_km(
    lats_deg: np.ndarray, lons_deg: np.ndarray, center: _CoordLike
) -> np.ndarray:
    """Vectorised haversine from many points to one centre.

    Parameters
    ----------
    lats_deg, lons_deg:
        Arrays of equal shape holding point latitudes/longitudes in degrees.
    center:
        The single reference point.

    Returns
    -------
    numpy.ndarray
        Distances in kilometres, same shape as the inputs.
    """
    lats = np.asarray(lats_deg, dtype=np.float64)
    lons = np.asarray(lons_deg, dtype=np.float64)
    if lats.shape != lons.shape:
        raise ValueError(f"shape mismatch: lats {lats.shape} vs lons {lons.shape}")
    clat, clon = _latlon(center)
    phi1 = np.radians(lats)
    phi2 = math.radians(clat)
    dphi = np.radians(clat - lats)
    dlmb = np.radians(clon - lons)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * math.cos(phi2) * np.sin(dlmb / 2.0) ** 2
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def points_to_points_km(
    lats_deg: np.ndarray,
    lons_deg: np.ndarray,
    center_lats_deg: np.ndarray,
    center_lons_deg: np.ndarray,
) -> np.ndarray:
    """Vectorised haversine from many points to many centres.

    Returns the ``(n_points, n_centres)`` matrix whose column ``j`` is
    bitwise equal to ``points_to_point_km(lats, lons, centre_j)``: the
    same elementwise operations in the same order, broadcast over the
    centres instead of looped, with each centre's ``cos`` taken by
    :func:`math.cos` as the single-centre form does.
    """
    lats = np.asarray(lats_deg, dtype=np.float64)
    lons = np.asarray(lons_deg, dtype=np.float64)
    center_lats = np.asarray(center_lats_deg, dtype=np.float64)
    center_lons = np.asarray(center_lons_deg, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    if center_lats.shape != center_lons.shape or center_lats.ndim != 1:
        raise ValueError("centre lats/lons must be equal-length 1-D arrays")
    phi1 = np.radians(lats)[:, None]
    cos_phi2 = np.array(
        [math.cos(math.radians(lat)) for lat in center_lats.tolist()],
        dtype=np.float64,
    )
    dphi = np.radians(center_lats[None, :] - lats[:, None])
    dlmb = np.radians(center_lons[None, :] - lons[:, None])
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * cos_phi2 * np.sin(dlmb / 2.0) ** 2
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def consecutive_distances_km(lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
    """Haversine distances between consecutive rows of a trajectory.

    Given ``n`` positions returns ``n - 1`` hop lengths; an empty array for
    trajectories with fewer than two points.
    """
    lats = np.asarray(lats_deg, dtype=np.float64)
    lons = np.asarray(lons_deg, dtype=np.float64)
    if lats.shape != lons.shape:
        raise ValueError(f"shape mismatch: lats {lats.shape} vs lons {lons.shape}")
    if lats.size < 2:
        return np.empty(0, dtype=np.float64)
    phi = np.radians(lats)
    dphi = np.diff(phi)
    dlmb = np.radians(np.diff(lons))
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi[:-1]) * np.cos(phi[1:]) * np.sin(dlmb / 2.0) ** 2
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def pairwise_distance_matrix(points: Sequence[_CoordLike]) -> np.ndarray:
    """Symmetric haversine distance matrix for a list of points.

    The matrix has zeros on the diagonal.  With the paper's 20-area scales
    this is a 20x20 matrix; the implementation is fully vectorised so it
    also handles thousands of areas comfortably.
    """
    if len(points) == 0:
        return np.zeros((0, 0), dtype=np.float64)
    latlon = np.array([_latlon(p) for p in points], dtype=np.float64)
    phi = np.radians(latlon[:, 0])[:, None]
    lmb = np.radians(latlon[:, 1])[:, None]
    dphi = phi - phi.T
    dlmb = lmb - lmb.T
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi) * np.cos(phi.T) * np.sin(dlmb / 2.0) ** 2
    np.clip(h, 0.0, 1.0, out=h)
    matrix = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))
    np.fill_diagonal(matrix, 0.0)
    return matrix
