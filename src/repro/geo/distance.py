"""Great-circle distances and destination points.

All functions accept either :class:`~repro.geo.coords.Coordinate` objects
or plain ``(lat, lon)`` degree pairs, and all distances are in kilometres
on a spherical Earth of radius :data:`EARTH_RADIUS_KM`.

:func:`haversine_km` is the standard haversine great-circle distance,
numerically stable for both antipodal and very close points.

Vectorised variants (:func:`points_to_point_km`,
:func:`pairwise_distance_matrix`, :func:`pair_distances_km`) operate on
numpy arrays and are the workhorses of the extraction pipelines, which
must compute distances from millions of tweets to area centres.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geo.coords import Coordinate

EARTH_RADIUS_KM = 6371.0088
"""Mean Earth radius (IUGG) in kilometres."""

_CoordLike = Coordinate | tuple[float, float]

#: Entries per block of a blocked distance computation (the dense
#: labelling matrix's rows, the centre grid's point-centre pairs): it
#: bounds the temporaries to a few float64 arrays of this length.
DISTANCE_BLOCK = 1 << 16


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


def cos_latitudes(lats_deg: np.ndarray) -> np.ndarray:
    """``math.cos(math.radians(lat))`` of each latitude, as float64.

    The centre cosines :func:`_haversine` takes, computed per centre by
    :func:`math.cos` as :func:`points_to_point_km` computes its one
    centre's.
    """
    return np.array(
        [math.cos(math.radians(lat)) for lat in np.asarray(lats_deg).tolist()],
        dtype=np.float64,
    )


def _haversine(
    lats: np.ndarray,
    lons: np.ndarray,
    center_lats: np.ndarray | float,
    center_lons: np.ndarray | float,
    cos_center_lats: np.ndarray | float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Haversine kilometres from points to centres, elementwise.

    The one copy of the vectorised formula behind
    :func:`points_to_point_km`, the dense labelling matrix
    (:func:`repro.core.label.point_area_distances`) and
    :class:`~repro.geo.index.CenterGridIndex`'s pair scan.  Point and
    centre degrees broadcast against each other; ``cos_center_lats``
    holds each centre's ``math.cos(math.radians(lat))``
    (:func:`cos_latitudes`).  Every caller runs the same elementwise
    operations in the same order on the same values, so any two of
    them agree *bitwise* on a (point, centre) pair.  The intermediates
    are computed in place in three buffers, the first of which is
    ``out`` when given.
    """
    h = np.subtract(center_lats, lats, out=out)
    np.radians(h, out=h)
    h /= 2.0
    np.sin(h, out=h)
    np.square(h, out=h)
    term = np.multiply(np.cos(np.radians(lats)), cos_center_lats)
    dlmb = np.subtract(center_lons, lons)
    np.radians(dlmb, out=dlmb)
    dlmb /= 2.0
    np.sin(dlmb, out=dlmb)
    np.square(dlmb, out=dlmb)
    term *= dlmb
    h += term
    np.clip(h, 0.0, 1.0, out=h)
    np.sqrt(h, out=h)
    np.arcsin(h, out=h)
    h *= 2.0 * EARTH_RADIUS_KM
    return h


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
    return _haversine(lats, lons, clat, clon, math.cos(math.radians(clat)))


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


def pair_distances_km(
    lats_a: np.ndarray, lons_a: np.ndarray, lats_b: np.ndarray, lons_b: np.ndarray
) -> np.ndarray:
    """Haversine distance from each point ``a[k]`` to its partner ``b[k]``.

    The elementwise counterpart of :func:`pairwise_distance_matrix`: the
    same operations in the same order, evaluated only for the listed
    pairs, so a handful of OD cells over a many-thousand-area world
    never allocates the full matrix.
    """
    phi_a = np.radians(np.asarray(lats_a, dtype=np.float64))
    phi_b = np.radians(np.asarray(lats_b, dtype=np.float64))
    dphi = phi_a - phi_b
    dlmb = np.radians(np.asarray(lons_a, dtype=np.float64)) - np.radians(
        np.asarray(lons_b, dtype=np.float64)
    )
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi_a) * np.cos(phi_b) * np.sin(dlmb / 2.0) ** 2
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))

