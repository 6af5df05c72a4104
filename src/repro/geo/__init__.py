"""Geodesy substrate: coordinates, distances, bounding boxes, spatial indexing.

This subpackage provides the geometric foundation every other part of the
reproduction builds on.  All positions are WGS84-style latitude/longitude
pairs in decimal degrees; all distances are great-circle kilometres.

The modules are intentionally small and dependency-light:

``coords``
    The :class:`~repro.geo.coords.Coordinate` value type and validation.
``distance``
    Scalar and vectorised haversine / equirectangular distances, pairwise
    distance matrices, bearings and destination points.
``bbox``
    Axis-aligned :class:`~repro.geo.bbox.BoundingBox` in lat/lon space.
``grid``
    A uniform lat/lon binning grid used both for density maps (Fig 1 of
    the paper) and as the bucket layer of the spatial index.
``index``
    ε-radius neighbour queries: a grid-accelerated index and a brute-force
    reference implementation used to cross-check it, plus the
    grid-bucketed nearest-centre labeller for country-scale area sets.
``gazetteer``
    Deterministic synthesis of country-scale hierarchical area systems
    (states tiled by cities tiled by suburbs, as convex Voronoi cells).
``projection``
    A local equirectangular projection for small-area work (metropolitan
    scale) where planar geometry is an adequate approximation.
"""

from repro.geo.bbox import BoundingBox
from repro.geo.coords import Coordinate
from repro.geo.distance import (
    EARTH_RADIUS_KM,
    destination_point,
    haversine_km,
    pairwise_distance_matrix,
    points_to_point_km,
)
from repro.geo.gazetteer import (
    GazetteerSpec,
    SynthArea,
    SyntheticGazetteer,
    build_gazetteer,
    parse_gazetteer_spec,
)
from repro.geo.grid import DensityGrid, GridSpec
from repro.geo.index import (
    BruteForceIndex,
    CenterGridIndex,
    GridIndex,
    RadiusQueryResult,
)
from repro.geo.projection import LocalProjection

__all__ = [
    "BoundingBox",
    "BruteForceIndex",
    "CenterGridIndex",
    "Coordinate",
    "DensityGrid",
    "EARTH_RADIUS_KM",
    "GazetteerSpec",
    "GridIndex",
    "GridSpec",
    "LocalProjection",
    "RadiusQueryResult",
    "SynthArea",
    "SyntheticGazetteer",
    "build_gazetteer",
    "parse_gazetteer_spec",
    "destination_point",
    "haversine_km",
    "pairwise_distance_matrix",
    "points_to_point_km",
]
