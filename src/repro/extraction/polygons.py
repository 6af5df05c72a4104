"""Polygon-based extraction: discs replaced by administrative shapes.

The paper's ε-disc extraction is a proxy for "the area around the
centre".  Real deployments have boundary polygons; this module runs the
same population and labelling pipelines over arbitrary polygons so the
two approaches can be compared (ablation A11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area
from repro.geo.polygon import Polygon, regular_polygon


@dataclass(frozen=True)
class PolygonArea:
    """A study area with an explicit boundary polygon."""

    area: Area
    polygon: Polygon


def hexagon_areas(
    areas: Sequence[Area], circumradius_km: float
) -> list[PolygonArea]:
    """Hexagonal cells of the given circumradius around each area centre.

    The hexagon inscribed-circle radius is ``circumradius * sqrt(3)/2``,
    so a hexagon of circumradius ε covers ~83% of the ε-disc — close
    enough for a like-for-like comparison with disc extraction.
    """
    if circumradius_km <= 0:
        raise ValueError("circumradius must be positive")
    return [
        PolygonArea(
            area=area,
            polygon=regular_polygon(area.center, circumradius_km, n_vertices=6),
        )
        for area in areas
    ]


@dataclass(frozen=True)
class PolygonObservation:
    """Tweets and unique users inside one polygon."""

    area: Area
    n_tweets: int
    n_users: int

    @property
    def census_population(self) -> int:
        """The area's census population from the gazetteer."""
        return self.area.population


def extract_polygon_observations(
    corpus: TweetCorpus, polygon_areas: Sequence[PolygonArea]
) -> list[PolygonObservation]:
    """Count tweets and unique users inside each polygon."""
    observations = []
    for item in polygon_areas:
        inside = item.polygon.contains_mask(corpus.lats, corpus.lons)
        users = np.unique(corpus.user_ids[inside])
        observations.append(
            PolygonObservation(
                area=item.area,
                n_tweets=int(inside.sum()),
                n_users=int(users.size),
            )
        )
    return observations

