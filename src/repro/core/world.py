"""The canonical area system: areas + ε radius + derived geometry.

Every estimation path in the repo — batch extraction, the streaming
counters, the serving snapshot, the epidemic networks — needs the same
bundle of facts about the study areas: the :class:`~repro.data.gazetteer.Area`
records themselves, the search radius ε, the centre coordinate columns,
the census population vector and the pairwise centre distance matrix.
Before ``repro.core`` each consumer re-derived those from an ad-hoc
``(areas, radius_km)`` tuple; :class:`World` derives each exactly once
and caches it, so a ``World`` can be passed around as *the* area system.

Derived arrays are lazy (``functools.cached_property``) because most
consumers need only a subset — the streaming counters never touch the
pairwise distance matrix, the epidemic networks never label tweets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.data.gazetteer import (
    Area,
    Gazetteer,
    Scale,
    areas_for_scale,
    gazetteer_from_spec,
    search_radius_km,
)
from repro.geo.distance import cos_latitudes, pairwise_distance_matrix
from repro.geo.index import CenterGridIndex
from repro.geo.polygon import Polygon


@dataclass(frozen=True)
class World:
    """An immutable area system: the areas, their ε radius, and geometry.

    Attributes
    ----------
    areas:
        The study areas, in a fixed order that every derived array and
        every label index refers to.
    radius_km:
        The search radius ε: a tweet belongs to an area's ε-disc when
        its haversine distance to the centre is ``<= radius_km``.
    """

    areas: tuple[Area, ...]
    radius_km: float

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise ValueError(f"radius must be positive, got {self.radius_km}")
        if not isinstance(self.areas, tuple):
            object.__setattr__(self, "areas", tuple(self.areas))

    # -- construction --------------------------------------------------

    @classmethod
    def from_areas(cls, areas: Sequence[Area], radius_km: float) -> "World":
        """Build a world over any area sequence."""
        return cls(areas=tuple(areas), radius_km=float(radius_km))

    @classmethod
    def from_scale(
        cls,
        scale: Scale,
        radius_km: float | None = None,
        gazetteer: "Gazetteer | str | None" = None,
    ) -> "World":
        """The gazetteer world of one paper scale (ε from Section III).

        Pass ``radius_km`` to override the scale's default radius, e.g.
        the 0.5 km metropolitan sensitivity check of Fig 3(b).  Pass
        ``gazetteer`` (a resolved :class:`~repro.data.gazetteer.Gazetteer`
        or a spec string like ``synth:1000``) to build the scale over a
        country-scale synthetic area system instead of the paper's 60
        areas; the default keeps the legacy tables and never touches the
        generator.
        """
        if gazetteer is None:
            radius = search_radius_km(scale) if radius_km is None else float(radius_km)
            return cls(areas=areas_for_scale(scale), radius_km=radius)
        resolved = gazetteer_from_spec(gazetteer)
        radius = (
            resolved.search_radius_km(scale) if radius_km is None else float(radius_km)
        )
        return cls(areas=resolved.areas_for_scale(scale), radius_km=radius)

    def with_radius(self, radius_km: float) -> "World":
        """The same areas under a different search radius.

        The area tuple is shared, so gazetteer-level data is not copied;
        derived arrays are re-derived lazily for the new world.
        """
        if radius_km == self.radius_km:
            return self
        return replace(self, radius_km=float(radius_km))

    # -- basics --------------------------------------------------------

    @property
    def n_areas(self) -> int:
        """Number of areas in the system."""
        return len(self.areas)

    def __len__(self) -> int:
        return len(self.areas)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Area names aligned with the label indices."""
        return tuple(area.name for area in self.areas)

    def area_index(self, name: str) -> int:
        """Index of an area by (case-insensitive) name; -1 if unknown."""
        lowered = name.lower()
        for index, area in enumerate(self.areas):
            if area.name.lower() == lowered:
                return index
        return -1

    # -- derived geometry (cached) -------------------------------------

    @cached_property
    def centers_lat(self) -> np.ndarray:
        """Centre latitudes in degrees, aligned with label indices."""
        return np.array([a.center.lat for a in self.areas], dtype=np.float64)

    @cached_property
    def centers_lon(self) -> np.ndarray:
        """Centre longitudes in degrees, aligned with label indices."""
        return np.array([a.center.lon for a in self.areas], dtype=np.float64)

    @cached_property
    def centers_cos_lat(self) -> np.ndarray:
        """Each centre's ``math.cos(math.radians(lat))``, the centre
        cosines the dense labelling branch hands the haversine."""
        return cos_latitudes(self.centers_lat)

    @cached_property
    def populations(self) -> np.ndarray:
        """Census populations as float64, aligned with label indices."""
        return np.array([a.population for a in self.areas], dtype=np.float64)

    @cached_property
    def distance_matrix_km(self) -> np.ndarray:
        """Pairwise haversine distances between area centres.

        Computed once per world; the OD models, the epidemic networks
        and the serving snapshot all share this array.
        """
        return pairwise_distance_matrix([a.center for a in self.areas])

    @cached_property
    def center_grid(self) -> CenterGridIndex:
        """The grid-bucketed ε-labelling index over the area centres.

        Built lazily: only the large-world labelling path (see
        :func:`repro.core.label.label_and_contain`) touches it, so the
        paper's 60-area worlds never pay for candidate registration.
        """
        return CenterGridIndex(self.centers_lat, self.centers_lon, self.radius_km)

    @cached_property
    def footprints(self) -> tuple["Polygon | None", ...]:
        """Polygon footprints aligned with label indices.

        ``None`` for areas without boundary geometry (the legacy
        gazetteer); synthetic gazetteers supply a convex footprint for
        every area, and the footprints of one scale tile the country.
        """
        return tuple(area.footprint for area in self.areas)

    # repro: allow[reachability] test harness: the grid equivalence suite and the gazetteer properties read it
    @property
    def has_footprints(self) -> bool:
        """Whether every area carries a polygon footprint."""
        return all(footprint is not None for footprint in self.footprints)
