"""The 60 study areas of the paper, at three geographic scales.

Section III of the paper studies three sets of 20 areas each:

* **National** — the 20 most populated Australian cities, search radius
  ε = 50 km.
* **State** — the 20 most populated cities of New South Wales, ε = 25 km.
* **Metropolitan** — the 20 most populated Sydney suburbs, ε = 2 km
  (0.5 km in the Fig 3(b) sensitivity check).

The paper sources populations from the ABS 2012–13 estimated resident
population release.  We cannot redistribute that table, so this gazetteer
hardcodes public, approximate coordinates and populations for the same
areas.  The approximation is documented in DESIGN.md; nothing downstream
depends on the exact values, only on their relative magnitudes and the
distance structure of the set.

Beyond the paper's 60 areas, :func:`gazetteer_from_spec` resolves a
``--gazetteer`` spec string to a :class:`Gazetteer`: either the legacy
tables above (``legacy``) or a country-scale synthetic area system
(``synth:<areas>[@<seed>]``) adapted from
:mod:`repro.geo.gazetteer` — thousands of hierarchical polygon areas
mapped onto the same three scales (states → national, cities → state,
suburbs → metropolitan) under the same ε radii.  The legacy path never
touches the generator, so the paper's numbers cannot shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from repro.geo.coords import Coordinate
from repro.geo.polygon import Polygon


class Scale(Enum):
    """The three geographic scales of the study."""

    NATIONAL = "national"
    STATE = "state"
    METROPOLITAN = "metropolitan"

    def __str__(self) -> str:
        return self.value


#: Search radius ε (km) used per scale when extracting tweets, users and
#: mobility around each area centre — Section III of the paper.
SEARCH_RADIUS_KM: dict[Scale, float] = {
    Scale.NATIONAL: 50.0,
    Scale.STATE: 25.0,
    Scale.METROPOLITAN: 2.0,
}

#: The reduced metropolitan radius of Fig 3(b).
METRO_SENSITIVITY_RADIUS_KM = 0.5


@dataclass(frozen=True, slots=True)
class Area:
    """A named study area: a centre coordinate and a census population.

    Synthetic-gazetteer areas additionally carry their position in the
    hierarchy (``parent`` — the enclosing area's name) and a convex
    polygon ``footprint``; the paper's hardcoded areas leave both at
    their defaults, so nothing about the legacy gazetteer changes.
    """

    name: str
    center: Coordinate
    population: int
    scale: Scale
    parent: str | None = None
    footprint: Polygon | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError(f"{self.name}: population must be positive")


def _make_areas(rows: list[tuple[str, float, float, int]], scale: Scale) -> tuple[Area, ...]:
    return tuple(
        Area(name=name, center=Coordinate(lat=lat, lon=lon), population=pop, scale=scale)
        for name, lat, lon, pop in rows
    )


# 20 most populated Australian cities (significant urban areas, ~2013).
_NATIONAL_ROWS = [
    ("Sydney", -33.8688, 151.2093, 4_757_083),
    ("Melbourne", -37.8136, 144.9631, 4_347_955),
    ("Brisbane", -27.4698, 153.0251, 2_238_394),
    ("Perth", -31.9505, 115.8605, 2_021_203),
    ("Adelaide", -34.9285, 138.6007, 1_291_666),
    ("Gold Coast", -28.0167, 153.4000, 614_379),
    ("Newcastle", -32.9283, 151.7817, 430_755),
    ("Canberra", -35.2809, 149.1300, 411_609),
    ("Sunshine Coast", -26.6500, 153.0667, 297_380),
    ("Wollongong", -34.4278, 150.8931, 289_236),
    ("Hobart", -42.8821, 147.3272, 219_243),
    ("Geelong", -38.1499, 144.3617, 184_182),
    ("Townsville", -19.2590, 146.8169, 180_333),
    ("Cairns", -16.9186, 145.7781, 146_778),
    ("Darwin", -12.4634, 130.8456, 136_245),
    ("Toowoomba", -27.5598, 151.9507, 113_625),
    ("Ballarat", -37.5622, 143.8503, 98_543),
    ("Bendigo", -36.7570, 144.2794, 91_692),
    ("Albury-Wodonga", -36.0737, 146.9135, 87_890),
    ("Launceston", -41.4332, 147.1441, 86_393),
]

# 20 most populated cities of New South Wales (~2013).
_NSW_ROWS = [
    ("Sydney", -33.8688, 151.2093, 4_757_083),
    ("Newcastle", -32.9283, 151.7817, 430_755),
    ("Central Coast", -33.4269, 151.3428, 325_421),
    ("Wollongong", -34.4278, 150.8931, 289_236),
    ("Maitland", -32.7316, 151.5528, 78_015),
    ("Wagga Wagga", -35.1082, 147.3598, 55_364),
    ("Albury", -36.0737, 146.9135, 47_800),
    ("Coffs Harbour", -30.2963, 153.1135, 45_580),
    ("Port Macquarie", -31.4333, 152.9000, 44_830),
    ("Tamworth", -31.0905, 150.9291, 41_810),
    ("Orange", -33.2835, 149.1012, 38_097),
    ("Queanbeyan", -35.3549, 149.2323, 36_348),
    ("Dubbo", -32.2569, 148.6011, 34_339),
    ("Nowra-Bomaderry", -34.8830, 150.6000, 34_479),
    ("Bathurst", -33.4193, 149.5775, 33_110),
    ("Lismore", -28.8135, 153.2773, 28_290),
    ("Armidale", -30.5120, 151.6655, 24_039),
    ("Goulburn", -34.7515, 149.7209, 22_419),
    ("Cessnock", -32.8324, 151.3555, 21_725),
    ("Grafton", -29.6895, 152.9323, 18_668),
]

# 20 populous Sydney suburbs (~2011 census state suburbs).
_SYDNEY_ROWS = [
    ("Blacktown", -33.7710, 150.9063, 47_176),
    ("Castle Hill", -33.7308, 151.0032, 37_140),
    ("Auburn", -33.8494, 151.0330, 33_122),
    ("Baulkham Hills", -33.7589, 150.9927, 33_945),
    ("Merrylands", -33.8370, 150.9905, 30_240),
    ("Bankstown", -33.9181, 151.0352, 30_049),
    ("Randwick", -33.9145, 151.2420, 29_105),
    ("Maroubra", -33.9500, 151.2430, 29_055),
    ("Liverpool", -33.9200, 150.9230, 27_084),
    ("Quakers Hill", -33.7344, 150.8789, 27_018),
    ("Mosman", -33.8270, 151.2440, 26_896),
    ("Marrickville", -33.9110, 151.1550, 25_189),
    ("Parramatta", -33.8150, 151.0011, 25_798),
    ("Greystanes", -33.8220, 150.9460, 23_521),
    ("Hornsby", -33.7045, 151.0993, 21_477),
    ("Epping", -33.7725, 151.0820, 21_213),
    ("Dee Why", -33.7506, 151.2853, 20_447),
    ("Manly", -33.7963, 151.2843, 15_866),
    ("Cronulla", -34.0544, 151.1523, 17_187),
    ("Bondi", -33.8915, 151.2663, 11_656),
]

_AREAS: dict[Scale, tuple[Area, ...]] = {
    Scale.NATIONAL: _make_areas(_NATIONAL_ROWS, Scale.NATIONAL),
    Scale.STATE: _make_areas(_NSW_ROWS, Scale.STATE),
    Scale.METROPOLITAN: _make_areas(_SYDNEY_ROWS, Scale.METROPOLITAN),
}


def national_cities() -> tuple[Area, ...]:
    """The 20 most populated Australian cities."""
    return _AREAS[Scale.NATIONAL]


def nsw_cities() -> tuple[Area, ...]:
    """The 20 most populated New South Wales cities."""
    return _AREAS[Scale.STATE]


def sydney_suburbs() -> tuple[Area, ...]:
    """The 20 most populated Sydney suburbs."""
    return _AREAS[Scale.METROPOLITAN]


def areas_for_scale(scale: Scale) -> tuple[Area, ...]:
    """The 20 study areas at the requested scale."""
    return _AREAS[scale]


def all_areas() -> tuple[Area, ...]:
    """All 60 study areas, national then state then metropolitan."""
    return national_cities() + nsw_cities() + sydney_suburbs()


def search_radius_km(scale: Scale) -> float:
    """The paper's search radius ε for a scale (50 / 25 / 2 km)."""
    return SEARCH_RADIUS_KM[scale]


# -- scale-parametric gazetteers ----------------------------------------

#: Synthetic hierarchy levels, coarse to fine, aligned with the scales.
_LEVEL_FOR_SCALE: dict[Scale, str] = {
    Scale.NATIONAL: "state",
    Scale.STATE: "city",
    Scale.METROPOLITAN: "suburb",
}


@dataclass(frozen=True)
class Gazetteer:
    """An area system at all three paper scales under one name.

    The legacy instance wraps the hardcoded tables above; synthetic
    instances adapt a :class:`repro.geo.gazetteer.SyntheticGazetteer`.
    Consumers that take a ``Gazetteer`` instead of calling the
    module-level functions become scale-parametric for free.
    """

    name: str
    areas_by_scale: dict[Scale, tuple[Area, ...]]
    radii: dict[Scale, float]

    def areas_for_scale(self, scale: Scale) -> tuple[Area, ...]:
        """The areas at one scale, in label-index order."""
        return self.areas_by_scale[scale]

    def search_radius_km(self, scale: Scale) -> float:
        """The ε radius for a scale."""
        return self.radii[scale]

    @property
    def is_legacy(self) -> bool:
        """Whether this is the paper's hardcoded 60-area gazetteer."""
        return self.name == "legacy"

    @property
    def n_areas(self) -> int:
        """Total area count across the three scales."""
        return sum(len(areas) for areas in self.areas_by_scale.values())

    @property
    def namespace_slug(self) -> str:
        """A filesystem/namespace-safe token naming this gazetteer.

        Used to qualify summary-store namespaces so tiles from different
        gazetteers can never collide (``synth:1000@7`` → ``synth-1000-7``).
        """
        return self.name.replace(":", "-").replace("@", "-")


#: The paper's gazetteer, wrapped: same tuples, same radii objects.
LEGACY_GAZETTEER = Gazetteer(name="legacy", areas_by_scale=_AREAS, radii=SEARCH_RADIUS_KM)


@lru_cache(maxsize=8)
def _synthetic_gazetteer(spec_string: str) -> Gazetteer:
    # Imported lazily so the legacy path never touches (or pays for)
    # the generator module; the regression suite monkeypatches
    # build_gazetteer to raise and asserts legacy worlds still build.
    from repro.geo.gazetteer import cached_gazetteer

    synthetic = cached_gazetteer(spec_string)
    areas_by_scale: dict[Scale, tuple[Area, ...]] = {}
    for scale, level in _LEVEL_FOR_SCALE.items():
        areas_by_scale[scale] = tuple(
            Area(
                name=synth.name,
                center=synth.center,
                population=synth.population,
                scale=scale,
                parent=synth.parent,
                footprint=synth.footprint,
            )
            for synth in synthetic.by_level(level)
        )
    return Gazetteer(
        name=spec_string,
        areas_by_scale=areas_by_scale,
        radii=dict(SEARCH_RADIUS_KM),
    )


def gazetteer_from_spec(spec: "str | Gazetteer | None") -> Gazetteer:
    """Resolve a ``--gazetteer`` spec to a :class:`Gazetteer`.

    ``None``, ``""`` and ``"legacy"`` resolve to the paper's tables
    without importing the generator; ``synth:<areas>[@<seed>]`` builds
    (or reuses, via the process-wide cache) a synthetic country.  An
    already-resolved :class:`Gazetteer` passes through unchanged.
    """
    if isinstance(spec, Gazetteer):
        return spec
    if spec is None or spec == "" or spec == "legacy":
        return LEGACY_GAZETTEER
    from repro.geo.gazetteer import parse_gazetteer_spec

    parsed = parse_gazetteer_spec(spec)
    if parsed is None:
        return LEGACY_GAZETTEER
    return _synthetic_gazetteer(parsed.spec_string)

