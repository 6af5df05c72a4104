"""The synthetic world: where people live and tweet.

:func:`build_world` turns the three gazetteer scales into one coherent
set of :class:`WorldSite` places:

* the 20 national cities, minus Sydney;
* the NSW cities that are not already covered by a national city
  (deduplicated by distance — Sydney, Newcastle, Wollongong and Albury
  appear in both lists);
* the 20 Sydney suburbs as individual fine-grained sites, plus a
  "Sydney (remainder)" site carrying the rest of Sydney's census
  population scattered widely over the metropolitan area.

This union is the *generating* geography.  The *measuring* geography is
always the gazetteer itself: extraction never sees sites, only tweets,
so the three scales of the paper each re-discover their own 20 areas via
ε-radius queries.

Each site also carries an *activity centre* — the point tweets actually
scatter around — offset from the gazetteer centre by a random fraction of
the site's scatter radius.  Real tweeting activity centres on shops and
stations rather than geometric suburb centroids; this offset is what
makes the ε = 0.5 km extraction of Fig 3(b) noticeably worse than
ε = 2 km, exactly the edge-sensitivity the paper reports.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from repro.data.gazetteer import Area, Scale, areas_for_scale, gazetteer_from_spec
from repro.geo.coords import Coordinate, normalize_longitude, validate_latitude
from repro.geo.distance import (
    EARTH_RADIUS_KM,
    destination_point,
    haversine_km,
    pairwise_distance_matrix,
)
from repro.synth.config import SynthConfig

#: National/state sites closer than this are considered the same place.
MERGE_DISTANCE_KM = 40.0

#: Kilometres per degree of latitude (the scatter's planar step).
_KM_PER_DEG = math.pi * EARTH_RADIUS_KM / 180.0


class Hotspots:
    """The activity hotspots of one site (malls, stations, main streets).

    Tweets do not scatter smoothly around a suburb centroid: they clump
    at a handful of venues.  Each site carries a few hotspots at
    exponentially distributed distances from its activity centre, with
    Zipf-decaying popularity; favourite points are drawn near a hotspot.
    This clumping is what makes a 0.5 km search radius (Fig 3b) so much
    noisier than a 2 km one — whether a suburb's dominant hotspot falls
    inside the small disc is close to a coin flip.
    """

    def __init__(self, lats: np.ndarray, lons: np.ndarray, weights: np.ndarray) -> None:
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (lats.size == lons.size == weights.size) or lats.size == 0:
            raise ValueError("hotspots need equal-length non-empty arrays")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("hotspot weights must be non-negative and sum > 0")
        self.lats = lats
        self.lons = lons
        self.weights = weights / weights.sum()
        cdf = np.cumsum(self.weights)
        cdf[-1] = 1.0
        # Plain floats for the per-tweet kernel: ``bisect_right`` on the
        # list is ``np.searchsorted(side="right")`` without numpy's call
        # cost, and each anchor is a validated ``Coordinate`` once, here.
        self._cdf = cdf.tolist()
        self._anchors = [
            (c.lat, c.lon, max(math.cos(math.radians(c.lat)), 1e-9))
            for c in map(Coordinate, lats.tolist(), lons.tolist())
        ]

    def __len__(self) -> int:
        return int(self.lats.size)

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw one hotspot index by popularity."""
        return bisect.bisect_right(self._cdf, rng.random())

    def scatter(
        self, rng: np.random.Generator, jitter_km: float, min_scatter_km: float = 0.02
    ) -> tuple[float, float]:
        """Draw one point near a hotspot: the generator's per-tweet kernel.

        A hotspot is chosen by popularity, then the point lands an
        exponential jitter (floored at ``min_scatter_km``) away from it
        on a uniform bearing, by the local equirectangular step — at
        these scales (≤ ~50 km) the error is metres.  The three draws
        (``random``, ``exponential``, ``random``) are the corpus's
        contract: their order and kind must not change (DESIGN.md).
        """
        lat, lon, cos_lat = self._anchors[self.sample_index(rng)]
        distance = max(rng.exponential(jitter_km), min_scatter_km)
        # numpy's uniform(0, 360) is exactly 0.0 + 360.0 * next_double.
        theta = math.radians(0.0 + 360.0 * rng.random())
        lat = validate_latitude(lat + distance * math.cos(theta) / _KM_PER_DEG)
        return lat, normalize_longitude(lon + distance * math.sin(theta) / (_KM_PER_DEG * cos_lat))


@dataclass(frozen=True, slots=True, eq=False)
class WorldSite:
    """One place in the synthetic world.

    ``center`` is the gazetteer coordinate; ``activity_center`` is where
    tweets actually cluster; ``scatter_km`` is the scale of the
    exponential kernel that placed the site's hotspots around the
    activity centre; ``hotspots`` is where tweets are actually posted.
    """

    name: str
    center: Coordinate
    activity_center: Coordinate
    population: int
    scatter_km: float
    kind: str  # "city" | "suburb" | "filler"
    hotspots: Hotspots

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError(f"{self.name}: population must be positive")
        if self.scatter_km <= 0:
            raise ValueError(f"{self.name}: scatter_km must be positive")

    @property
    def hotspot_jitter_km(self) -> float:
        """Scale of the jitter applied around a chosen hotspot."""
        return min(0.3 * self.scatter_km, 1.2)


class World:
    """The full site set plus the precomputed arrays the generator needs."""

    def __init__(self, sites: list[WorldSite]) -> None:
        if not sites:
            raise ValueError("world must contain at least one site")
        self.sites = tuple(sites)
        self.populations = np.array([s.population for s in sites], dtype=np.float64)
        self.activity_lats = np.array([s.activity_center.lat for s in sites])
        self.activity_lons = np.array([s.activity_center.lon for s in sites])
        self.scatter_km = np.array([s.scatter_km for s in sites])
        self.distance_km = pairwise_distance_matrix([s.activity_center for s in sites])

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def total_population(self) -> float:
        """Sum of census populations over all sites."""
        return float(self.populations.sum())


def _city_scatter_km(population: float) -> float:
    """Urban footprint scale for a city of the given population.

    Grows with the square root of population (area ∝ population at
    roughly constant density), clamped to [1.5, 14] km.  Sydney-sized
    cities get ~14 km; country towns get a couple of kilometres.
    """
    return float(min(14.0, max(1.5, 0.0065 * math.sqrt(population))))


def _offset_center(
    center: Coordinate, scatter_km: float, frac: float, rng: np.random.Generator
) -> Coordinate:
    """Displace a centre by ``frac * scatter_km`` in expectation."""
    if frac <= 0:
        return center
    distance = frac * scatter_km * abs(rng.normal())
    bearing = rng.uniform(0.0, 360.0)
    return destination_point(center, bearing, distance)


def build_world(config: SynthConfig, rng: np.random.Generator) -> World:
    """Assemble the synthetic world from the gazetteer.

    Deterministic given the RNG state; the generator derives a dedicated
    child RNG for this call so the world does not depend on how many
    random draws other stages consume.

    With ``config.gazetteer != "legacy"`` the generating geography is
    the leaf-suburb level of a country-scale synthetic gazetteer (the
    suburbs tile the whole country, so no filler sites are needed); the
    branch happens before any random draw, so the legacy path's draw
    sequence — and therefore every pinned golden — is untouched.
    """
    if config.gazetteer != "legacy":
        return _build_gazetteer_world(config, rng)
    sites: list[WorldSite] = []

    def add_site(name: str, center: Coordinate, population: int, scatter: float, kind: str) -> None:
        activity_center = _offset_center(center, scatter, config.center_offset_frac, rng)
        sites.append(
            WorldSite(
                name=name,
                center=center,
                activity_center=activity_center,
                population=population,
                scatter_km=scatter,
                kind=kind,
                hotspots=_make_hotspots(activity_center, scatter, rng),
            )
        )

    national = areas_for_scale(Scale.NATIONAL)
    state = areas_for_scale(Scale.STATE)
    suburbs = areas_for_scale(Scale.METROPOLITAN)

    sydney = next(a for a in national if a.name == "Sydney")
    suburb_population = sum(a.population for a in suburbs)
    remainder_population = sydney.population - suburb_population
    if remainder_population <= 0:
        raise ValueError("suburb populations exceed the Sydney total")

    # Sydney is represented by its 20 study suburbs plus filler suburbs
    # tiling the rest of the metropolitan area.
    for suburb in suburbs:
        add_site(suburb.name, suburb.center, suburb.population, 0.9, "suburb")
    for name, center, population in _filler_suburbs(
        sydney.center, remainder_population, [s.center for s in suburbs], config, rng
    ):
        add_site(name, center, population, config.filler_scatter_km, "filler")

    # Remaining national cities (Sydney is already tiled above).
    for city in national:
        if city.name == "Sydney":
            continue
        add_site(city.name, city.center, city.population, _city_scatter_km(city.population), "city")

    # NSW cities not already covered by a national city (or Sydney).
    covered = [sydney.center] + [s.center for s in sites if s.kind == "city"]
    for city in state:
        if city.name == "Sydney":
            continue
        nearest = min(haversine_km(city.center, c) for c in covered)
        if nearest > MERGE_DISTANCE_KM:
            add_site(
                city.name, city.center, city.population, _city_scatter_km(city.population), "city"
            )
            covered.append(city.center)

    return World(sites)


def _suburb_scatter_km(area: Area) -> float:
    """Scatter scale for a synthetic-gazetteer leaf suburb.

    Derived from the footprint: activity spreads over a fraction of the
    cell (sparse outback cells are hundreds of km across but activity
    still clusters), clamped to the same [0.9, 14] km band the legacy
    world uses for suburbs and cities.
    """
    if area.footprint is None:
        return 0.9
    return float(min(14.0, max(0.9, 0.25 * math.sqrt(area.footprint.area_km2))))


def _build_gazetteer_world(config: SynthConfig, rng: np.random.Generator) -> World:
    """The generating geography of a country-scale synthetic gazetteer.

    One :class:`WorldSite` per leaf suburb, carrying the suburb's exact
    integer population — the leaves tile the country and sum to the
    census total by construction, so the measuring geography (ε-discs
    at any of the three scales) sees a consistent population field.
    Note the gravity matrix is O(leaves²); corpus generation is meant
    for ≲ 2k-leaf gazetteers, while labelling benchmarks exercise 5k+
    areas without generating a corpus.
    """
    gaz = gazetteer_from_spec(config.gazetteer)
    sites: list[WorldSite] = []
    for area in gaz.areas_for_scale(Scale.METROPOLITAN):
        scatter = _suburb_scatter_km(area)
        activity_center = _offset_center(area.center, scatter, config.center_offset_frac, rng)
        sites.append(
            WorldSite(
                name=area.name,
                center=area.center,
                activity_center=activity_center,
                population=area.population,
                scatter_km=scatter,
                kind="suburb",
                hotspots=_make_hotspots(activity_center, scatter, rng),
            )
        )
    return World(sites)


def _make_hotspots(
    activity_center: Coordinate, scatter_km: float, rng: np.random.Generator
) -> Hotspots:
    """Place a site's hotspots around its activity centre.

    Hotspot count grows gently with the site footprint (3 for a suburb,
    ~15 for a Sydney-sized city); distances are exponential with the
    site scatter scale, bearings uniform, popularity Zipf (the first
    hotspot — "the" town centre — dominates).
    """
    n = 3 + int(round(0.9 * scatter_km))
    lats = np.empty(n)
    lons = np.empty(n)
    for k in range(n):
        # The dominant hotspot hugs the activity centre; later (less
        # popular) hotspots spread out across the full footprint.
        spread = scatter_km * (0.35 if k == 0 else 1.0)
        point = destination_point(
            activity_center, rng.uniform(0.0, 360.0), rng.exponential(spread)
        )
        lats[k] = point.lat
        lons[k] = point.lon
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return Hotspots(lats=lats, lons=lons, weights=weights)


def _filler_suburbs(
    cbd: Coordinate,
    total_population: int,
    study_centers: list[Coordinate],
    config: SynthConfig,
    rng: np.random.Generator,
) -> list[tuple[str, Coordinate, int]]:
    """Synthetic suburbs carrying Sydney's non-study population.

    Placement: exponentially distributed distance from the CBD (scale
    ``metro_extent_km``), uniform bearing, rejecting positions closer
    than ``filler_min_separation_km`` to any study suburb so the study
    discs are not silently double counted.  Populations are log-normal
    draws renormalised to the exact remainder total.
    """
    n = config.n_filler_suburbs
    if n < 1:
        raise ValueError("need at least one filler suburb for the remainder")
    centers: list[Coordinate] = []
    attempts = 0
    while len(centers) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("could not place filler suburbs; separation too strict")
        distance = min(rng.exponential(config.metro_extent_km) + 1.0, 45.0)
        bearing = rng.uniform(0.0, 360.0)
        candidate = destination_point(cbd, bearing, distance)
        too_close = any(
            haversine_km(candidate, c) < config.filler_min_separation_km
            for c in study_centers
        )
        if not too_close:
            centers.append(candidate)
    raw = np.exp(rng.normal(0.0, 0.7, n))
    shares = raw / raw.sum()
    populations = np.maximum(1, np.round(shares * total_population)).astype(np.int64)
    return [
        (f"Sydney filler {i:03d}", center, int(pop))
        for i, (center, pop) in enumerate(zip(centers, populations))
    ]


def home_site_weights(world: World, config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Probability that a synthetic user lives in each site.

    Proportional to census population times a log-normal Twitter-adoption
    bias whose sigma grows for small sites (small places have noisier
    adoption — the effect the paper sees at metropolitan scale).
    """
    base_sigma = config.adoption_sigma
    extra = config.small_site_noise * np.sqrt(1.0e5 / (1.0e5 + world.populations))
    sigmas = base_sigma + extra
    bias = np.exp(rng.normal(0.0, 1.0, len(world)) * sigmas)
    weights = world.populations * bias
    return weights / weights.sum()
