"""Synthetic country-scale gazetteers: hierarchical Voronoi area systems.

The paper's gazetteer is 60 hardcoded areas (20 per scale).  Production
traffic — and meaningful ε-radius ablations — need thousands of areas,
so this module synthesises a whole country deterministically from one
seed:

* ``n_states`` **states** tile the country bounding box,
* each state is tiled by **cities**,
* each city is tiled by **suburbs** (the leaf areas; a
  :class:`GazetteerSpec` is sized by its leaf count).

All three levels come from *one* synthesis, so the hierarchy invariants
hold by construction rather than by post-hoc matching:

* every footprint is a convex polygon (a Voronoi cell clipped to its
  parent's cell), so ``suburb ⊂ city ⊂ state`` exactly;
* sibling footprints partition their parent's footprint — with the
  half-open boundary rule of :meth:`repro.geo.polygon.Polygon.contains`
  every point of the parent belongs to exactly one child;
* leaf populations are integerised to sum *exactly* to the country
  total, and every parent's population is the exact sum of its
  children's, so population rollups are identities, not approximations.

All geometry is computed in a single shared equirectangular frame
anchored at the bounding-box centre (and every emitted polygon carries
that same anchor), so containment decisions are consistent across
adjacent areas down to the last bit.

This module is layer L0 (``geo``): it cannot import ``repro.data``, so
it emits its own :class:`SynthArea` records; ``repro.data.gazetteer``
adapts them onto the :class:`~repro.data.gazetteer.Area` type that the
rest of the system consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.geo.bbox import AUSTRALIA_BBOX, BoundingBox
from repro.geo.coords import Coordinate
from repro.geo.polygon import Polygon
from repro.geo.projection import LocalProjection

#: Hierarchy level names, coarse to fine.
LEVELS = ("state", "city", "suburb")

#: Default census population of the synthetic country (people).
DEFAULT_TOTAL_POPULATION = 23_000_000

#: Default root seed (the paper's collection-era seed used repo-wide).
DEFAULT_SEED = 20150413

_XY = tuple[float, float]


class GazetteerSpecError(ValueError):
    """Raised for malformed gazetteer spec strings or parameters."""


@dataclass(frozen=True, slots=True)
class GazetteerSpec:
    """Sizing and seeding of one synthetic country.

    Attributes
    ----------
    n_areas:
        Number of leaf (suburb) areas.  States and cities are derived
        from it unless given explicitly: roughly ``n_areas**(1/3)``
        states and a square-ish city/suburb split below them.
    seed:
        Root RNG seed; the build is a pure function of the spec.
    bbox:
        The country rectangle (default: the paper's Australian box).
    total_population:
        Country census population, distributed log-normally over leaves.
    n_states, cities_per_state:
        Optional explicit branching overrides.
    """

    n_areas: int = 1000
    seed: int = DEFAULT_SEED
    bbox: BoundingBox = field(default=AUSTRALIA_BBOX)
    total_population: int = DEFAULT_TOTAL_POPULATION
    n_states: int | None = None
    cities_per_state: int | None = None

    def __post_init__(self) -> None:
        if self.n_areas < 4:
            raise GazetteerSpecError(f"n_areas must be >= 4, got {self.n_areas}")
        if self.total_population < self.n_areas:
            raise GazetteerSpecError("total_population must cover one person per area")
        if self.n_states is not None and self.n_states < 1:
            raise GazetteerSpecError(f"n_states must be >= 1, got {self.n_states}")
        if self.cities_per_state is not None and self.cities_per_state < 1:
            raise GazetteerSpecError(
                f"cities_per_state must be >= 1, got {self.cities_per_state}"
            )

    @property
    def states(self) -> int:
        """Resolved state count."""
        if self.n_states is not None:
            return self.n_states
        return max(2, min(26, int(round(self.n_areas ** (1.0 / 3.0)))))

    @property
    def cities(self) -> int:
        """Resolved per-state city count."""
        if self.cities_per_state is not None:
            return self.cities_per_state
        return max(2, int(round(math.sqrt(self.n_areas / self.states))))

    @property
    def spec_string(self) -> str:
        """The canonical ``synth:<areas>@<seed>`` spelling of this spec."""
        return f"synth:{self.n_areas}@{self.seed}"


#: The spec string naming the paper's hardcoded 60-area gazetteer.
LEGACY_SPEC = "legacy"


def parse_gazetteer_spec(text: str | None) -> GazetteerSpec | None:
    """Parse a CLI gazetteer spec; ``None`` means the legacy gazetteer.

    Accepted forms::

        legacy              the paper's 60 hardcoded areas (also None/"")
        synth:1000          1000 leaf areas, default seed
        synth:5000@7        5000 leaf areas, seed 7
    """
    if text is None or text == "" or text == LEGACY_SPEC:
        return None
    if not text.startswith("synth:"):
        raise GazetteerSpecError(
            f"unknown gazetteer spec {text!r}; expected 'legacy' or 'synth:<areas>[@<seed>]'"
        )
    body = text[len("synth:"):]
    seed = DEFAULT_SEED
    if "@" in body:
        body, seed_text = body.split("@", 1)
        try:
            seed = int(seed_text)
        except ValueError:
            raise GazetteerSpecError(f"bad gazetteer seed {seed_text!r} in {text!r}") from None
    try:
        n_areas = int(body)
    except ValueError:
        raise GazetteerSpecError(f"bad gazetteer area count {body!r} in {text!r}") from None
    return GazetteerSpec(n_areas=n_areas, seed=seed)


@dataclass(frozen=True, slots=True, eq=False)
class SynthArea:
    """One synthetic area: a convex footprint inside its parent's.

    ``center`` is the labelling anchor: for suburbs the footprint
    centroid (always interior for a convex cell); for cities and states
    the centre of their most populous child — the *capital* — so that a
    coarse-scale ε-disc lands on real activity, the way the paper's
    state-scale disc is anchored on the capital city rather than the
    geographic middle of the state.  ``parent`` is the name of the
    enclosing area (``None`` for states), ``population`` the exact sum
    of the children's populations (for leaves, the integerised
    log-normal draw).
    """

    name: str
    center: Coordinate
    population: int
    level: str
    parent: str | None
    footprint: Polygon

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"{self.name}: unknown level {self.level!r}")
        if self.population <= 0:
            raise ValueError(f"{self.name}: population must be positive")


@dataclass(frozen=True)
class SyntheticGazetteer:
    """A built country: all areas at all three levels, plus the spec."""

    spec: GazetteerSpec
    states: tuple[SynthArea, ...]
    cities: tuple[SynthArea, ...]
    suburbs: tuple[SynthArea, ...]

    def by_level(self, level: str) -> tuple[SynthArea, ...]:
        """All areas at one hierarchy level, in build order."""
        if level == "state":
            return self.states
        if level == "city":
            return self.cities
        if level == "suburb":
            return self.suburbs
        raise KeyError(level)

    def area(self, name: str) -> SynthArea:
        """Look one area up by its (unique) name."""
        for group in (self.states, self.cities, self.suburbs):
            for area in group:
                if area.name == name:
                    return area
        raise KeyError(name)

    @property
    def n_areas(self) -> int:
        """Total area count across all levels."""
        return len(self.states) + len(self.cities) + len(self.suburbs)


# -- planar geometry helpers (shared-frame xy kilometres) ---------------


def _clip_halfplane(poly: list[_XY], a: float, b: float, c: float) -> list[_XY]:
    """Sutherland–Hodgman clip of a convex polygon to ``a·x + b·y <= c``."""
    out: list[_XY] = []
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        d1 = a * x1 + b * y1 - c
        d2 = a * x2 + b * y2 - c
        if d1 <= 0.0:
            out.append((x1, y1))
        if (d1 > 0.0) != (d2 > 0.0):
            t = d1 / (d1 - d2)
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _voronoi_cells(seeds: np.ndarray, boundary: list[_XY]) -> list[list[_XY]]:
    """Voronoi cells of ``seeds`` clipped to a convex ``boundary``.

    Each cell is the boundary polygon intersected with the half-plane
    closer to its seed than to every sibling — convex by construction,
    and collectively a partition of the boundary.
    """
    k = seeds.shape[0]
    cells: list[list[_XY]] = []
    for i in range(k):
        xi, yi = float(seeds[i, 0]), float(seeds[i, 1])
        norm_i = xi * xi + yi * yi
        cell = boundary
        for j in range(k):
            if j == i:
                continue
            xj, yj = float(seeds[j, 0]), float(seeds[j, 1])
            a = xj - xi
            b = yj - yi
            c = (xj * xj + yj * yj - norm_i) / 2.0
            cell = _clip_halfplane(cell, a, b, c)
            if len(cell) < 3:
                break
        if len(cell) < 3:
            raise RuntimeError("degenerate Voronoi cell; seeds too close")
        cells.append(cell)
    return cells


def _polygon_centroid(poly: list[_XY]) -> _XY:
    """Area centroid of a simple polygon in the planar frame."""
    acc_x = acc_y = acc_a = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = x1 * y2 - x2 * y1
        acc_a += cross
        acc_x += (x1 + x2) * cross
        acc_y += (y1 + y2) * cross
    if acc_a == 0.0:
        raise RuntimeError("degenerate polygon (zero area)")
    return acc_x / (3.0 * acc_a), acc_y / (3.0 * acc_a)


def _point_in_convex(poly: list[_XY], x: float, y: float) -> bool:
    """Strict-interior test against a counter-clockwise convex polygon."""
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) <= 0.0:
            return False
    return True


def _ensure_ccw(poly: list[_XY]) -> list[_XY]:
    """Orient a convex polygon counter-clockwise."""
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return poly if area > 0 else poly[::-1]


def _spread_seeds(
    boundary: list[_XY], k: int, rng: np.random.Generator, candidates: int = 8
) -> np.ndarray:
    """``k`` well-spread points inside a convex boundary (best-candidate).

    Mitchell's best-candidate sampling: each new seed is the candidate
    (of ``candidates`` uniform rejection draws) farthest from the seeds
    placed so far.  Deterministic given the RNG state; keeps Voronoi
    cells non-degenerate without a fragile minimum-separation loop.
    """
    boundary = _ensure_ccw(boundary)
    xs = [p[0] for p in boundary]
    ys = [p[1] for p in boundary]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)

    def draw_one() -> _XY:
        for _ in range(10_000):
            x = float(rng.uniform(lo_x, hi_x))
            y = float(rng.uniform(lo_y, hi_y))
            if _point_in_convex(boundary, x, y):
                return x, y
        raise RuntimeError("rejection sampling failed; boundary too thin")

    seeds = np.empty((k, 2), dtype=np.float64)
    for i in range(k):
        if i == 0:
            seeds[0] = draw_one()
            continue
        best: _XY | None = None
        best_dist = -1.0
        for _ in range(candidates):
            x, y = draw_one()
            d = float(np.min((seeds[:i, 0] - x) ** 2 + (seeds[:i, 1] - y) ** 2))
            if d > best_dist:
                best, best_dist = (x, y), d
        assert best is not None
        seeds[i] = best
    return seeds


def _integerise(weights: np.ndarray, total: int) -> np.ndarray:
    """Non-negative weights → positive ints summing exactly to ``total``.

    Largest-remainder rounding with a one-person floor, so parent
    rollups computed as child sums are exact identities.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    shares = weights / weights.sum() * float(total - n)
    base = np.floor(shares).astype(np.int64)
    remainder = int(total - n - base.sum())
    if remainder > 0:
        fractional = shares - base
        # Ties broken by lower index: stable argsort on the negated key.
        top = np.argsort(-fractional, kind="stable")[:remainder]
        base[top] += 1
    return base + 1


# -- the builder --------------------------------------------------------


def _split_evenly(total: int, parts: int) -> list[int]:
    """``total`` items over ``parts`` buckets, as even as possible."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def build_gazetteer(spec: GazetteerSpec) -> SyntheticGazetteer:
    """Build the whole country from one spec — pure and deterministic.

    A 5k-leaf country builds in a couple of seconds: the cost is the
    Voronoi partitions, which are quadratic only within each parent
    (a few dozen seeds), never across the country.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    anchor = spec.bbox.center
    projection = LocalProjection(anchor)

    sw = projection.to_xy(spec.bbox.min_lat, spec.bbox.min_lon)
    se = projection.to_xy(spec.bbox.min_lat, spec.bbox.max_lon)
    ne = projection.to_xy(spec.bbox.max_lat, spec.bbox.max_lon)
    nw = projection.to_xy(spec.bbox.max_lat, spec.bbox.min_lon)
    country: list[_XY] = [sw, se, ne, nw]

    n_states = spec.states
    n_cities = n_states * spec.cities
    city_leaf_counts = _split_evenly(spec.n_areas, n_cities)

    state_seeds = _spread_seeds(country, n_states, rng)
    state_cells = [_ensure_ccw(c) for c in _voronoi_cells(state_seeds, country)]

    def make_area(
        name: str,
        level: str,
        parent: str | None,
        cell: list[_XY],
        population: int,
        center: Coordinate | None = None,
    ) -> SynthArea:
        if center is None:
            cx, cy = _polygon_centroid(cell)
            center = projection.to_latlon(cx, cy)
        vertices = [projection.to_latlon(x, y) for x, y in cell]
        return SynthArea(
            name=name,
            center=center,
            population=population,
            level=level,
            parent=parent,
            footprint=Polygon(vertices, anchor=anchor),
        )

    # Geometry first: states → cities → suburbs, depth-first, so leaf
    # order (hence the population draw order) is stable under the seed.
    city_cells: list[tuple[str, int, list[_XY]]] = []  # (state name, city idx, cell)
    suburb_cells: list[tuple[str, list[_XY]]] = []  # (city name, cell)
    suburbs_per_city: list[int] = []
    city_index = 0
    for si, state_cell in enumerate(state_cells):
        state_name = f"ST{si:02d}"
        seeds = _spread_seeds(state_cell, spec.cities, rng)
        for ci, cell in enumerate(_voronoi_cells(seeds, state_cell)):
            cell = _ensure_ccw(cell)
            city_name = f"{state_name}-C{ci:02d}"
            city_cells.append((state_name, city_index, cell))
            n_leaves = city_leaf_counts[city_index]
            suburbs_per_city.append(n_leaves)
            leaf_seeds = _spread_seeds(cell, n_leaves, rng)
            if n_leaves == 1:
                leaf_polys = [cell]
            else:
                leaf_polys = [_ensure_ccw(c) for c in _voronoi_cells(leaf_seeds, cell)]
            for ui, leaf in enumerate(leaf_polys):
                suburb_cells.append((city_name, leaf))
            city_index += 1

    # Populations: leaves draw log-normal sizes integerised to the exact
    # country total; parents are exact sums of their children.
    leaf_pops = _integerise(
        rng.lognormal(mean=0.0, sigma=1.0, size=len(suburb_cells)),
        spec.total_population,
    )

    suburbs: list[SynthArea] = []
    for (city_name, cell), pop, ui in zip(
        suburb_cells, leaf_pops, _suburb_ordinals(suburbs_per_city)
    ):
        suburbs.append(
            make_area(f"{city_name}-U{ui:03d}", "suburb", city_name, cell, int(pop))
        )

    # Parents anchor their centre on the capital — the most populous
    # child (ties to build order via max()'s first-winner rule) — so the
    # state- and city-scale ε-discs capture the same activity clusters
    # the paper's hand-picked capitals do.
    cities: list[SynthArea] = []
    cursor = 0
    for (state_name, idx, cell), n_leaves in zip(city_cells, suburbs_per_city):
        members = suburbs[cursor : cursor + n_leaves]
        pop = int(leaf_pops[cursor : cursor + n_leaves].sum())
        cursor += n_leaves
        capital = max(members, key=lambda a: a.population)
        ci = len([c for c in cities if c.parent == state_name])
        cities.append(
            make_area(
                f"{state_name}-C{ci:02d}", "city", state_name, cell, pop,
                center=capital.center,
            )
        )

    states: list[SynthArea] = []
    for si, cell in enumerate(state_cells):
        state_name = f"ST{si:02d}"
        members = [c for c in cities if c.parent == state_name]
        pop = sum(c.population for c in members)
        capital = max(members, key=lambda a: a.population)
        states.append(
            make_area(state_name, "state", None, cell, pop, center=capital.center)
        )

    return SyntheticGazetteer(
        spec=spec,
        states=tuple(states),
        cities=tuple(cities),
        suburbs=tuple(suburbs),
    )


def _suburb_ordinals(suburbs_per_city: list[int]) -> list[int]:
    """Per-city suburb ordinals, flattened in build order."""
    out: list[int] = []
    for count in suburbs_per_city:
        out.extend(range(count))
    return out


@lru_cache(maxsize=8)
def cached_gazetteer(spec_string: str) -> SyntheticGazetteer:
    """Build (or reuse) the gazetteer named by a spec string.

    The builder is pure, so caching by the canonical spec string is
    safe; worlds, services and tests can all resolve the same spec
    without paying the Voronoi partition more than once per process.
    """
    spec = parse_gazetteer_spec(spec_string)
    if spec is None:
        raise GazetteerSpecError("the legacy gazetteer is not synthesised; use repro.data.gazetteer")
    return build_gazetteer(spec)
