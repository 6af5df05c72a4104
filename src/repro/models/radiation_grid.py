"""Radiation with high-resolution intervening population.

The paper attributes Radiation's failure on Australia partly to the
coarse area system: with only 20 mass points, the intervening
population ``s`` jumps in huge steps.  Its future work proposes
"incorporating census data of higher resolutions".  This module does
that: ``s`` is computed from a fine population *raster* instead of the
area points, so the circle around an origin accumulates population
smoothly.

Two raster sources are supported:

* :func:`population_grid_from_world` — the synthetic world's true
  population, rasterised (the "census of higher resolution" a real
  deployment would buy);
* :func:`population_grid_from_corpus` — tweet counts as a population
  proxy, rescaled to the total census population (the paper's Section
  III result says this is legitimate — using the data to refine its own
  model).

The A10 ablation benchmark asks the paper's open question: does higher
resolution rescue the radiation model on Australian geography?
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.data.corpus import TweetCorpus
from repro.extraction.mobility import ODFlows, ODPairs
from repro.geo.bbox import AUSTRALIA_BBOX
from repro.geo.distance import points_to_point_km
from repro.geo.grid import DensityGrid, GridSpec
from repro.models.base import (
    FittedMobilityModel,
    MobilityModel,
    ModelFitError,
    fit_log_scale,
    positive_pairs_mask,
)
from repro.models.radiation import radiation_base

if TYPE_CHECKING:
    # Type-only: the function body duck-types over .sites, so models
    # carries no runtime dependency on the synth layer.
    from repro.synth.population import World


class PopulationGrid:
    """A lat/lon raster of population mass with fast disc sums.

    Cell masses are stored together with cell-centre coordinates; disc
    queries use exact haversine distances from an origin to every
    occupied cell (the occupied-cell count is a few thousand, so a
    vectorised scan per query is fast and exact).
    """

    def __init__(self, spec: GridSpec, masses: np.ndarray) -> None:
        if masses.shape != (spec.n_rows, spec.n_cols):
            raise ValueError(
                f"masses {masses.shape} incompatible with grid "
                f"{spec.n_rows}x{spec.n_cols}"
            )
        if np.any(masses < 0):
            raise ValueError("cell masses must be non-negative")
        self.spec = spec
        rows, cols = np.nonzero(masses)
        self.cell_masses = masses[rows, cols].astype(np.float64)
        lats = np.empty(rows.size)
        lons = np.empty(rows.size)
        for k, (r, c) in enumerate(zip(rows, cols)):
            lats[k], lons[k] = spec.cell_center(int(r), int(c))
        self.cell_lats = lats
        self.cell_lons = lons

    @property
    def n_occupied_cells(self) -> int:
        """Number of non-empty raster cells."""
        return int(self.cell_masses.size)

    # repro: allow[reachability] oracle: tests/models/test_radiation_grid.py checks the cumulative profile against it
    def mass_within(self, center: tuple[float, float], radius_km: float) -> float:
        """Total raster mass within ``radius_km`` of a point."""
        if radius_km < 0:
            raise ValueError("radius must be non-negative")
        distances = points_to_point_km(self.cell_lats, self.cell_lons, center)
        return float(self.cell_masses[distances <= radius_km].sum())

    def cumulative_mass_profile(
        self, center: tuple[float, float], radii_km: np.ndarray
    ) -> np.ndarray:
        """Mass within each of several radii of one centre (one scan)."""
        distances = points_to_point_km(self.cell_lats, self.cell_lons, center)
        order = np.argsort(distances)
        sorted_distances = distances[order]
        cumulative = np.cumsum(self.cell_masses[order])
        indices = np.searchsorted(sorted_distances, np.asarray(radii_km), side="right")
        profile = np.zeros(len(radii_km))
        nonzero = indices > 0
        profile[nonzero] = cumulative[indices[nonzero] - 1]
        return profile


def population_grid_from_world(world: World, cell_km: float = 25.0) -> PopulationGrid:
    """Rasterise the synthetic world's true site populations."""
    spec = GridSpec.for_resolution_km(AUSTRALIA_BBOX, cell_km)
    masses = np.zeros((spec.n_rows, spec.n_cols))
    for site in world.sites:
        cell = spec.cell_of(site.activity_center.lat, site.activity_center.lon)
        if cell is not None:
            masses[cell] += site.population
    return PopulationGrid(spec, masses)


def population_grid_from_corpus(
    corpus: TweetCorpus, total_population: float, cell_km: float = 25.0
) -> PopulationGrid:
    """Tweet density rescaled to census totals as a population raster.

    Section III's feasibility result, applied: the tweet raster is a
    serviceable stand-in for a fine census raster.
    """
    if total_population <= 0:
        raise ValueError("total_population must be positive")
    spec = GridSpec.for_resolution_km(AUSTRALIA_BBOX, cell_km)
    grid = DensityGrid(spec)
    grid.add_many(corpus.lats, corpus.lons)
    counts = grid.counts.astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("corpus has no tweets inside the Australian box")
    return PopulationGrid(spec, counts * (total_population / total))


class FittedGridRadiation(FittedMobilityModel):
    """Grid radiation with bound per-pair s values and scale C."""

    def __init__(self, s_matrix: np.ndarray, log_c: float) -> None:
        self.s_matrix = s_matrix
        self.log_c = log_c

    @property
    def name(self) -> str:
        return "Radiation HighRes"

    def predict(self, pairs: ODPairs) -> np.ndarray:
        s = self.s_matrix[pairs.source, pairs.dest]
        return np.exp(self.log_c) * radiation_base(pairs.m, pairs.n, s)


class GridRadiationModel(MobilityModel):
    """Radiation whose intervening population comes from a raster.

    ``s_ij`` is the raster mass within ``d_ij`` of origin i's centre,
    minus the origin and destination *area* populations (their own mass
    should not intervene, mirroring Eq 3's exclusion).
    """

    def __init__(
        self,
        flows: ODFlows,
        population_grid: PopulationGrid,
    ) -> None:
        self.flows = flows
        self.grid = population_grid
        self._s_matrix = self._build_s_matrix()

    def _build_s_matrix(self) -> np.ndarray:
        areas = self.flows.areas
        populations = self.flows.populations()
        distances = self.flows.distance_matrix_km()
        n = len(areas)
        s = np.zeros((n, n))
        for i, area in enumerate(areas):
            center = (area.center.lat, area.center.lon)
            profile = self.grid.cumulative_mass_profile(center, distances[i])
            s[i] = profile - populations[i] - populations
            s[i, i] = 0.0
        np.clip(s, 0.0, None, out=s)
        return s

    @property
    def name(self) -> str:
        return "Radiation HighRes"

    @property
    def s_matrix(self) -> np.ndarray:
        """The raster-derived intervening-population matrix."""
        return self._s_matrix

    def fit(self, pairs: ODPairs) -> FittedGridRadiation:
        """Fit only the global scale C, as for point radiation."""
        keep = positive_pairs_mask(pairs)
        if not keep.any():
            raise ModelFitError("GridRadiation: no positive pairs")
        s = self._s_matrix[pairs.source[keep], pairs.dest[keep]]
        base = radiation_base(pairs.m[keep], pairs.n[keep], s)
        if np.any(base <= 0):
            raise ModelFitError("GridRadiation: degenerate kernel value")
        log_c = fit_log_scale(np.log(pairs.flow[keep]), np.log(base))
        return FittedGridRadiation(self._s_matrix, log_c)
