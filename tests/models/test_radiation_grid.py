"""Tests for repro.models.radiation_grid."""

import numpy as np
import pytest

from repro.data.gazetteer import Scale
from repro.geo.bbox import BoundingBox
from repro.geo.grid import GridSpec
from repro.models.radiation_grid import (
    GridRadiationModel,
    PopulationGrid,
    population_grid_from_corpus,
    population_grid_from_world,
)


def _small_grid():
    spec = GridSpec(
        bbox=BoundingBox(min_lat=-35, max_lat=-30, min_lon=148, max_lon=153),
        n_rows=5,
        n_cols=5,
    )
    masses = np.zeros((5, 5))
    masses[2, 2] = 1000.0
    masses[0, 0] = 500.0
    return PopulationGrid(spec, masses)


class TestPopulationGrid:
    def test_total_and_occupied(self):
        grid = _small_grid()
        assert grid.cell_masses.sum() == 1500.0
        assert grid.n_occupied_cells == 2

    def test_mass_within_small_radius(self):
        grid = _small_grid()
        center_cell = grid.spec.cell_center(2, 2)
        assert grid.mass_within(center_cell, 10.0) == 1000.0

    def test_mass_within_large_radius(self):
        grid = _small_grid()
        center_cell = grid.spec.cell_center(2, 2)
        assert grid.mass_within(center_cell, 10_000.0) == 1500.0

    def test_cumulative_profile_monotone(self):
        grid = _small_grid()
        center_cell = grid.spec.cell_center(2, 2)
        radii = np.array([1.0, 50.0, 200.0, 1000.0])
        profile = grid.cumulative_mass_profile(center_cell, radii)
        assert np.all(np.diff(profile) >= 0)
        assert profile[-1] == 1500.0

    def test_profile_matches_mass_within(self):
        grid = _small_grid()
        center = (-33.0, 150.0)
        radii = np.array([10.0, 150.0, 400.0])
        profile = grid.cumulative_mass_profile(center, radii)
        for radius, value in zip(radii, profile):
            assert value == grid.mass_within(center, radius)

    def test_negative_mass_rejected(self):
        spec = GridSpec(
            bbox=BoundingBox(min_lat=0, max_lat=1, min_lon=0, max_lon=1),
            n_rows=2,
            n_cols=2,
        )
        with pytest.raises(ValueError):
            PopulationGrid(spec, np.array([[-1.0, 0], [0, 0]]))

    def test_shape_mismatch_rejected(self):
        spec = GridSpec(
            bbox=BoundingBox(min_lat=0, max_lat=1, min_lon=0, max_lon=1),
            n_rows=2,
            n_cols=2,
        )
        with pytest.raises(ValueError):
            PopulationGrid(spec, np.zeros((3, 3)))


class TestGridBuilders:
    def test_world_grid_conserves_population(self, medium_result):
        grid = population_grid_from_world(medium_result.world)
        assert grid.cell_masses.sum() == pytest.approx(
            medium_result.world.total_population, rel=1e-9
        )

    def test_corpus_grid_rescaled_to_census(self, medium_corpus):
        grid = population_grid_from_corpus(medium_corpus, total_population=2.0e7)
        assert grid.cell_masses.sum() == pytest.approx(2.0e7, rel=1e-9)

    def test_corpus_grid_invalid_total_raises(self, medium_corpus):
        with pytest.raises(ValueError):
            population_grid_from_corpus(medium_corpus, total_population=0.0)


class TestGridRadiationModel:
    def test_s_matrix_properties(self, medium_result, medium_context):
        flows = medium_context.flows(Scale.NATIONAL)
        grid = population_grid_from_world(medium_result.world)
        model = GridRadiationModel(flows, grid)
        s = model.s_matrix
        assert s.shape == (20, 20)
        assert np.all(np.diag(s) == 0)
        assert np.all(s >= 0)

    def test_s_smoother_than_point_version(self, medium_result, medium_context):
        """A fine raster yields intermediate s values the 20-point
        system cannot express (more distinct magnitudes)."""
        from repro.models.radiation import intervening_population_matrix

        flows = medium_context.flows(Scale.NATIONAL)
        grid = population_grid_from_world(medium_result.world, cell_km=25.0)
        fine = GridRadiationModel(flows, grid).s_matrix
        coarse = intervening_population_matrix(
            flows.populations(), flows.distance_matrix_km()
        )
        assert len(np.unique(np.round(fine, -3))) >= len(
            np.unique(np.round(coarse, -3))
        )

    def test_fit_and_predict(self, medium_result, medium_context):
        flows = medium_context.flows(Scale.NATIONAL)
        grid = population_grid_from_world(medium_result.world)
        pairs = flows.pairs()
        fitted = GridRadiationModel(flows, grid).fit(pairs)
        predictions = fitted.predict(pairs)
        assert np.all(np.isfinite(predictions))
        assert np.all(predictions > 0)

    def test_resolution_does_not_rescue_radiation(self, medium_result, medium_context):
        """The ablation's headline: on gravity-structured Australian
        flows, raster-resolution s leaves radiation far behind gravity —
        the failure is geographic, not a resolution artefact."""
        from repro.models import GravityModel, evaluate_fitted

        flows = medium_context.flows(Scale.NATIONAL)
        pairs = flows.pairs()
        grid = population_grid_from_world(medium_result.world)
        highres = evaluate_fitted(GridRadiationModel(flows, grid).fit(pairs), pairs)
        gravity = evaluate_fitted(GravityModel(2).fit(pairs), pairs)
        assert gravity.pearson_r > highres.pearson_r + 0.15
