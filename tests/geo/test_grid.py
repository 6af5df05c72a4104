"""Tests for repro.geo.grid."""

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.geo.grid import DensityGrid, GridSpec

BOX = BoundingBox(min_lat=0.0, max_lat=10.0, min_lon=0.0, max_lon=20.0)


class TestGridSpec:
    def test_cell_sizes(self):
        spec = GridSpec(bbox=BOX, n_rows=10, n_cols=20)
        assert spec.cell_height_deg == pytest.approx(1.0)
        assert spec.cell_width_deg == pytest.approx(1.0)

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            GridSpec(bbox=BOX, n_rows=0, n_cols=1)

    def test_cell_of_interior_point(self):
        spec = GridSpec(bbox=BOX, n_rows=10, n_cols=20)
        assert spec.cell_of(0.5, 0.5) == (0, 0)
        assert spec.cell_of(9.5, 19.5) == (9, 19)

    def test_cell_of_outside_returns_none(self):
        spec = GridSpec(bbox=BOX, n_rows=10, n_cols=20)
        assert spec.cell_of(11.0, 0.0) is None

    def test_boundary_clamps_into_last_cell(self):
        spec = GridSpec(bbox=BOX, n_rows=10, n_cols=20)
        assert spec.cell_of(10.0, 20.0) == (9, 19)

    def test_cells_of_vectorised_matches_scalar(self):
        spec = GridSpec(bbox=BOX, n_rows=7, n_cols=13)
        rng = np.random.default_rng(0)
        lats = rng.uniform(-2, 12, 200)
        lons = rng.uniform(-2, 22, 200)
        cells = spec.cells_of(lats, lons)
        for i in range(200):
            scalar = spec.cell_of(lats[i], lons[i])
            if scalar is None:
                assert cells[i, 0] == -1
            else:
                assert tuple(cells[i]) == scalar

    def test_cell_ids_of_flattens_cells_of(self):
        spec = GridSpec(bbox=BOX, n_rows=7, n_cols=13)
        rng = np.random.default_rng(1)
        edges = [0.0, 10.0, 20.0, -1e-12, 10.0 + 1e-12]
        lats = np.concatenate([rng.uniform(-2, 12, 200), edges, [5.0] * 5])
        lons = np.concatenate([rng.uniform(-2, 22, 200), [5.0] * 5, edges])
        cells = spec.cells_of(lats, lons)
        expected = np.where(cells[:, 0] < 0, -1, cells[:, 0] * spec.n_cols + cells[:, 1])
        ids = spec.cell_ids_of(lats, lons)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, expected)
        assert spec.cell_ids_of([np.nan, 5.0], [5.0, np.nan]).tolist() == [-1, -1]

    def test_cell_center_roundtrip(self):
        spec = GridSpec(bbox=BOX, n_rows=10, n_cols=20)
        lat, lon = spec.cell_center(3, 7)
        assert spec.cell_of(lat, lon) == (3, 7)

    def test_cell_center_out_of_range_raises(self):
        spec = GridSpec(bbox=BOX, n_rows=2, n_cols=2)
        with pytest.raises(IndexError):
            spec.cell_center(2, 0)

    def test_for_resolution_km(self):
        spec = GridSpec.for_resolution_km(BOX, cell_km=111.0)
        # 10 degrees of latitude ~ 1112 km -> about 10 rows.
        assert 9 <= spec.n_rows <= 11

    def test_for_resolution_invalid_raises(self):
        with pytest.raises(ValueError):
            GridSpec.for_resolution_km(BOX, cell_km=0)


class TestDensityGrid:
    def test_add_inside_and_outside(self):
        grid = DensityGrid(GridSpec(bbox=BOX, n_rows=2, n_cols=2))
        assert grid.add(1.0, 1.0)
        assert not grid.add(50.0, 1.0)
        assert grid.total_inside == 1
        assert grid.total_outside == 1

    def test_add_many_matches_scalar_adds(self):
        spec = GridSpec(bbox=BOX, n_rows=5, n_cols=5)
        rng = np.random.default_rng(1)
        lats = rng.uniform(-1, 11, 500)
        lons = rng.uniform(-1, 21, 500)
        bulk = DensityGrid(spec)
        bulk.add_many(lats, lons)
        scalar = DensityGrid(spec)
        for lat, lon in zip(lats, lons):
            scalar.add(lat, lon)
        assert np.array_equal(bulk.counts, scalar.counts)
        assert bulk.total_inside == scalar.total_inside

    def test_counts_sum(self):
        grid = DensityGrid(GridSpec(bbox=BOX, n_rows=3, n_cols=3))
        grid.add_many(np.full(10, 5.0), np.full(10, 5.0))
        assert grid.counts.sum() == 10

    def test_log_density_floor(self):
        grid = DensityGrid(GridSpec(bbox=BOX, n_rows=2, n_cols=2))
        grid.add(1.0, 1.0)
        logd = grid.log_density()
        assert logd.min() == 0.0  # empty cells at log10(1)
        assert logd.max() == 0.0  # single count is also log10(1)

    def test_log_density_invalid_floor(self):
        grid = DensityGrid(GridSpec(bbox=BOX, n_rows=2, n_cols=2))
        with pytest.raises(ValueError):
            grid.log_density(floor=0)

    def test_nonzero_cells(self):
        grid = DensityGrid(GridSpec(bbox=BOX, n_rows=2, n_cols=2))
        grid.add(1.0, 1.0)
        grid.add(1.0, 1.0)
        cells = grid.nonzero_cells()
        assert cells == [(0, 0, 2)]
