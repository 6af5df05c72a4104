"""Tests for repro.viz.image (PPM output)."""

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.geo.grid import DensityGrid, GridSpec
from repro.viz.image import density_to_rgb, save_density_ppm


def _grid():
    box = BoundingBox(min_lat=-40, max_lat=-10, min_lon=110, max_lon=155)
    grid = DensityGrid(GridSpec(bbox=box, n_rows=20, n_cols=30))
    rng = np.random.default_rng(0)
    grid.add_many(rng.uniform(-40, -10, 2000), rng.uniform(110, 155, 2000))
    return grid


class TestDensityToRgb:
    def test_shape_and_dtype(self):
        rgb = density_to_rgb(_grid())
        assert rgb.shape == (20, 30, 3)
        assert rgb.dtype == np.uint8

    def test_dense_cells_brighter(self):
        grid = _grid()
        rgb = density_to_rgb(grid)
        counts_north_up = grid.counts[::-1, :]
        brightest = np.unravel_index(np.argmax(counts_north_up), counts_north_up.shape)
        darkest = np.unravel_index(np.argmin(counts_north_up), counts_north_up.shape)
        assert rgb[brightest].sum() > rgb[darkest].sum()

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            density_to_rgb(_grid(), gamma=0.0)


class TestPpmRoundTrip:
    def test_save_and_load(self, tmp_path):
        grid = _grid()
        path = tmp_path / "density.ppm"
        save_density_ppm(grid, path)
        pixels = path.read_bytes().split(b"\n", 3)[3]
        back = np.frombuffer(pixels, dtype=np.uint8).reshape(20, 30, 3)
        assert np.array_equal(back, density_to_rgb(grid))

    def test_header_format(self, tmp_path):
        path = tmp_path / "density.ppm"
        save_density_ppm(_grid(), path)
        with open(path, "rb") as handle:
            assert handle.readline() == b"P6\n"
            assert handle.readline() == b"30 20\n"
            assert handle.readline() == b"255\n"

