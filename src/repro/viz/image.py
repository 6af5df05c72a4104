"""PPM image output: the Fig 1 density map as an actual picture.

No imaging library is assumed: binary PPM (P6) is a three-line header
plus raw RGB bytes, readable by effectively every image viewer and
converter.  The colour ramp mimics the paper's dark-to-bright density
scale.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.geo.grid import DensityGrid

#: Piecewise-linear colour ramp stops (position in [0,1], (r, g, b)).
_RAMP = (
    (0.0, (8, 8, 32)),
    (0.25, (32, 32, 128)),
    (0.5, (64, 160, 160)),
    (0.75, (240, 208, 64)),
    (1.0, (255, 255, 224)),
)


def _apply_ramp(values: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to RGB via the ramp; returns uint8 (..., 3)."""
    values = np.clip(values, 0.0, 1.0)
    positions = np.array([stop[0] for stop in _RAMP])
    colors = np.array([stop[1] for stop in _RAMP], dtype=np.float64)
    rgb = np.empty(values.shape + (3,), dtype=np.float64)
    for channel in range(3):
        rgb[..., channel] = np.interp(values, positions, colors[:, channel])
    return rgb.astype(np.uint8)


def density_to_rgb(grid: DensityGrid, gamma: float = 1.0) -> np.ndarray:
    """The grid's log-density as an RGB array (north up).

    Empty cells map to the ramp's dark end; ``gamma`` < 1 brightens the
    sparse periphery.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    log_density = grid.log_density()
    top = max(float(log_density.max()), 1e-9)
    normalized = (log_density / top) ** gamma
    return _apply_ramp(normalized[::-1, :])  # row 0 = south; flip north-up


def save_density_ppm(
    grid: DensityGrid, path: str | Path, gamma: float = 1.0
) -> None:
    """Write the density map as a binary PPM (P6) image."""
    rgb = density_to_rgb(grid, gamma=gamma)
    height, width, _channels = rgb.shape
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(rgb.tobytes())

