"""Uniform lat/lon grids: density maps and spatial-hash buckets.

The same gridding machinery serves two purposes in the reproduction:

1. Figure 1 of the paper is a log-scaled tweet-density map of Australia.
   :class:`DensityGrid` accumulates point counts into lat/lon cells and
   exposes the raw and log-scaled matrices the figure plots.
2. The ε-radius queries behind population extraction (Section III) are
   accelerated by bucketing points into grid cells; see
   :mod:`repro.geo.index`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.bbox import BoundingBox


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Geometry of a uniform lat/lon grid over a bounding box.

    The box is divided into ``n_rows`` equal latitude bands and ``n_cols``
    equal longitude bands.  Row 0 is the southernmost band and column 0
    the westernmost, so matrix coordinates read like a map flipped
    north-up by the renderer.
    """

    bbox: BoundingBox
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError(
                f"grid must have at least one cell, got {self.n_rows}x{self.n_cols}"
            )

    @property
    def cell_height_deg(self) -> float:
        """Latitude extent of one cell in degrees."""
        return self.bbox.lat_span / self.n_rows

    @property
    def cell_width_deg(self) -> float:
        """Longitude extent of one cell in degrees."""
        return self.bbox.lon_span / self.n_cols

    def cell_of(self, lat: float, lon: float) -> tuple[int, int] | None:
        """Grid cell containing a point, or ``None`` if outside the box.

        Points exactly on the top/right boundary are clamped into the last
        row/column so the box remains closed.
        """
        if not self.bbox.contains((lat, lon)):
            return None
        row = int((lat - self.bbox.min_lat) / self.cell_height_deg)
        col = int((lon - self.bbox.min_lon) / self.cell_width_deg)
        row = min(row, self.n_rows - 1)
        col = min(col, self.n_cols - 1)
        return row, col

    def cells_of(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
        """Vectorised cell lookup.

        Returns an ``(n, 2)`` integer array of ``(row, col)`` pairs;
        points outside the box get ``(-1, -1)``.
        """
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        inside = self.bbox.contains_mask(lats, lons)
        rows = np.floor((lats - self.bbox.min_lat) / self.cell_height_deg).astype(np.int64)
        cols = np.floor((lons - self.bbox.min_lon) / self.cell_width_deg).astype(np.int64)
        np.clip(rows, 0, self.n_rows - 1, out=rows)
        np.clip(cols, 0, self.n_cols - 1, out=cols)
        out = np.stack([rows, cols], axis=-1)
        out[~inside] = -1
        return out

    def cell_ids_of(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
        """Row-major cell id (``row * n_cols + col``) of each point.

        The cells :meth:`cells_of` assigns, as one int64 column with -1
        for points outside the box; inside the box the offset is never
        negative, so only the far edge needs clamping.
        """
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        rows = np.floor((lats - self.bbox.min_lat) / self.cell_height_deg)
        np.minimum(rows, self.n_rows - 1, out=rows)
        cols = np.floor((lons - self.bbox.min_lon) / self.cell_width_deg)
        np.minimum(cols, self.n_cols - 1, out=cols)
        rows *= self.n_cols
        rows += cols
        inside = self.bbox.contains_mask(lats, lons)
        return np.where(inside, rows, -1.0).astype(np.int64)

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        """The ``(lat, lon)`` centre of a grid cell."""
        if not (0 <= row < self.n_rows and 0 <= col < self.n_cols):
            raise IndexError(f"cell ({row}, {col}) outside {self.n_rows}x{self.n_cols} grid")
        lat = self.bbox.min_lat + (row + 0.5) * self.cell_height_deg
        lon = self.bbox.min_lon + (col + 0.5) * self.cell_width_deg
        return lat, lon

    @classmethod
    def for_resolution_km(
        cls, bbox: BoundingBox, cell_km: float, earth_radius_km: float = 6371.0088
    ) -> "GridSpec":
        """A grid whose cells are roughly ``cell_km`` across.

        Cell width in longitude is scaled by the cosine of the box's mean
        latitude so cells are approximately square on the ground.
        """
        if cell_km <= 0:
            raise ValueError(f"cell size must be positive, got {cell_km}")
        km_per_deg_lat = math.pi * earth_radius_km / 180.0
        mean_lat = math.radians(bbox.center.lat)
        km_per_deg_lon = km_per_deg_lat * max(math.cos(mean_lat), 1e-6)
        n_rows = max(1, math.ceil(bbox.lat_span * km_per_deg_lat / cell_km))
        n_cols = max(1, math.ceil(bbox.lon_span * km_per_deg_lon / cell_km))
        return cls(bbox=bbox, n_rows=n_rows, n_cols=n_cols)


class DensityGrid:
    """Accumulates point counts into a :class:`GridSpec`.

    This is the data structure behind the paper's Figure 1: add every
    tweet position, then read :attr:`counts` (raw) or
    :meth:`log_density` (the log10-scaled matrix the figure colours).
    """

    def __init__(self, spec: GridSpec) -> None:
        self.spec = spec
        self._counts = np.zeros((spec.n_rows, spec.n_cols), dtype=np.int64)
        self._n_added = 0
        self._n_outside = 0

    @property
    def counts(self) -> np.ndarray:
        """The raw count matrix (rows = latitude bands, south first)."""
        return self._counts

    @property
    def total_inside(self) -> int:
        """Number of points that landed inside the box."""
        return self._n_added

    @property
    def total_outside(self) -> int:
        """Number of points rejected for being outside the box."""
        return self._n_outside

    def add(self, lat: float, lon: float) -> bool:
        """Add one point; returns whether it fell inside the grid."""
        cell = self.spec.cell_of(lat, lon)
        if cell is None:
            self._n_outside += 1
            return False
        self._counts[cell] += 1
        self._n_added += 1
        return True

    def add_many(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> int:
        """Vectorised bulk add; returns the number of points inside."""
        cells = self.spec.cells_of(lats_deg, lons_deg)
        inside = cells[:, 0] >= 0
        rows = cells[inside, 0]
        cols = cells[inside, 1]
        np.add.at(self._counts, (rows, cols), 1)
        n_inside = int(inside.sum())
        self._n_added += n_inside
        self._n_outside += int(inside.size - n_inside)
        return n_inside

    def log_density(self, floor: float = 1.0) -> np.ndarray:
        """``log10(max(count, floor))`` matrix — the Fig 1 colour scale.

        Empty cells map to ``log10(floor)`` (0 for the default floor), so
        the scale starts at 10^0 exactly as in the paper's colour bar.
        """
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        return np.log10(np.maximum(self._counts.astype(np.float64), floor))

    def nonzero_cells(self) -> list[tuple[int, int, int]]:
        """All occupied cells as ``(row, col, count)`` tuples."""
        rows, cols = np.nonzero(self._counts)
        return [
            (int(r), int(c), int(self._counts[r, c])) for r, c in zip(rows, cols)
        ]
