"""ε-radius spatial queries.

Population extraction (Section III of the paper) asks, for each of 60
area centres, which tweets fall within a search radius ε (50 km, 25 km,
2 km or 0.5 km depending on scale).  Over a multi-million-tweet corpus a
brute-force scan per centre is wasteful, so two index implementations are
provided:

* :class:`BruteForceIndex` — vectorised haversine over every point.
  Simple, obviously correct; used as the reference in tests and in the
  A2 ablation benchmark.
* :class:`GridIndex` — points are bucketed into a uniform lat/lon grid;
  a query visits only the cells intersecting the query disc's bounding
  box, then applies the exact haversine filter.  Results are identical
  to brute force (property-tested), just faster for small radii.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.coords import Coordinate
from repro.geo.distance import EARTH_RADIUS_KM, points_to_point_km
from repro.geo.grid import GridSpec

_CoordLike = Coordinate | tuple[float, float]


@dataclass(frozen=True, slots=True)
class RadiusQueryResult:
    """Points found within a query radius.

    Attributes
    ----------
    indices:
        Positions (into the arrays the index was built from) of the
        matching points, in ascending index order.
    distances_km:
        Haversine distance of each matching point from the query centre,
        aligned with ``indices``.
    """

    indices: np.ndarray
    distances_km: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)


def _as_latlon(center: _CoordLike) -> tuple[float, float]:
    if isinstance(center, Coordinate):
        return center.lat, center.lon
    return float(center[0]), float(center[1])


class BruteForceIndex:
    """Exact radius queries by scanning every point.

    The reference implementation: every query computes the vectorised
    haversine distance from all points to the centre and filters.
    """

    def __init__(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> None:
        self._lats = np.asarray(lats_deg, dtype=np.float64)
        self._lons = np.asarray(lons_deg, dtype=np.float64)
        if self._lats.shape != self._lons.shape or self._lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")

    def __len__(self) -> int:
        return int(self._lats.size)

    def query_radius(self, center: _CoordLike, radius_km: float) -> RadiusQueryResult:
        """All points within ``radius_km`` of ``center`` (boundary inclusive)."""
        if radius_km < 0:
            raise ValueError(f"radius must be non-negative, got {radius_km}")
        dists = points_to_point_km(self._lats, self._lons, center)
        mask = dists <= radius_km
        indices = np.nonzero(mask)[0]
        return RadiusQueryResult(indices=indices, distances_km=dists[indices])

    def count_radius(self, center: _CoordLike, radius_km: float) -> int:
        """Number of points within the radius (cheaper than a full query)."""
        if radius_km < 0:
            raise ValueError(f"radius must be non-negative, got {radius_km}")
        dists = points_to_point_km(self._lats, self._lons, center)
        return int((dists <= radius_km).sum())


class GridIndex:
    """Grid-accelerated radius queries with exact haversine filtering.

    Points are grouped by grid cell at build time.  A query expands the
    query disc into a conservative rectangle of candidate cells — with the
    longitude margin widened by the cosine of the query latitude — and
    runs the exact distance filter only on candidates.
    """

    def __init__(
        self,
        lats_deg: np.ndarray,
        lons_deg: np.ndarray,
        spec: GridSpec | None = None,
        target_points_per_cell: float = 64.0,
    ) -> None:
        self._lats = np.asarray(lats_deg, dtype=np.float64)
        self._lons = np.asarray(lons_deg, dtype=np.float64)
        if self._lats.shape != self._lons.shape or self._lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        if spec is None:
            spec = self._auto_spec(target_points_per_cell)
        self.spec = spec
        self._build_buckets()

    def _auto_spec(self, target_points_per_cell: float) -> GridSpec:
        """Choose a grid so the average occupied cell holds a modest count."""
        n = max(1, self._lats.size)
        if self._lats.size == 0:
            bbox = BoundingBox(min_lat=-90, max_lat=90, min_lon=-180, max_lon=180)
            return GridSpec(bbox=bbox, n_rows=1, n_cols=1)
        bbox = BoundingBox(
            min_lat=float(self._lats.min()),
            max_lat=float(self._lats.max()),
            min_lon=float(self._lons.min()),
            max_lon=float(self._lons.max()),
        ).expanded(1e-9)
        n_cells = max(1, int(n / max(target_points_per_cell, 1.0)))
        side = max(1, int(np.sqrt(n_cells)))
        return GridSpec(bbox=bbox, n_rows=side, n_cols=side)

    def _build_buckets(self) -> None:
        """Sort point indices by cell id so each bucket is one slice."""
        n = self._lats.size
        if n == 0:
            self._order = np.empty(0, dtype=np.int64)
            self._cell_ids_sorted = np.empty(0, dtype=np.int64)
            self._bucket_starts = {}
            return
        cells = self.spec.cells_of(self._lats, self._lons)
        cell_ids = cells[:, 0] * self.spec.n_cols + cells[:, 1]
        cell_ids[cells[:, 0] < 0] = -1
        order = np.argsort(cell_ids, kind="stable")
        self._order = order
        self._cell_ids_sorted = cell_ids[order]
        # Map each occupied cell id to its [start, stop) slice in the order.
        unique_ids, starts = np.unique(self._cell_ids_sorted, return_index=True)
        stops = np.append(starts[1:], n)
        self._bucket_starts = {
            int(cid): (int(start), int(stop))
            for cid, start, stop in zip(unique_ids, starts, stops)
            if cid >= 0
        }

    def __len__(self) -> int:
        return int(self._lats.size)

    def _candidate_indices(self, center: _CoordLike, radius_km: float) -> np.ndarray:
        """Indices of points in all cells intersecting the query rectangle."""
        clat, clon = _as_latlon(center)
        km_per_deg_lat = np.pi * EARTH_RADIUS_KM / 180.0
        margin_lat = radius_km / km_per_deg_lat
        cos_lat = max(np.cos(np.radians(clat)), 1e-9)
        margin_lon = radius_km / (km_per_deg_lat * cos_lat)
        spec = self.spec
        lo_row = int(np.floor((clat - margin_lat - spec.bbox.min_lat) / spec.cell_height_deg))
        hi_row = int(np.floor((clat + margin_lat - spec.bbox.min_lat) / spec.cell_height_deg))
        lo_col = int(np.floor((clon - margin_lon - spec.bbox.min_lon) / spec.cell_width_deg))
        hi_col = int(np.floor((clon + margin_lon - spec.bbox.min_lon) / spec.cell_width_deg))
        lo_row = max(lo_row, 0)
        lo_col = max(lo_col, 0)
        hi_row = min(hi_row, spec.n_rows - 1)
        hi_col = min(hi_col, spec.n_cols - 1)
        if lo_row > hi_row or lo_col > hi_col:
            return np.empty(0, dtype=np.int64)
        chunks = []
        for row in range(lo_row, hi_row + 1):
            base = row * spec.n_cols
            for col in range(lo_col, hi_col + 1):
                bucket = self._bucket_starts.get(base + col)
                if bucket is not None:
                    chunks.append(self._order[bucket[0] : bucket[1]])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def query_radius(self, center: _CoordLike, radius_km: float) -> RadiusQueryResult:
        """All indexed points within ``radius_km`` of ``center``.

        Returns exactly the same set as :class:`BruteForceIndex` on the
        same data (indices sorted ascending), assuming all points fell
        inside the index's grid box at build time.
        """
        if radius_km < 0:
            raise ValueError(f"radius must be non-negative, got {radius_km}")
        candidates = self._candidate_indices(center, radius_km)
        if candidates.size == 0:
            return RadiusQueryResult(
                indices=np.empty(0, dtype=np.int64),
                distances_km=np.empty(0, dtype=np.float64),
            )
        dists = points_to_point_km(self._lats[candidates], self._lons[candidates], center)
        mask = dists <= radius_km
        hits = candidates[mask]
        hit_dists = dists[mask]
        order = np.argsort(hits, kind="stable")
        return RadiusQueryResult(indices=hits[order], distances_km=hit_dists[order])

    def count_radius(self, center: _CoordLike, radius_km: float) -> int:
        """Number of indexed points within the radius."""
        return len(self.query_radius(center, radius_km))


#: Point-set size above which :func:`build_index` prefers the grid index.
GRID_INDEX_THRESHOLD = 2000


def build_index(
    lats: np.ndarray, lons: np.ndarray, prefer_grid: bool | None = None
) -> GridIndex | BruteForceIndex:
    """A spatial index over point columns, grid-backed for large sets."""
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if prefer_grid is None:
        prefer_grid = lats.size > GRID_INDEX_THRESHOLD
    if prefer_grid:
        return GridIndex(lats, lons)
    return BruteForceIndex(lats, lons)


class CenterGridIndex:
    """Grid-bucketed nearest-centre labelling for a fixed ε radius.

    The labelling hot path asks, for each point, "which is the nearest
    of n centres within ε?".  The dense kernel answers with an
    ``(n_points, n_centres)`` distance matrix — O(n·m) work that is fine
    for the paper's 60 areas but not for a country-scale gazetteer.
    This index precomputes, for every cell of a uniform lat/lon grid,
    the list of centres whose ε-disc could reach that cell; labelling
    then touches only each point's cell candidates.

    Equivalence to the dense kernel is *bitwise*, by construction:

    * candidate distances are computed with the single-centre call
      ``points_to_point_km(point_lats, point_lons, centre)``, whose
      result is bitwise the dense kernel's column for that centre (see
      :func:`~repro.geo.distance.points_to_points_km`), and those ufuncs
      are elementwise, so each candidate distance equals the
      corresponding dense matrix entry;
    * candidate registration is conservative (a centre is a candidate
      of every cell intersecting its margin rectangle, with the
      longitude margin widened for the pole-most latitude the disc can
      reach), so every centre within ε of a point is among that point's
      candidates — non-candidates are provably ``> ε``, exactly the
      entries the dense kernel masks to ``inf``;
    * candidates are scanned in ascending centre order with a
      strict-``<`` best-distance update, which is the first-minimum
      rule of ``argmin``.

    Hence same winner, same tie-break, same outside-ε misses — proven
    by the hypothesis suite in ``tests/core/test_world_index.py``.
    """

    #: Longitude-margin safety factor: the planar ε→degrees conversion
    #: underestimates the true spherical disc width by O((ε/R)²); 5 % is
    #: orders of magnitude more than needed for ε ≤ 100 km.
    _LON_SAFETY = 1.05

    def __init__(
        self,
        lats_deg: np.ndarray,
        lons_deg: np.ndarray,
        radius_km: float,
        max_cells_per_side: int = 512,
    ) -> None:
        if radius_km <= 0:
            raise ValueError(f"radius must be positive, got {radius_km}")
        self._lats = np.asarray(lats_deg, dtype=np.float64)
        self._lons = np.asarray(lons_deg, dtype=np.float64)
        if self._lats.shape != self._lons.shape or self._lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        if self._lats.size == 0:
            raise ValueError("cannot index zero centres")
        self.radius_km = float(radius_km)

        km_per_deg = np.pi * EARTH_RADIUS_KM / 180.0
        margin_lat = self.radius_km / km_per_deg
        lo_lat = float(self._lats.min()) - margin_lat
        hi_lat = float(self._lats.max()) + margin_lat
        # The pole-most latitude any in-range point can have bounds how
        # wide (in degrees of longitude) an ε separation can be.
        extreme_lat = min(max(abs(lo_lat), abs(hi_lat)), 89.9)
        cos_extreme = np.cos(np.radians(extreme_lat))
        if cos_extreme < 0.1:
            margin_lon = 360.0  # near-polar: candidate discs span all columns
        else:
            margin_lon = self.radius_km / (km_per_deg * cos_extreme) * self._LON_SAFETY
        self._margin_lat = margin_lat
        self._margin_lon = margin_lon

        bbox = BoundingBox(
            min_lat=max(-90.0, lo_lat),
            max_lat=min(90.0, hi_lat),
            min_lon=float(self._lons.min()) - margin_lon,
            max_lon=float(self._lons.max()) + margin_lon,
        )
        # Cells roughly ε across (so a disc touches O(1) cells), capped
        # so tiny radii over a country box cannot explode the grid.
        lat_cells = int(np.ceil(bbox.lat_span * km_per_deg / self.radius_km))
        lon_km_per_deg = km_per_deg * max(np.cos(np.radians(bbox.center.lat)), 0.1)
        lon_cells = int(np.ceil(bbox.lon_span * lon_km_per_deg / self.radius_km))
        self.spec = GridSpec(
            bbox=bbox,
            n_rows=int(np.clip(lat_cells, 1, max_cells_per_side)),
            n_cols=int(np.clip(lon_cells, 1, max_cells_per_side)),
        )
        self._build_candidates()

    def _build_candidates(self) -> None:
        """Register every centre with each cell its margin rectangle touches."""
        spec = self.spec
        candidates: dict[int, list[int]] = {}
        for area_index in range(self._lats.size):
            clat = self._lats[area_index]
            clon = self._lons[area_index]
            lo_row = int(np.floor((clat - self._margin_lat - spec.bbox.min_lat) / spec.cell_height_deg))
            hi_row = int(np.floor((clat + self._margin_lat - spec.bbox.min_lat) / spec.cell_height_deg))
            lo_col = int(np.floor((clon - self._margin_lon - spec.bbox.min_lon) / spec.cell_width_deg))
            hi_col = int(np.floor((clon + self._margin_lon - spec.bbox.min_lon) / spec.cell_width_deg))
            lo_row = max(lo_row, 0)
            lo_col = max(lo_col, 0)
            hi_row = min(hi_row, spec.n_rows - 1)
            hi_col = min(hi_col, spec.n_cols - 1)
            for row in range(lo_row, hi_row + 1):
                base = row * spec.n_cols
                for col in range(lo_col, hi_col + 1):
                    # Ascending centre order by construction of the loop.
                    candidates.setdefault(base + col, []).append(area_index)
        self._candidates = candidates

    def __len__(self) -> int:
        return int(self._lats.size)

    @property
    def n_cells_occupied(self) -> int:
        """Number of grid cells with at least one candidate centre."""
        return len(self._candidates)

    def label_points(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
        """Nearest centre within ε for each point, else -1.

        Bitwise identical to the dense masked-argmin kernel (see the
        class docstring for the argument); points outside the expanded
        grid box are provably farther than ε from every centre and
        label -1 without any distance computation.
        """
        return self.label_and_contain(lats_deg, lons_deg)[0]

    def label_and_contain(
        self, lats_deg: np.ndarray, lons_deg: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest labels plus CSR containment from one candidate scan.

        Returns ``(labels, indptr, indices)``: ``labels`` as from
        :meth:`label_points`, and the centres within ε of point ``i`` as
        ``indices[indptr[i]:indptr[i + 1]]``, ascending.  Containment is
        collected from the same candidate distances that pick the
        nearest centre, so it equals the dense ``distance <= ε``
        membership matrix's non-zeros by the class docstring's argument
        (non-candidates are provably outside ε).
        """
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        if lats.shape != lons.shape or lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        n = lats.size
        labels = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return labels, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        cells = self.spec.cells_of(lats, lons)
        cell_ids = cells[:, 0] * self.spec.n_cols + cells[:, 1]
        cell_ids[cells[:, 0] < 0] = -1
        order = np.argsort(cell_ids, kind="stable")
        sorted_ids = cell_ids[order]
        boundaries = np.nonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])[0]
        stops = np.append(boundaries[1:], n)
        hit_rows: list[np.ndarray] = []
        hit_areas: list[int] = []
        for start, stop in zip(boundaries, stops):
            cell_id = int(sorted_ids[start])
            if cell_id < 0:
                continue
            candidates = self._candidates.get(cell_id)
            if not candidates:
                continue
            rows = order[start:stop]
            group_lats = lats[rows]
            group_lons = lons[rows]
            best = np.full(rows.size, np.inf, dtype=np.float64)
            best_idx = np.full(rows.size, -1, dtype=np.int64)
            for area_index in candidates:
                dists = points_to_point_km(
                    group_lats,
                    group_lons,
                    (self._lats[area_index], self._lons[area_index]),
                )
                within = dists <= self.radius_km
                closer = within & (dists < best)
                best[closer] = dists[closer]
                best_idx[closer] = area_index
                hit_rows.append(rows[within])
                hit_areas.append(area_index)
            labels[rows] = best_idx
        if not hit_rows:
            return labels, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        point_rows = np.concatenate(hit_rows)
        areas = np.repeat(
            np.array(hit_areas, dtype=np.int64), [r.size for r in hit_rows]
        )
        # Each point sits in one cell, whose candidates were scanned in
        # ascending centre order: a stable sort by point keeps every
        # row's centres ascending.
        by_point = np.argsort(point_rows, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(point_rows, minlength=n), out=indptr[1:])
        return labels, indptr, areas[by_point]

    def label_point(self, lat: float, lon: float) -> int:
        """Scalar convenience over :meth:`label_points`."""
        return int(self.label_points(np.array([lat]), np.array([lon]))[0])
