"""ε-radius spatial queries.

Population extraction (Section III of the paper) asks, for each of 60
area centres, which tweets fall within a search radius ε (50 km, 25 km,
2 km or 0.5 km depending on scale).  Over a multi-million-tweet corpus a
brute-force scan per centre is wasteful, so the batch kernels query a
point index:

* :class:`BruteForceIndex` — vectorised haversine over every point.
  Simple, obviously correct; used as the reference in tests and in the
  A2 ablation benchmark.
* :class:`GridIndex` — points are bucketed into a uniform lat/lon grid
  over their own bounding box; a query visits only the cells
  intersecting the query disc's bounding box, then applies the exact
  haversine filter.  Results are identical to brute force
  (property-tested), just faster for small radii.

Live labelling turns the question around — which centres are near each
point? — and :class:`CenterGridIndex` buckets the *centres* of a
country-scale world for that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.coords import Coordinate
from repro.geo.distance import (
    DISTANCE_BLOCK,
    EARTH_RADIUS_KM,
    _haversine,
    cos_latitudes,
    points_to_point_km,
)
from repro.geo.grid import GridSpec

_CoordLike = Coordinate | tuple[float, float]

#: Average points per occupied :class:`GridIndex` cell.
_POINTS_PER_CELL = 64.0

#: Widening of the grid indexes' margin rectangles; extra candidates only
#: cost time, the distance filter is exact.  :class:`GridIndex`'s margins
#: are exact bounds, so there it absorbs rounding at the disc edge;
#: :class:`CenterGridIndex`'s planar ε→degrees longitude margin
#: underestimates the spherical disc width by O((ε/R)²), which 5 % covers
#: many times over for ε ≤ 100 km.
_MARGIN_SAFETY = 1.05


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

    def __init__(self, lats_deg: np.ndarray, lons_deg: np.ndarray) -> None:
        self._lats = np.asarray(lats_deg, dtype=np.float64)
        self._lons = np.asarray(lons_deg, dtype=np.float64)
        if self._lats.shape != self._lons.shape or self._lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        self.spec = self._auto_spec()
        self._build_buckets()

    def _auto_spec(self) -> GridSpec:
        """A grid over the points' own box, about :data:`_POINTS_PER_CELL` per cell."""
        if self._lats.size == 0:
            bbox = BoundingBox(min_lat=-90, max_lat=90, min_lon=-180, max_lon=180)
            return GridSpec(bbox=bbox, n_rows=1, n_cols=1)
        bbox = BoundingBox(
            min_lat=float(self._lats.min()),
            max_lat=float(self._lats.max()),
            min_lon=float(self._lons.min()),
            max_lon=float(self._lons.max()),
        ).expanded(1e-9)
        n_cells = max(1, int(self._lats.size / _POINTS_PER_CELL))
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
        cell_ids = self.spec.cell_ids_of(self._lats, self._lons)
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
        """Indices of points in all cells intersecting the query rectangle.

        The rectangle holds the whole disc: a point within ``radius_km``
        differs from the centre by at most ``radius_km / R`` radians of
        latitude, and — from the haversine identity, with both
        latitudes at most ``reach`` from the equator — by at most
        ``2·asin(sin(radius_km / 2R) / cos(reach))`` of longitude.  A
        disc that reaches a pole or crosses the antimeridian spans every
        column.
        """
        clat, clon = _as_latlon(center)
        km_per_deg_lat = np.pi * EARTH_RADIUS_KM / 180.0
        margin_lat = radius_km / km_per_deg_lat * _MARGIN_SAFETY
        reach = min(abs(clat) + margin_lat, 90.0)
        ratio = np.sin(radius_km / (2.0 * EARTH_RADIUS_KM)) / np.cos(np.radians(reach))
        spec = self.spec
        lo_row = int(np.floor((clat - margin_lat - spec.bbox.min_lat) / spec.cell_height_deg))
        hi_row = int(np.floor((clat + margin_lat - spec.bbox.min_lat) / spec.cell_height_deg))
        margin_lon = 360.0
        if ratio < 1.0:
            margin_lon = float(np.degrees(2.0 * np.arcsin(ratio))) * _MARGIN_SAFETY
        if abs(clon) + margin_lon > 180.0:
            lo_col, hi_col = 0, spec.n_cols - 1
        else:
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
        same data (indices sorted ascending): the grid covers every
        indexed point and the candidate rectangle covers the disc.
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


class CenterGridIndex:
    """Grid-bucketed nearest-centre labelling for a fixed ε radius.

    The labelling hot path asks, for each point, "which is the nearest
    of n centres within ε?".  The dense kernel answers with an
    ``(n_points, n_centres)`` distance matrix — O(n·m) work that is fine
    for the paper's 60 areas but not for a country-scale gazetteer.
    This index precomputes, for every cell of a uniform lat/lon grid,
    the centres whose ε-disc could reach that cell, as CSR arrays;
    labelling then scores every (point, candidate centre) pair of a
    batch at once and touches no other centre.

    Equivalence to the dense kernel is *bitwise*, by construction:

    * pair distances are computed by the same elementwise haversine
      (:func:`~repro.geo.distance._haversine`) that fills the dense
      matrix, over each pair's point and centre degrees and the
      centre's :func:`math.cos` cosine, so each pair distance equals
      the corresponding dense matrix entry;
    * candidate registration is conservative (a centre is a candidate
      of every cell intersecting its margin rectangle, with the
      longitude margin widened for the pole-most latitude the disc can
      reach), so every centre within ε of a point is among that point's
      candidates — non-candidates are provably ``> ε``, exactly the
      entries the dense kernel masks to ``inf``;
    * each point's pairs are laid out in ascending centre order, and a
      stable sort of the within-ε pairs by (point, distance) puts the
      lowest-index centre first among equal distances, which is the
      first-minimum rule of ``argmin``.

    Longitude wraps at ±180°: when the margin box reaches past it, each
    centre also registers its rectangle shifted by ±360°, and a point
    outside the box is looked up at its longitude ± 360°, so a disc
    straddling the antimeridian still finds the points across it.

    Hence same winner, same tie-break, same outside-ε misses — proven
    by the hypothesis suite in ``tests/core/test_world_index.py``.
    """

    #: Cap on grid rows and columns, so tiny radii over a country box
    #: cannot explode the grid.
    _MAX_CELLS_PER_SIDE = 512

    def __init__(self, lats_deg: np.ndarray, lons_deg: np.ndarray, radius_km: float) -> None:
        if radius_km <= 0:
            raise ValueError(f"radius must be positive, got {radius_km}")
        self._lats = np.asarray(lats_deg, dtype=np.float64)
        self._lons = np.asarray(lons_deg, dtype=np.float64)
        if self._lats.shape != self._lons.shape or self._lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        if self._lats.size == 0:
            raise ValueError("cannot index zero centres")
        self.radius_km = float(radius_km)
        self._cos_lats = cos_latitudes(self._lats)

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
            margin_lon = self.radius_km / (km_per_deg * cos_extreme) * _MARGIN_SAFETY
        self._margin_lat = margin_lat
        self._margin_lon = margin_lon

        bbox = BoundingBox(
            min_lat=max(-90.0, lo_lat),
            max_lat=min(90.0, hi_lat),
            min_lon=float(self._lons.min()) - margin_lon,
            max_lon=float(self._lons.max()) + margin_lon,
        )
        # Cells roughly ε across, so a disc touches O(1) cells.
        lat_cells = int(np.ceil(bbox.lat_span * km_per_deg / self.radius_km))
        lon_km_per_deg = km_per_deg * max(np.cos(np.radians(bbox.center.lat)), 0.1)
        lon_cells = int(np.ceil(bbox.lon_span * lon_km_per_deg / self.radius_km))
        self.spec = GridSpec(
            bbox=bbox,
            n_rows=int(np.clip(lat_cells, 1, self._MAX_CELLS_PER_SIDE)),
            n_cols=int(np.clip(lon_cells, 1, self._MAX_CELLS_PER_SIDE)),
        )
        # Worlds whose box stays inside [-180, 180] build and query as
        # if longitude did not wrap.
        self._wraps = bbox.min_lon < -180.0 or bbox.max_lon > 180.0
        self._build_candidates()

    def _build_candidates(self) -> None:
        """Register every centre with each cell its margin rectangle touches.

        Each centre's rectangle of cells (and, in a wrapping world, its
        copies shifted by ±360°) expands into ``(cell, centre)`` pairs.
        One ``np.unique`` of the packed pair keys sorts them by cell,
        then by ascending centre, and drops a cell that a shifted copy
        reached twice.  The candidates of cell ``_cell_ids[k]`` (sorted
        occupied cell ids) are then
        ``_centres[_cell_indptr[k]:_cell_indptr[k + 1]]``, ascending.
        """
        spec = self.spec
        n_centres = self._lats.size
        lo_row = np.floor(
            (self._lats - self._margin_lat - spec.bbox.min_lat) / spec.cell_height_deg
        ).astype(np.int64)
        hi_row = np.floor(
            (self._lats + self._margin_lat - spec.bbox.min_lat) / spec.cell_height_deg
        ).astype(np.int64)
        np.maximum(lo_row, 0, out=lo_row)
        np.minimum(hi_row, spec.n_rows - 1, out=hi_row)
        shifts = (0.0, -360.0, 360.0) if self._wraps else (0.0,)
        lo_cols, hi_cols = [], []
        for shift in shifts:
            lons = self._lons + shift
            lo_cols.append(np.floor(
                (lons - self._margin_lon - spec.bbox.min_lon) / spec.cell_width_deg
            ).astype(np.int64))
            hi_cols.append(np.floor(
                (lons + self._margin_lon - spec.bbox.min_lon) / spec.cell_width_deg
            ).astype(np.int64))
        lo_col = np.maximum(np.concatenate(lo_cols), 0)
        hi_col = np.minimum(np.concatenate(hi_cols), spec.n_cols - 1)
        lo_row = np.tile(lo_row, len(shifts))
        n_rows = np.maximum(np.tile(hi_row, len(shifts)) - lo_row + 1, 0)
        n_cols = np.maximum(hi_col - lo_col + 1, 0)
        sizes = n_rows * n_cols
        # Pair k of a rectangle sits at row k // n_cols, column k % n_cols.
        k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        width = np.repeat(n_cols, sizes)
        rows = np.repeat(lo_row, sizes) + k // width
        cols = np.repeat(lo_col, sizes) + k % width
        centres = np.repeat(np.tile(np.arange(n_centres), len(shifts)), sizes)
        keys = np.unique((rows * spec.n_cols + cols) * n_centres + centres)
        cells, self._centres = np.divmod(keys, n_centres)
        self._cell_ids, starts = np.unique(cells, return_index=True)
        self._cell_indptr = np.append(starts, keys.size)

    def __len__(self) -> int:
        return int(self._lats.size)

    @property
    def n_cells_occupied(self) -> int:
        """Number of grid cells with at least one candidate centre."""
        return int(self._cell_ids.size)

    def label_and_contain(
        self, lats_deg: np.ndarray, lons_deg: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest labels plus CSR containment from one pair scan.

        Returns ``(labels, indptr, indices)``: the nearest centre within
        ε of each point (else -1), and the centres within ε of point ``i`` as
        ``indices[indptr[i]:indptr[i + 1]]``, ascending.  Each point's
        cell is found with one ``searchsorted`` over the occupied cells;
        its (point, candidate) pairs are expanded with one ``repeat``
        and a ragged gather, and scored with the elementwise haversine.
        The pairs within ε are the containment, already in (point,
        ascending centre) order, and a stable ``lexsort`` of them by
        (point, distance) puts each point's nearest first.  Both equal
        the dense kernel's answers by the class docstring's argument.
        Points outside the expanded grid box, or in a cell no disc
        reaches, are farther than ε from every centre and get no pairs.
        Rows go in blocks of about :data:`DISTANCE_BLOCK` pairs, so a
        whole corpus keeps bounded temporaries.
        """
        lats = np.asarray(lats_deg, dtype=np.float64)
        lons = np.asarray(lons_deg, dtype=np.float64)
        if lats.shape != lons.shape or lats.ndim != 1:
            raise ValueError("lats/lons must be equal-length 1-D arrays")
        n = lats.size
        labels = np.full(n, -1, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return labels, indptr, np.empty(0, dtype=np.int64)
        cell_lons = lons
        if self._wraps:
            box = self.spec.bbox
            cell_lons = np.where(lons < box.min_lon, lons + 360.0, lons)
            cell_lons = np.where(cell_lons > box.max_lon, cell_lons - 360.0, cell_lons)
        cell_ids = self.spec.cell_ids_of(lats, cell_lons)
        slot = self._cell_ids.searchsorted(cell_ids)
        np.minimum(slot, self._cell_ids.size - 1, out=slot)
        first = self._cell_indptr[slot]
        counts = self._cell_indptr[slot + 1] - first
        counts[self._cell_ids[slot] != cell_ids] = 0
        ends = counts.cumsum()
        total = int(ends[-1])
        # Pair p of the batch (rows in order, each row's candidates in
        # order) scores centre ``_centres[p + gather[row]]``.
        gather = first - (ends - counts)
        cuts = ends.searchsorted(
            np.arange(DISTANCE_BLOCK, total, DISTANCE_BLOCK), side="right"
        )
        bounds = [0, *cuts.tolist(), n]
        hits = []
        for lo, hi in zip(bounds, bounds[1:]):
            block = counts[lo:hi]
            rows = np.arange(lo, hi).repeat(block)
            base = int(ends[lo - 1]) if lo else 0
            pairs = np.arange(base, base + rows.size)
            pairs += gather[lo:hi].repeat(block)
            centres = self._centres[pairs]
            distances = _haversine(
                lats[rows], lons[rows], self._lats[centres], self._lons[centres],
                self._cos_lats[centres],
            )
            within = distances <= self.radius_km
            hits.append((rows[within], centres[within], distances[within]))
        rows, centres, distances = (
            np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            for chunks in zip(*hits)
        )
        if rows.size == 0:
            return labels, indptr, centres
        np.bincount(rows, minlength=n).cumsum(out=indptr[1:])
        # ``rows`` is sorted, so sorted position j still holds row
        # ``rows[j]``: each row's first position holds its nearest.
        first_hit = np.empty(rows.size, dtype=bool)
        first_hit[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first_hit[1:])
        nearest = np.lexsort((distances, rows))[first_hit]
        labels[rows[nearest]] = centres[nearest]
        return labels, indptr, centres
