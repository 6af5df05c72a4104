"""Area-labelling kernels: the single source of truth for ε-disc tests.

The paper labels every tweet with ε-disc tests (50, 25 and 2 km, plus a
0.5 km sensitivity run): a tweet belongs to the *nearest* centre within
ε, ties broken toward the earlier area index, boundary inclusive
(``distance <= ε``), and it counts toward the population of *every*
disc that contains it.  Two kernels compute those answers, each used
where it measured faster:

* :func:`label_and_contain` labels a point batch against the world's
  centres and returns the nearest label plus CSR containment
  (:class:`PointLabels`).  Worlds of up to :data:`DENSE_AREA_THRESHOLD`
  areas — every paper-scale world, and live ingest batches of tens of
  tweets — run the dense points × areas distance matrix; larger worlds
  score every (point, candidate centre) pair of the world's
  :class:`~repro.geo.index.CenterGridIndex` at once.
* The per-area radius-query loop over a point
  :class:`~repro.geo.index.GridIndex` serves whole corpora:
  :func:`label_corpus` (nearest label) and :func:`count_population`
  (per-area tweets and unique users).  Pipelines build the point index
  once per corpus and reuse it across scales.

Every other entry point is a view: :func:`label_points` is the labels
of :func:`label_and_contain`, and :func:`label_point` /
:func:`containing_areas` are its one-row answers.
:func:`label_points_dense` and :func:`membership_points` are the dense
reference the equivalence suites compare against; they share the dense
arithmetic with :func:`label_and_contain`'s small-world branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.world import World
from repro.data.schema import Tweet
from repro.geo.distance import DISTANCE_BLOCK, _haversine
from repro.geo.index import BruteForceIndex, GridIndex, RadiusQueryResult

#: Area count above which :func:`label_and_contain` scans the world's
#: grid-bucketed centre index instead of the dense distance matrix.  The
#: paper's worlds (20–60 areas) stay on the dense path — its exact
#: floating-point sequence is pinned by the goldens — while
#: country-scale gazetteers get O(points · candidates) labelling that
#: the equivalence suite proves indistinguishable.
DENSE_AREA_THRESHOLD = 128


def _columns(lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate columns as equal-length 1-D float64 arrays."""
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    return lats, lons


def point_area_distances(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense ``(n_points, n_areas)`` haversine distance matrix.

    Column ``j`` is bitwise equal to the single-centre call
    ``points_to_point_km(lats, lons, centre_j)`` that the batch radius
    queries filter on, and each entry to the grid index's pair distance:
    all of them run :func:`~repro.geo.distance._haversine`, here with
    the world's cached centre cosines.  Rows are computed straight into
    the result in blocks of about :data:`DISTANCE_BLOCK` entries, so the
    broadcast temporaries stay small at any batch × world size.
    """
    lats, lons = _columns(lats, lons)
    out = np.empty((lats.size, world.n_areas), dtype=np.float64)
    if world.n_areas == 0:
        return out
    step = max(1, DISTANCE_BLOCK // world.n_areas)
    for start in range(0, lats.size, step):
        block = slice(start, start + step)
        _haversine(
            lats[block, None], lons[block, None], world.centers_lat,
            world.centers_lon, world.centers_cos_lat, out=out[block],
        )
    return out


def _dense(world: World, lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest labels and the boolean ε-membership matrix, densely.

    The only copy of the dense arithmetic: distances ``<= ε`` are
    members; the rest are masked to ``inf`` and ``argmin`` picks the
    nearest member (first minimum, i.e. ties to the earlier area); rows
    with no member label -1.
    """
    distances = point_area_distances(world, lats, lons)
    inside = distances <= world.radius_km
    if world.n_areas == 0:
        return np.full(lats.size, -1, dtype=np.int64), inside
    outside = ~inside
    np.copyto(distances, np.inf, where=outside)
    labels = np.argmin(distances, axis=1).astype(np.int64, copy=False)
    labels[outside.all(axis=1)] = -1
    return labels, inside


def label_points_dense(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """The dense reference labels, with no index dispatch.

    The brute-force baseline of the equivalence suite and benchmarks at
    any world size; :func:`label_points` is the production entry point.
    """
    return _dense(world, *_columns(lats, lons))[0]


def membership_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense boolean ``(n_points, n_areas)`` ε-disc membership matrix."""
    return _dense(world, *_columns(lats, lons))[1]


@dataclass(frozen=True)
class PointLabels:
    """Nearest labels plus CSR ε-disc containment for one point batch.

    ``labels[i]`` is row ``i``'s nearest area within ε (else -1); the areas
    whose disc contains row ``i`` are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending — exactly ``np.nonzero(membership_points(...)[i])[0]``.
    A consumer that must skip a prefix of rows starts at that row's
    ``indptr`` offset rather than copying the arrays.
    """

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.size)


def label_and_contain(world: World, lats: np.ndarray, lons: np.ndarray) -> PointLabels:
    """Nearest label and every containing area, from one distance pass.

    Bitwise equal to :func:`label_points_dense` (labels) and to
    ``np.nonzero(membership_points(...))`` (containment) for finite
    coordinates.  Small worlds (≤ :data:`DENSE_AREA_THRESHOLD` areas)
    run the dense arithmetic over row blocks of about
    :data:`DISTANCE_BLOCK` entries (one block for a live batch);
    country-scale worlds take containment from the
    :class:`~repro.geo.index.CenterGridIndex` pair scan that picks the
    nearest centre, so no dense points × areas matrix is built.
    """
    lats, lons = _columns(lats, lons)
    n = lats.size
    if n == 0 or world.n_areas == 0:
        return PointLabels(
            labels=np.full(n, -1, dtype=np.int64),
            indptr=np.zeros(n + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )
    with obs.span("core.label_and_contain", points=n, areas=world.n_areas) as sp:
        if world.n_areas > DENSE_AREA_THRESHOLD:
            labels, indptr, indices = world.center_grid.label_and_contain(lats, lons)
        else:
            # Row blocks keep the dense temporaries small even over a
            # whole corpus (backfill); a live batch is one block.
            labels = np.empty(n, dtype=np.int64)
            rows, cols = [], []
            step = max(1, DISTANCE_BLOCK // world.n_areas)
            for start in range(0, n, step):
                block = slice(start, start + step)
                labels[block], inside = _dense(world, lats[block], lons[block])
                block_rows, block_cols = inside.nonzero()
                rows.append(block_rows + start if start else block_rows)
                cols.append(block_cols)
            rows, indices = (
                chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                for chunks in (rows, cols)
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.bincount(rows, minlength=n).cumsum(out=indptr[1:])
        if obs.enabled():
            sp.set(labelled=int((labels >= 0).sum()), memberships=int(indices.size))
    obs.counter("core.points_labelled", n)
    return PointLabels(labels=labels, indptr=indptr, indices=indices)


def label_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Nearest area within ε for each point, else -1.

    The labels of :func:`label_and_contain`.
    """
    return label_and_contain(world, lats, lons).labels


def label_point(world: World, lat: float, lon: float) -> int:
    """Label one point: nearest area within ε, else -1."""
    return int(label_points(world, np.array([lat]), np.array([lon]))[0])


def containing_areas(world: World, lat: float, lon: float) -> np.ndarray:
    """Indices of *every* area whose ε-disc contains the point, ascending.

    Population counting — unlike OD labelling — counts a tweet toward
    each overlapping disc independently, matching the batch extractor's
    per-area radius queries.
    """
    return label_and_contain(world, np.array([lat]), np.array([lon])).indices


def tweet_columns(tweets: Sequence[Tweet]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lats, lons)`` float64 columns of a tweet sequence."""
    n = len(tweets)
    lats = np.fromiter((t.lat for t in tweets), np.float64, count=n)
    lons = np.fromiter((t.lon for t in tweets), np.float64, count=n)
    return lats, lons


def _area_queries(
    world: World,
    lats: np.ndarray,
    lons: np.ndarray,
    index: GridIndex | BruteForceIndex | None,
) -> Iterator[RadiusQueryResult]:
    """Each area's ε-disc query over a point index, in area order.

    The one per-area radius-query loop behind both corpus kernels.
    Without a prebuilt ``index`` it builds a :class:`GridIndex` over the
    points; a prebuilt one must cover exactly these points.
    """
    if index is None:
        index = GridIndex(lats, lons)
    if len(index) != lats.size:
        raise ValueError("index was built over a different point set")
    obs.counter("core.points_labelled", int(lats.size))
    obs.counter("core.area_queries", world.n_areas)
    return (index.query_radius(area.center, world.radius_km) for area in world.areas)


def label_corpus(
    world: World,
    lats: np.ndarray,
    lons: np.ndarray,
    index: GridIndex | BruteForceIndex | None = None,
) -> np.ndarray:
    """Label a full corpus through per-area radius queries.

    A running nearest-distance resolution (strict ``<``, in area order)
    gives labels identical to :func:`label_points`, and each query
    touches only its disc's candidate grid cells, which beats the
    centre-side kernels over large corpora.
    """
    lats, lons = _columns(lats, lons)
    queries = _area_queries(world, lats, lons, index)
    with obs.span(
        "core.label_corpus", points=int(lats.size), areas=world.n_areas,
        radius_km=world.radius_km,
    ) as sp:
        labels = np.full(lats.size, -1, dtype=np.int64)
        best_distance = np.full(lats.size, np.inf, dtype=np.float64)
        for area_index, result in enumerate(queries):
            closer = result.distances_km < best_distance[result.indices]
            rows = result.indices[closer]
            labels[rows] = area_index
            best_distance[rows] = result.distances_km[closer]
        sp.set(labelled=int((labels >= 0).sum()))
    return labels


def count_population(
    world: World,
    lats: np.ndarray,
    lons: np.ndarray,
    user_ids: np.ndarray,
    index: GridIndex | BruteForceIndex | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-area tweet and unique-user counts within ε of each centre.

    The batch population kernel behind
    ``repro.extraction.population.extract_area_observations``: each
    area's ε-disc is queried independently (overlapping discs each
    count the tweet), and the area's "Twitter population" is the number
    of distinct user ids among the hits.

    Returns ``(tweet_counts, user_counts)`` aligned with the world's
    label indices.
    """
    lats, lons = _columns(lats, lons)
    user_ids = np.asarray(user_ids)
    queries = _area_queries(world, lats, lons, index)
    tweet_counts = np.zeros(world.n_areas, dtype=np.int64)
    user_counts = np.zeros(world.n_areas, dtype=np.int64)
    with obs.span(
        "core.count_population", points=int(lats.size), areas=world.n_areas,
        radius_km=world.radius_km,
    ) as sp:
        for area_index, result in enumerate(queries):
            tweet_counts[area_index] = len(result)
            user_counts[area_index] = np.unique(user_ids[result.indices]).size
        sp.set(tweets_matched=int(tweet_counts.sum()))
    return tweet_counts, user_counts
