"""Area-labelling kernels: the single source of truth for ε-disc tests.

Three code paths used to decide "which area does this tweet belong to":
vectorised batch labelling in ``repro.extraction.population``, a scalar
per-tweet linear scan in ``repro.stream.online``, and the serving ingest
path on top of that.  The scalar path computed distances with a slightly
different floating-point sequence than the batch path, so boundary and
tie decisions could drift between batch and stream.  This module is now
the only implementation; everything else adapts onto it.

Two kernels cover every cadence:

* :func:`label_corpus` — spatial-index-accelerated labelling of a whole
  corpus (per-area radius queries with pruning); the batch hot path.
* :func:`label_points` — dense vectorised labelling of coordinate
  arrays; the micro-batch kernel the streaming wrapper flushes through.

Both resolve overlapping ε-discs identically: the tweet belongs to the
*nearest* qualifying centre, ties broken toward the earlier area index,
boundary inclusive (``distance <= ε``).  :class:`MicroBatchLabeler`
wraps :func:`label_points` for streaming consumers that receive tweets
one at a time but want vectorised throughput.

The live ingest path needs both answers for every tweet — the nearest
label (OD transitions) and every containing disc (population) — so
:func:`label_and_contain` computes them together from one distance
pass and returns them as a :class:`PointLabels` (labels plus CSR
containment); :func:`label_tweet_batch` is the ingest door that sorts a
tweet batch and labels it once for every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.world import World
from repro.data.schema import Tweet
from repro.geo.distance import points_to_points_km

# build_index moved down into repro.geo.index so World can reach it
# without a core-internal cycle; re-exported here for existing callers.
from repro.geo.index import (  # noqa: F401  (re-exports)
    GRID_INDEX_THRESHOLD,
    BruteForceIndex,
    GridIndex,
    build_index,
)

#: Area count above which :func:`label_points` routes through the
#: world's grid-bucketed centre index instead of the dense distance
#: matrix.  The paper's worlds (20–60 areas) stay on the dense kernel —
#: its exact floating-point sequence is pinned by the goldens — while
#: country-scale gazetteers get O(points · candidates) labelling that
#: the equivalence suite proves indistinguishable.
DENSE_AREA_THRESHOLD = 128

#: Entries per block of :func:`point_area_distances`' broadcast, which
#: bounds its temporaries (a few arrays of this many float64s).
DISTANCE_BLOCK = 1 << 16

#: Default flush size of :class:`MicroBatchLabeler`.  Large enough that
#: the per-batch numpy dispatch cost amortises to well under the cost of
#: one scalar haversine, small enough to keep streaming latency low.
DEFAULT_MICRO_BATCH = 1024


def point_area_distances(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense ``(n_points, n_areas)`` haversine distance matrix.

    Column ``j`` is bitwise equal to the single-centre call
    ``points_to_point_km(lats, lons, centre_j)`` that the batch radius
    queries and the grid index filter on (see
    :func:`~repro.geo.distance.points_to_points_km`).  Rows are computed
    in blocks of about :data:`DISTANCE_BLOCK` entries, so the broadcast
    temporaries stay small at any batch × world size.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    out = np.empty((lats.size, world.n_areas), dtype=np.float64)
    if world.n_areas == 0:
        return out
    step = max(1, DISTANCE_BLOCK // world.n_areas)
    for start in range(0, lats.size, step):
        block = slice(start, start + step)
        out[block] = points_to_points_km(
            lats[block], lons[block], world.centers_lat, world.centers_lon
        )
    return out


def label_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Label coordinate arrays: nearest area within ε, else -1.

    The micro-batch kernel.  Small worlds (≤ :data:`DENSE_AREA_THRESHOLD`
    areas — every paper-scale world) run the dense path: one
    ``(n_points, n_areas)`` distance computation, masked to the ε-discs,
    nearest centre by argmin (first minimum wins, i.e. ties resolve to
    the earlier area — exactly the strict-``<`` update order of the
    index-accelerated batch path).  Country-scale worlds route through
    the world's :class:`~repro.geo.index.CenterGridIndex`, which only
    touches each point's candidate centres; the result is bitwise
    identical to the dense path (argued in the index docstring, proven
    by the hypothesis suite), just asymptotically cheaper.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    if lats.size == 0 or world.n_areas == 0:
        return np.full(lats.size, -1, dtype=np.int64)
    with obs.span("core.label_points", points=int(lats.size), areas=world.n_areas) as sp:
        if world.n_areas > DENSE_AREA_THRESHOLD:
            labels = world.center_grid.label_points(lats, lons)
        else:
            distances = point_area_distances(world, lats, lons)
            outside = distances > world.radius_km
            distances[outside] = np.inf
            labels = np.argmin(distances, axis=1).astype(np.int64)
            labels[np.all(outside, axis=1)] = -1
        sp.set(labelled=int((labels >= 0).sum()))
    obs.counter("core.points_labelled", int(lats.size))
    return labels


def label_points_dense(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """The dense reference kernel, with no index dispatch.

    Used by the equivalence suite and benchmarks as the brute-force
    baseline at any world size; :func:`label_points` is the production
    entry point.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    if lats.size == 0 or world.n_areas == 0:
        return np.full(lats.size, -1, dtype=np.int64)
    distances = point_area_distances(world, lats, lons)
    outside = distances > world.radius_km
    distances[outside] = np.inf
    labels = np.argmin(distances, axis=1).astype(np.int64)
    labels[np.all(outside, axis=1)] = -1
    return labels


def label_point(world: World, lat: float, lon: float) -> int:
    """Label one point: nearest area within ε, else -1.

    The scalar convenience over the same kernel arithmetic — a single
    vectorised distance call over the centre columns (haversine is
    symmetric, so the orientation swap is exact; see the kernel tests).
    """
    if world.n_areas == 0:
        return -1
    if world.n_areas > DENSE_AREA_THRESHOLD:
        return world.center_grid.label_point(lat, lon)
    distances = world.distances_to_point(lat, lon)
    nearest = int(np.argmin(distances))
    if distances[nearest] <= world.radius_km:
        return nearest
    return -1


def containing_areas(world: World, lat: float, lon: float) -> np.ndarray:
    """Indices of *every* area whose ε-disc contains the point.

    Population counting — unlike OD labelling — counts a tweet toward
    each overlapping disc independently, matching the batch extractor's
    per-area radius queries.
    """
    if world.n_areas == 0:
        return np.empty(0, dtype=np.int64)
    distances = world.distances_to_point(lat, lon)
    return np.nonzero(distances <= world.radius_km)[0].astype(np.int64)


def membership_points(world: World, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Dense boolean ``(n_points, n_areas)`` ε-disc membership matrix."""
    distances = point_area_distances(world, lats, lons)
    return distances <= world.radius_km


@dataclass(frozen=True)
class PointLabels:
    """Nearest labels plus CSR ε-disc containment for one point batch.

    ``labels[i]`` is what :func:`label_points` gives row ``i``; the areas
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

    Bitwise equal to :func:`label_points` (labels) and to
    ``np.nonzero(membership_points(...))`` (containment) for finite
    coordinates.  Small worlds (≤ :data:`DENSE_AREA_THRESHOLD` areas)
    derive both from :func:`point_area_distances` over row blocks of
    about :data:`DISTANCE_BLOCK` entries (one block for a live batch);
    country-scale worlds collect containment during the
    :class:`~repro.geo.index.CenterGridIndex` candidate scan that picks
    the nearest centre, so no dense points × areas matrix is built.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
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
            counts = np.empty(n, dtype=np.int64)
            chunks = []
            step = max(1, DISTANCE_BLOCK // world.n_areas)
            for start in range(0, n, step):
                block = slice(start, start + step)
                distances = point_area_distances(world, lats[block], lons[block])
                inside = distances <= world.radius_km
                chunks.append(np.nonzero(inside)[1])
                counts[block] = inside.sum(axis=1)
                distances[~inside] = np.inf
                labels[block] = np.argmin(distances, axis=1)
            labels[counts == 0] = -1
            indices = np.concatenate(chunks).astype(np.int64)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
        sp.set(labelled=int((labels >= 0).sum()), memberships=int(indices.size))
    obs.counter("core.points_labelled", n)
    return PointLabels(labels=labels, indptr=indptr, indices=indices)


def tweet_columns(tweets: Sequence[Tweet]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lats, lons)`` float64 columns of a tweet sequence."""
    n = len(tweets)
    lats = np.fromiter((t.lat for t in tweets), np.float64, count=n)
    lons = np.fromiter((t.lon for t in tweets), np.float64, count=n)
    return lats, lons


def label_tweet_batch(
    world: World, tweets: Sequence[Tweet]
) -> tuple[list[Tweet], PointLabels]:
    """Sort an ingest batch by timestamp and label it once.

    Returns the time-ascending batch and its :class:`PointLabels`, row
    for row.  Every live-ingest consumer (the monitor, the summary
    store) takes this one result, so a batch is sorted once and goes
    through the distance kernel once however many consumers it feeds.
    """
    ordered = sorted(tweets, key=lambda t: t.timestamp)
    return ordered, label_and_contain(world, *tweet_columns(ordered))


def label_corpus(
    world: World,
    lats: np.ndarray,
    lons: np.ndarray,
    index: GridIndex | BruteForceIndex | None = None,
) -> np.ndarray:
    """Label a full corpus through the spatial index: the batch kernel.

    Per-area radius queries (grid-pruned for large corpora) with a
    running nearest-distance resolution — identical labels to
    :func:`label_points`, asymptotically cheaper for small ε over large
    corpora because each query touches only candidate grid cells.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    if lats.shape != lons.shape or lats.ndim != 1:
        raise ValueError("lats/lons must be equal-length 1-D arrays")
    if index is None:
        index = build_index(lats, lons)
    if len(index) != lats.size:
        raise ValueError("index was built over a different point set")
    with obs.span(
        "core.label_corpus", points=int(lats.size), areas=world.n_areas,
        radius_km=world.radius_km,
    ) as sp:
        labels = np.full(lats.size, -1, dtype=np.int64)
        best_distance = np.full(lats.size, np.inf, dtype=np.float64)
        for area_index, area in enumerate(world.areas):
            result = index.query_radius(area.center, world.radius_km)
            closer = result.distances_km < best_distance[result.indices]
            rows = result.indices[closer]
            labels[rows] = area_index
            best_distance[rows] = result.distances_km[closer]
        sp.set(labelled=int((labels >= 0).sum()))
    obs.counter("core.points_labelled", int(lats.size))
    obs.counter("core.area_queries", world.n_areas)
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
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    user_ids = np.asarray(user_ids)
    if index is None:
        index = build_index(lats, lons)
    if len(index) != lats.size:
        raise ValueError("index was built over a different point set")
    tweet_counts = np.zeros(world.n_areas, dtype=np.int64)
    user_counts = np.zeros(world.n_areas, dtype=np.int64)
    with obs.span(
        "core.count_population", points=int(lats.size), areas=world.n_areas,
        radius_km=world.radius_km,
    ) as sp:
        matched = 0
        for area_index, area in enumerate(world.areas):
            result = index.query_radius(area.center, world.radius_km)
            users_here = np.unique(user_ids[result.indices])
            matched += len(result)
            tweet_counts[area_index] = len(result)
            user_counts[area_index] = int(users_here.size)
        sp.set(tweets_matched=matched)
    obs.counter("core.points_labelled", int(lats.size))
    obs.counter("core.area_queries", world.n_areas)
    return tweet_counts, user_counts


class MicroBatchLabeler:
    """Micro-batching adapter from a tweet-at-a-time stream to the kernel.

    Streaming consumers receive tweets one at a time but pay an order of
    magnitude less per label when the dense kernel runs over a batch.
    The labeler buffers tweets and flushes them through
    :func:`label_points` when the buffer fills (or on demand), yielding
    ``(tweet, label)`` pairs in arrival order.

    The labels are pure functions of the coordinates, so batching never
    changes a result — only when it becomes available.  Consumers that
    need a label *synchronously* per tweet (the online counters' scalar
    ``push``) use :func:`label_point` instead; both run the same
    arithmetic.
    """

    def __init__(self, world: World, batch_size: int = DEFAULT_MICRO_BATCH) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.world = world
        self.batch_size = int(batch_size)
        self._pending: list[Tweet] = []

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, tweet: Tweet) -> list[tuple[Tweet, int]]:
        """Buffer one tweet; returns flushed pairs when the batch fills."""
        self._pending.append(tweet)
        if len(self._pending) >= self.batch_size:
            return self.flush()
        return []

    def flush(self) -> list[tuple[Tweet, int]]:
        """Label and drain everything buffered, in arrival order."""
        if not self._pending:
            return []
        batch = self._pending
        self._pending = []
        labels = self.label_batch(batch)
        return list(zip(batch, (int(label) for label in labels)))

    def label_batch(self, tweets: Sequence[Tweet]) -> np.ndarray:
        """Label an explicit batch through the dense kernel."""
        return label_points(self.world, *tweet_columns(tweets))

    def label_stream(
        self, stream: Iterable[Tweet]
    ) -> Iterator[tuple[Tweet, int]]:
        """Label a whole stream in micro-batches, preserving order."""
        for tweet in stream:
            yield from self.add(tweet)
        yield from self.flush()
