"""Time tiers and summary tiles: the units the summary store stitches.

A **tier** is a bucketing resolution (minute, hour, day); a **tile**
(:class:`SummaryBucket`) is everything the service needs to answer a
population or flow query over one bucket of one tier, held as sorted
int64 columns whose size grows with activity, not with the area count:

* population: the distinct ``(area, user)`` pairs the bucket saw,
  sorted, with the tweets each pair contributed — unique-user counts
  stay exact under any merge, because merging unions the pairs;
* OD: the nonzero ``(source, dest, count)`` transition cells, sorted.

Bucket-boundary semantics are fixed here once: a bucket covers the
half-open span ``[start, start + span)``, and a timestamp landing
exactly on a boundary belongs to the bucket *starting* there
(floor-division assignment).  OD transitions are attributed to the
bucket of the **arriving** tweet's timestamp — the same instant
:class:`~repro.core.accumulate.ODAccumulator` records and expires them
at — so tile-stitched flows over ``[t0, t1)`` equal a full-stream
replay filtered to transition timestamps in ``[t0, t1)``.

:func:`build_tiles` is the one kernel that turns labelled rows into
tiles: live ingest and backfill both call it, and it groups the rows
with a two-key ``np.lexsort`` (:func:`_group`).  Tiles merge in two
halves, :func:`stitch_pairs` and :func:`stitch_cells`: concatenate the
pair (or cell) columns of tiles that are each sorted already, then
group equal keys and sum, with a kernel of its own (:func:`_merge_pairs`,
:func:`_merge_cells`).  Rollup and the merge into an open minute run
both (:meth:`SummaryBucket.merged`), a windowed read only the half it
answers.  Which grouping runs is fixed by the input — unsorted rows or
sorted tiles — and each measured faster on its own.  Merging is
associative and order-independent for every column, which is what
makes the multi-resolution store's answers independent of which tier
mix covered a window.

Tiles persist in a small fixed binary format (:meth:`SummaryBucket.encode`):
a header — magic, format version, tier, start, area count, tweet count
and the two column lengths — then the six columns as raw little-endian
int64.  :meth:`SummaryBucket.decode` rejects any other magic or
version, and any area, source or dest outside ``[0, n_areas)`` or
negative user, with :class:`StaleTileError`; bump
:data:`TILE_FORMAT_VERSION` whenever the layout changes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np


class TimeTier(Enum):
    """A summary resolution; the value is the bucket span in seconds."""

    MINUTE = 60
    HOUR = 3600
    DAY = 86400

    @property
    def span_seconds(self) -> int:
        """Length of one bucket at this tier."""
        return self.value


#: Tiers finest-first; rollup folds each into the next.
TIER_ORDER = (TimeTier.MINUTE, TimeTier.HOUR, TimeTier.DAY)

#: Tiers coarsest-first; the query planner prefers the biggest tile.
COARSE_FIRST = tuple(reversed(TIER_ORDER))

#: Which tier each coarse tier rolls up from.
ROLLUP_SOURCE = {TimeTier.HOUR: TimeTier.MINUTE, TimeTier.DAY: TimeTier.HOUR}

#: First bytes of every encoded tile.
TILE_MAGIC = b"RTIL"

#: Version of the encoded tile layout; frames of any other version are stale.
TILE_FORMAT_VERSION = 1

#: Magic, format version, tier (index in :data:`TIER_ORDER`), start,
#: areas, tweets, population pairs, OD cells.
_HEADER = struct.Struct("<4sHHqqqqq")
_COLUMN = np.dtype("<i8")
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


class StaleTileError(ValueError):
    """A payload that is not a tile in this build's format version."""


def bucket_start(timestamp: float, tier: TimeTier) -> int:
    """Start of the tier bucket containing ``timestamp``.

    Floor semantics: a timestamp exactly on a boundary opens the bucket
    that starts there.  Works for negative timestamps (true floor, not
    truncation toward zero).
    """
    if not math.isfinite(timestamp):
        raise ValueError(f"timestamp must be finite, got {timestamp!r}")
    return int(math.floor(timestamp / tier.span_seconds)) * tier.span_seconds


def bucket_starts(timestamps: np.ndarray, tier: TimeTier) -> np.ndarray:
    """:func:`bucket_start` of every (finite) timestamp, as int64."""
    span = tier.span_seconds
    return np.floor(np.asarray(timestamps, dtype=np.float64) / span).astype(np.int64) * span


def window_align(t0: float, t1: float) -> tuple[int, int]:
    """Snap a query window outward to minute boundaries.

    The store's finest tile is one minute, so ``[t0, t1)`` is widened to
    the smallest minute-aligned cover: ``t0`` floors, ``t1`` ceils.
    Returns the effective ``(q0, q1)``.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"window bounds must be finite, got [{t0!r}, {t1!r})")
    if t1 <= t0:
        raise ValueError(f"window must satisfy t0 < t1, got [{t0}, {t1})")
    span = TimeTier.MINUTE.span_seconds
    q0 = bucket_start(t0, TimeTier.MINUTE)
    q1 = int(math.ceil(t1 / span)) * span
    return q0, q1


def first_of_runs(*keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal rows starts in the (sorted,
    equal-length, non-empty) key columns: 0, then every row where any
    key differs from the row before."""
    first = np.empty(keys[0].size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=first[1:])
    for key in keys[1:]:
        first[1:] |= key[1:] != key[:-1]
    return first.nonzero()[0]


def _group(
    major: np.ndarray, minor: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(major, minor)`` keys of unsorted rows, sorted, with
    their summed weights.

    ``weights=None`` counts each row once.  This is the grouping of
    :func:`build_tiles`, whose labelled rows are in no key order.  It
    keeps a two-key ``np.lexsort``, which measured faster on those rows
    than :func:`_merge_pairs`' two-pass sort where it counts: a live
    batch of 22 rows (a perfbench ingest-paper minute) grouped in 12.4 µs
    against 13.5 µs, and the backfill of ``bench_summary``'s 121k-tweet
    corpus took the same time either way (0.88 against 0.87 s).
    """
    if major.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    order = np.lexsort((minor, major))
    major = major[order]
    minor = minor[order]
    firsts = first_of_runs(major, minor)
    if weights is None:
        sums = np.empty(firsts.size, dtype=np.int64)
        sums[:-1] = firsts[1:] - firsts[:-1]
        sums[-1] = major.size - firsts[-1]
    else:
        sums = np.add.reduceat(weights[order], firsts)
    return major[firsts], minor[firsts], sums


def _merge_pairs(
    areas: np.ndarray, users: np.ndarray, tweets: np.ndarray, n_areas: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group concatenated population columns of sorted tiles.

    Users may be any non-negative int64, so ``(area, user)`` does not
    pack into one key; two passes sort it instead.  Users sort first
    with the default (unstable) sort: rows with equal ``(area, user)``
    only sum, so their order does not matter.  Areas then sort stably,
    cast to the narrowest unsigned dtype holding ``n_areas - 1``, which
    NumPy radix-sorts up to 16 bits.  This is the grouping of
    :func:`stitch_pairs`, whose parts are each sorted already;
    there it measured faster than :func:`_group`'s ``np.lexsort``: the
    merge of a perfbench ingest-paper read cover (median 54 tiles) fell
    from ~0.9 to ~0.5 ms.  Rows that are not sorted runs keep
    :func:`_group`.
    """
    if areas.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    order = users.argsort()
    narrow = areas[order].astype(np.min_scalar_type(n_areas - 1))
    order = order[narrow.argsort(kind="stable")]
    areas = areas[order]
    users = users[order]
    firsts = first_of_runs(areas, users)
    return areas[firsts], users[firsts], np.add.reduceat(tweets[order], firsts)


def _merge_cells(
    sources: np.ndarray, dests: np.ndarray, counts: np.ndarray, n_areas: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group concatenated OD columns of sorted tiles.

    Both ends lie in ``[0, n_areas)``, so ``source * n_areas + dest`` is
    an exact int64 key: one sort of it, sums over its runs, and a
    ``divmod`` back.
    """
    if sources.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    key = sources * n_areas + dests
    order = key.argsort()
    key = key[order]
    firsts = first_of_runs(key)
    sources, dests = np.divmod(key[firsts], n_areas)
    return sources, dests, np.add.reduceat(counts[order], firsts)


@dataclass(frozen=True, eq=False)
class SummaryBucket:
    """One tile: population + OD summaries over ``[start, start + span)``.

    ``areas``/``users``/``tweets`` are the distinct ``(area, user)``
    pairs, sorted by area then user, with the tweets each pair
    contributed (a tweet counts toward every area whose ε-disc contains
    it); ``sources``/``dests``/``counts`` are the nonzero OD cells,
    sorted, for transitions whose arriving tweet falls in the bucket.
    ``n_tweets`` counts the bucket's tweets, labelled or not; a tile
    given only ``(tier, start, n_areas)`` is empty.  Tiles are
    immutable; merging builds a new tile.
    """

    tier: TimeTier
    start: int
    n_areas: int
    n_tweets: int = 0
    areas: np.ndarray = field(default_factory=lambda: _EMPTY)
    users: np.ndarray = field(default_factory=lambda: _EMPTY)
    tweets: np.ndarray = field(default_factory=lambda: _EMPTY)
    sources: np.ndarray = field(default_factory=lambda: _EMPTY)
    dests: np.ndarray = field(default_factory=lambda: _EMPTY)
    counts: np.ndarray = field(default_factory=lambda: _EMPTY)

    @property
    def end(self) -> int:
        """Exclusive end of the bucket's span."""
        return self.start + self.tier.span_seconds

    @property
    def n_transitions(self) -> int:
        """Total OD transitions recorded in the bucket."""
        return int(self.counts.sum())

    @classmethod
    def merged(
        cls,
        tier: TimeTier,
        start: int,
        n_areas: int,
        parts: Sequence["SummaryBucket"],
    ) -> "SummaryBucket":
        """One tile holding the union of ``parts``' counts (parts untouched).

        Runs both halves of the merge, :func:`stitch_pairs` and
        :func:`stitch_cells`, which rely on every area, source and dest
        lying in ``[0, n_areas)``.
        """
        for part in parts:
            if part.n_areas != n_areas:
                raise ValueError(
                    f"cannot merge a {part.n_areas}-area tile into a "
                    f"{n_areas}-area tile"
                )
        return cls(
            tier, start, n_areas, sum(part.n_tweets for part in parts),
            *stitch_pairs(parts, n_areas), *stitch_cells(parts, n_areas),
        )

    @classmethod
    def rolled_up(
        cls,
        tier: TimeTier,
        start: int,
        n_areas: int,
        children: Iterable["SummaryBucket"],
    ) -> "SummaryBucket":
        """Merge finer tiles into one coarse tile covering their span.

        Children outside ``[start, start + span)`` are rejected — a
        rollup must never smuggle counts across its own boundary.
        """
        children = list(children)
        end = start + tier.span_seconds
        for child in children:
            if child.start < start or child.end > end:
                raise ValueError(
                    f"child [{child.start}, {child.end}) lies outside "
                    f"rollup span [{start}, {end})"
                )
        return cls.merged(tier, start, n_areas, children)

    # -- codec ---------------------------------------------------------

    def encode(self) -> bytes:
        """The tile's fixed binary form: header, then six int64 columns."""
        header = _HEADER.pack(
            TILE_MAGIC, TILE_FORMAT_VERSION, TIER_ORDER.index(self.tier),
            self.start, self.n_areas, self.n_tweets,
            self.areas.size, self.counts.size,
        )
        columns = np.concatenate(
            (
                self.areas, self.users, self.tweets,
                self.sources, self.dests, self.counts,
            ),
            dtype=_COLUMN,
        )
        return header + columns.tobytes()

    @classmethod
    def decode(cls, payload: bytes | memoryview) -> "SummaryBucket":
        """Inverse of :meth:`encode`.

        Raises :class:`StaleTileError` for a payload of another magic,
        format version or tier, or whose length disagrees with its
        header.  It also raises for an area, source or dest outside
        ``[0, n_areas)``, which the merge kernels rely on, and for a
        negative user id, which no tile holds: such a tile never
        reaches a store.
        """
        if len(payload) < _HEADER.size:
            raise StaleTileError(f"{len(payload)}-byte payload is shorter than a tile header")
        magic, version, tier, start, n_areas, n_tweets, n_pairs, n_cells = (
            _HEADER.unpack_from(payload)
        )
        if magic != TILE_MAGIC or version != TILE_FORMAT_VERSION:
            raise StaleTileError(f"not a version-{TILE_FORMAT_VERSION} tile")
        size = 3 * (n_pairs + n_cells)
        if tier >= len(TIER_ORDER) or len(payload) != _HEADER.size + size * _COLUMN.itemsize:
            raise StaleTileError("tile header disagrees with its payload")
        columns = np.frombuffer(
            payload, dtype=_COLUMN, count=size, offset=_HEADER.size
        ).astype(np.int64)
        pairs = 3 * n_pairs
        # The areas column, then the sources and dests columns, side by side.
        for ends in (columns[:n_pairs], columns[pairs : pairs + 2 * n_cells]):
            if ends.size and (ends.min() < 0 or ends.max() >= n_areas):
                raise StaleTileError(f"tile holds an area outside [0, {n_areas})")
        if n_pairs and columns[n_pairs : 2 * n_pairs].min() < 0:
            raise StaleTileError("tile holds a negative user id")
        cuts = (0, n_pairs, 2 * n_pairs, pairs, pairs + n_cells, pairs + 2 * n_cells, size)
        return cls(
            TIER_ORDER[tier], start, n_areas, n_tweets,
            *(columns[lo:hi] for lo, hi in zip(cuts, cuts[1:])),
        )

    def __reduce__(self):
        # Pickles (the backfill ``TileSet`` artifact) carry the codec form.
        return (SummaryBucket.decode, (self.encode(),))


#: A tile's pair columns or its cell columns.
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def stitch_pairs(parts: Sequence[SummaryBucket], n_areas: int) -> _Columns:
    """``parts``' ``(area, user)`` pairs merged: ``(areas, users, tweets)``."""
    return _stitch([(p.areas, p.users, p.tweets) for p in parts], _merge_pairs, n_areas)


def stitch_cells(parts: Sequence[SummaryBucket], n_areas: int) -> _Columns:
    """``parts``' OD cells merged: ``(sources, dests, counts)``, row-major."""
    return _stitch([(p.sources, p.dests, p.counts) for p in parts], _merge_cells, n_areas)


def _stitch(parts: list[_Columns], kernel: Callable[..., _Columns], n_areas: int) -> _Columns:
    """Concatenate the non-empty parts' columns and group them with
    ``kernel``; one non-empty part is returned as is, already grouped."""
    busy = [columns for columns in parts if columns[0].size]
    if not busy:
        return _EMPTY, _EMPTY, _EMPTY
    if len(busy) == 1:
        return busy[0]
    return kernel(*map(np.concatenate, zip(*busy)), n_areas)


def build_tiles(
    tier: TimeTier,
    n_areas: int,
    starts: np.ndarray,
    users: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    moves: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[SummaryBucket]:
    """Labelled rows → one tile per distinct bucket start, in start order.

    Row ``i`` has bucket start ``starts[i]``, user ``users[i]`` and the
    containing areas ``indices[indptr[i]:indptr[i + 1]]`` (CSR; ``indptr``
    need not start at 0, so a skipped prefix costs no copy).  ``moves``
    holds the transitions as ``(starts, sources, dests)`` columns, each
    attributed to its arriving row's bucket start.  The live store and
    backfill both build their tiles here; only how they find each row's
    previous label differs.
    """
    if starts.size == 0:
        return []
    ordered = np.sort(starts)
    tile_starts = ordered[first_of_runs(ordered)]
    row_tile = tile_starts.searchsorted(starts)
    n_tweets = np.bincount(row_tile, minlength=tile_starts.size)
    members = indptr[1:] - indptr[:-1]
    pair_key, pair_users, pair_tweets = _group(
        row_tile.repeat(members) * n_areas + indices[indptr[0] : indptr[-1]],
        users.repeat(members),
        None,
    )
    pair_tile, pair_areas = np.divmod(pair_key, n_areas)
    edges = np.arange(tile_starts.size + 1)
    pair_bounds = pair_tile.searchsorted(edges).tolist()
    move_starts, sources, dests = moves
    if move_starts.size:
        cell_key, cell_dests, cell_counts = _group(
            tile_starts.searchsorted(move_starts) * n_areas + sources, dests, None
        )
        cell_tile, cell_sources = np.divmod(cell_key, n_areas)
        cell_bounds = cell_tile.searchsorted(edges).tolist()
    else:
        cell_sources = cell_dests = cell_counts = _EMPTY
        cell_bounds = [0] * edges.size
    tiles = []
    for k, (start, count) in enumerate(zip(tile_starts.tolist(), n_tweets.tolist())):
        pairs = slice(pair_bounds[k], pair_bounds[k + 1])
        cells = slice(cell_bounds[k], cell_bounds[k + 1])
        tiles.append(
            SummaryBucket(
                tier, start, n_areas, count,
                pair_areas[pairs], pair_users[pairs], pair_tweets[pairs],
                cell_sources[cells], cell_dests[cells], cell_counts[cells],
            )
        )
    return tiles
