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
pair (or cell) columns of the tiles, pack each row's two keys into one
exact int64 (:func:`_merge_pairs`, :func:`_merge_cells`), then sort,
group equal keys and sum.  Rollup and the merge into an open minute run
both (:meth:`SummaryBucket.merged`).  A windowed read merges only the
cells; per-area counts need no merged pairs: tweets are one
``bincount`` and distinct users the runs of one ``np.sort`` of the
packed pair keys (:func:`pair_counts`).  Merging is associative and
order-independent for every column, which is what makes the
multi-resolution store's answers independent of which tier mix covered
a window.

User ids in a tile are whatever id space its maker chose.  A
:class:`~repro.summary.store.SummaryStore` holds its own dense ids
below ``2**USER_BITS`` (its intern table), so ``(area, user)`` packs;
backfill tiles and journal frames carry raw ids, which the store
translates where they cross into it.

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
    """A summary resolution; the value is the bucket span in seconds.

    A member hashes by identity (members are singletons) and holds its
    span as a plain attribute: every tile's store lookups key on its
    tier, and :class:`Enum`'s own ``__hash__`` and ``value`` are Python
    calls.
    """

    MINUTE = 60
    HOUR = 3600
    DAY = 86400

    __hash__ = object.__hash__

    def __init__(self, span: int) -> None:
        #: Length of one bucket at this tier.
        self.span_seconds = span


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

#: Bits of a user id in a packed ``(area, user) = (area << USER_BITS) | user``
#: key.  The merge kernels pack pairs this way, so the users they see
#: must lie in ``[0, 2**USER_BITS)``: a store's dense ids.
USER_BITS = 32
_USER_MASK = (1 << USER_BITS) - 1

#: A tile's pair columns or its cell columns.
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


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
) -> _Columns:
    """Distinct ``(major, minor)`` keys of unsorted rows, sorted, with
    their summed weights.

    ``weights=None`` counts each row once.  This is the grouping of
    :func:`build_tiles`, whose rows may carry raw user ids anywhere in
    ``[0, 2**63)`` (backfill), so the two keys do not pack; a two-key
    ``np.lexsort`` groups them.
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


def _sum_runs(key: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a packed ``key`` column, sorted, with their
    summed ``weights``: one ``argsort``, run starts, ``np.add.reduceat``."""
    order = key.argsort()
    key = key[order]
    firsts = first_of_runs(key)
    return key[firsts], np.add.reduceat(weights[order], firsts)


def _merge_pairs(
    areas: np.ndarray, users: np.ndarray, tweets: np.ndarray, n_areas: int
) -> _Columns:
    """Group concatenated population columns of tiles.

    Users are a store's dense ids, below ``2**USER_BITS``, so
    ``(area << USER_BITS) | user`` is an exact int64 key, like
    :func:`_merge_cells`' cell key: one sort of it, sums over its runs,
    and a shift and a mask back.  Rollups and the merge into an open
    minute run it; a windowed read never does (:func:`pair_counts`).
    """
    if areas.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    key, tweets = _sum_runs((areas << USER_BITS) | users, tweets)
    return key >> USER_BITS, key & _USER_MASK, tweets


def _merge_cells(
    sources: np.ndarray, dests: np.ndarray, counts: np.ndarray, n_areas: int
) -> _Columns:
    """Group concatenated OD columns of tiles.

    Both ends lie in ``[0, n_areas)``, so ``source * n_areas + dest`` is
    an exact int64 key: one sort of it, sums over its runs, and a
    ``divmod`` back.
    """
    if sources.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    key, counts = _sum_runs(sources * n_areas + dests, counts)
    sources, dests = np.divmod(key, n_areas)
    return sources, dests, counts


def _count_users(areas: np.ndarray, users: np.ndarray, n_areas: int) -> np.ndarray:
    """Distinct users per area among concatenated pair columns: the run
    starts of one ``np.sort`` of the packed keys, counted per area."""
    key = np.sort((areas << USER_BITS) | users)
    return np.bincount(key[first_of_runs(key)] >> USER_BITS, minlength=n_areas)


@dataclass(frozen=True, eq=False)
class SummaryBucket:
    """One tile: population + OD summaries over ``[start, start + span)``.

    ``areas``/``users``/``tweets`` are the distinct ``(area, user)``
    pairs, sorted by area, then by user in the id space that built the
    tile (a store's tile holds dense ids; one it installed or recovered
    keeps its raw-id order), with the tweets each pair contributed (a
    tweet counts toward every area whose ε-disc contains it);
    ``sources``/``dests``/``counts`` are the nonzero OD cells,
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
        """Merge tiles of the next finer tier (:data:`ROLLUP_SOURCE`)
        into one coarse tile covering their span.

        Children of another tier, or outside ``[start, start + span)``,
        are rejected — a rollup must never smuggle counts across its own
        boundary.  The bounds check reads the children's first and last
        start and one span.
        """
        children = list(children)
        if children:
            source = ROLLUP_SOURCE[tier]
            if any(child.tier is not source for child in children):
                raise ValueError(f"a {tier.name} rollup takes {source.name} tiles")
            first = min(child.start for child in children)
            end = max(child.start for child in children) + source.span_seconds
            if first < start or end > start + tier.span_seconds:
                raise ValueError(
                    f"children [{first}, {end}) lie outside rollup span "
                    f"[{start}, {start + tier.span_seconds})"
                )
        return cls.merged(tier, start, n_areas, children)

    # -- codec ---------------------------------------------------------

    def encode(self, pairs: _Columns | None = None) -> bytes:
        """The tile's fixed binary form: header, then six int64 columns.

        ``pairs`` stands in for the tile's own ``(areas, users, tweets)``
        columns: a store encodes its tiles with the raw user ids in
        place of its dense ones (``SummaryStore._persist``).
        """
        areas, users, tweets = (self.areas, self.users, self.tweets) if pairs is None else pairs
        header = _HEADER.pack(
            TILE_MAGIC, TILE_FORMAT_VERSION, TIER_ORDER.index(self.tier),
            self.start, self.n_areas, self.n_tweets,
            areas.size, self.counts.size,
        )
        columns = np.concatenate(
            (areas, users, tweets, self.sources, self.dests, self.counts),
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
        reaches a store.  The columns are the new tile's own copy, not
        views of ``payload``: recovery writes a store's dense user ids
        over the raw ones in place.
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
        cells = pairs + n_cells
        # The areas column, then the sources and dests columns side by
        # side.  Viewed unsigned, a negative value is huge, so one max
        # finds it as well as an area past the world.
        for ends in (columns[:n_pairs], columns[pairs : cells + n_cells]):
            if ends.size and ends.view(np.uint64).max() >= n_areas:
                raise StaleTileError(f"tile holds an area outside [0, {n_areas})")
        if n_pairs and columns[n_pairs : 2 * n_pairs].min() < 0:
            raise StaleTileError("tile holds a negative user id")
        return cls(
            TIER_ORDER[tier], start, n_areas, n_tweets,
            columns[:n_pairs], columns[n_pairs : 2 * n_pairs], columns[2 * n_pairs : pairs],
            columns[pairs:cells], columns[cells : cells + n_cells], columns[cells + n_cells :],
        )

    def __reduce__(self):
        # Pickles (the backfill ``TileSet`` artifact) carry the codec form.
        return (SummaryBucket.decode, (self.encode(),))


def stitch_pairs(parts: Sequence[SummaryBucket], n_areas: int) -> _Columns:
    """``parts``' ``(area, user)`` pairs merged: ``(areas, users, tweets)``."""
    return _stitch([(p.areas, p.users, p.tweets) for p in parts], _merge_pairs, n_areas)


def stitch_cells(parts: Sequence[SummaryBucket], n_areas: int) -> _Columns:
    """``parts``' OD cells merged: ``(sources, dests, counts)``, row-major."""
    return _stitch([(p.sources, p.dests, p.counts) for p in parts], _merge_cells, n_areas)


def pair_counts(parts: Sequence[SummaryBucket], n_areas: int) -> tuple[np.ndarray, np.ndarray]:
    """Tweets and distinct users per area over ``parts``' pairs.

    The pairs are not merged: tweets add up in one ``bincount`` over
    the concatenated columns, and a pair seen in several parts counts
    its user once among the runs of one sort (:func:`_count_users`).
    One non-empty part's pairs are distinct already, so its areas are
    counted as they are.  The users must be packable (below
    ``2**USER_BITS``).
    """
    busy = [p for p in parts if p.areas.size]
    if not busy:
        return np.zeros(n_areas, dtype=np.int64), np.zeros(n_areas, dtype=np.int64)
    areas = np.concatenate([p.areas for p in busy])
    tweets = np.bincount(
        areas, weights=np.concatenate([p.tweets for p in busy]), minlength=n_areas
    )
    if len(busy) == 1:
        users = np.bincount(areas, minlength=n_areas)
    else:
        users = _count_users(areas, np.concatenate([p.users for p in busy]), n_areas)
    return tweets.astype(np.int64), users


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
