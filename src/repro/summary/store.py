"""The incremental multi-resolution summary store.

:class:`SummaryStore` keeps time-bucketed population and OD summaries at
three tiers (minute → hour → day) and answers any minute-aligned
``[t0, t1)`` window query by stitching O(buckets-touched) tiles instead
of rescanning a corpus.

Lifecycle of a tile
-------------------
Tweets ingest into **open** minute buckets (time-ordered batches; the
store keeps a watermark and drops older tweets, counted).  Each batch
becomes minute tiles through one call of the tile kernel,
:func:`~repro.summary.tiers.build_tiles` — the kernel backfill runs
too — and a tile for a minute that is already open merges into it.
A tile holds sorted columns whose size follows the minute's activity:
its distinct ``(area, user)`` pairs with their tweet counts, and its
nonzero OD cells (:class:`~repro.summary.tiers.SummaryBucket`).  Once
the watermark passes a minute's end the bucket **finalizes**: it is
appended to the namespace's journal in the
:class:`~repro.pipeline.store.ArtifactStore` (when one is attached),
and is scheduled for rollup.  When every minute of an hour is behind
the watermark the present minute tiles merge into an **hour** tile;
hours merge into **day** tiles the same way.  Finer tiles are retained
— partial windows need them — so a query greedily covers its span with
the coarsest aligned tile available and falls through to finer tiers
(ultimately to "empty minute") where a coarse tile is absent.  Rollup
and query stitching are the same array merge: concatenate the tiles'
sorted columns, then group equal keys (a read, only those it answers).

Interned user ids
-----------------
The store is the one boundary where user ids change.  It interns raw
ids (any int in ``[0, 2**63)``) to dense ids ``0..n-1``, numbered as it
meets them, and its tiles hold the dense ids, so a merge packs
``(area, user)`` into one int64 key.  Ids cross the boundary in three
places: a live batch's users (:meth:`SummaryStore.ingest_labelled`),
backfilled tiles and their ``last_label`` seed
(:meth:`SummaryStore.install_minutes`), and decoded journal frames
(:meth:`SummaryStore.recover`).  Frames are written back with raw ids
in ``(area, raw user)`` order, exactly the bytes an un-interned tile
encodes to, so dense ids never leave the process and each store (each
shard) numbers its users on its own.  Reads never touch the intern
table: they only see the tiles.

Minute follower
---------------
One consumer may follow the finalized minutes (:meth:`SummaryStore.follow`):
the serving anomaly monitor.  It is called under the store's lock with
the minute tiles each ingest, flush, backfill install or recovery
finalized, in start order, and the *frontier* — the minute edge before
which every minute is final — so it sees exactly what a restart would
recover, in the order a live stream finalized it.

Consistency and staleness
-------------------------
Every mutation bumps a monotonic ``version`` — the serving layer keys
its response cache on it, so a cached windowed answer can never outlive
the tiles it was computed from.  ``staleness_seconds`` on a query
result is *stream-time* staleness: how many seconds at the tail of the
requested window lie beyond the ingest watermark (0 when the window is
fully covered by ingested data).  Open buckets are included in query
answers, so freshness is bounded by ingest batching, not by rollup
cadence.

Restart recovery
----------------
Each finalized (or rolled-up) tile is one frame appended to the
namespace's journal, ``<store root>/journals/summary-<namespace>.log``
(:class:`~repro.pipeline.journal.Journal`): a ``"<II"`` header (payload
length, CRC-32) and the tile's fixed binary encoding
(:meth:`~repro.summary.tiers.SummaryBucket.encode`: a header with magic
and format version, then raw little-endian int64 columns).  There is
no fsync.  :meth:`recover` reads the journal once — no corpus replay —
and stops at the first short or CRC-failing frame; for a repeated
``(tier, start)`` the last frame wins.  A whole frame that is not a
current-format tile over this world (another format version, or an
older build's pickled tile) is skipped and counted as stale, never
treated as damage.  The first append of a process truncates a torn
tail back to the last good frame, so new tiles never land behind it;
appends hold an exclusive ``flock``, so a backfill and a running server
sharing a cache directory interleave whole frames.  Tiles written by
older versions are not read; ``repro summary backfill`` rebuilds them.

Only finalized tiles were persisted, so at most the open
(sub-minute-old) tail is lost; per-user OD positions are also reset, so
the first post-restart transition of a user straddling the restart is
not counted (documented contract).
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.label import PointLabels, label_and_contain

# The retired per-consumer kernels stay importable under this module so
# perfbench's layer probe, which wraps them where this module used to
# look them up, keeps resolving; the live path no longer calls them.
from repro.core.label import label_points, membership_points  # noqa: F401
from repro.core.world import World
from repro.data.schema import Tweet, TweetBatch
from repro.pipeline.store import ArtifactStore
from repro.summary.tiers import (
    COARSE_FIRST,
    ROLLUP_SOURCE,
    USER_BITS,
    StaleTileError,
    SummaryBucket,
    TimeTier,
    bucket_start,
    bucket_starts,
    build_tiles,
    first_of_runs,
    pair_counts,
    stitch_cells,
    window_align,
)

_MINUTE_SPAN = TimeTier.MINUTE.span_seconds
_HOUR_SPAN = TimeTier.HOUR.span_seconds

#: ``(tier, span)`` in the planner's preference order; the open minutes
#: (span :data:`_MINUTE_SPAN`) are tried after finalized minute tiles.
_PLAN = tuple((tier, tier.span_seconds) for tier in COARSE_FIRST)

#: Dense user ids must pack into a pair key (:data:`USER_BITS`).
_MAX_USERS = 1 << USER_BITS

#: A user's OD position before the store has one; any negative label
#: starts no move.
_NO_POSITION = -2

#: Rows of raw ids interned per dict pass.
_INTERN_ROWS = 1 << 16


@dataclass(frozen=True)
class IngestOutcome:
    """Result of one summary ingest batch.

    ``raised`` is what the minute follower (see
    :meth:`SummaryStore.follow`) reported for the minutes this batch
    finalized — the serving anomaly monitor reports the anomalies it
    raised.
    """

    accepted: int
    dropped_late: int
    version: int
    raised: int = 0


#: ``follower(tiles, frontier) -> raised``: newly final minute tiles in
#: start order, and the minute edge before which every minute is final.
MinuteFollower = Callable[[Sequence[SummaryBucket], int | None], int]


@dataclass(frozen=True)
class MinuteListing:
    """Minute tiles from some start on, finalized and open, in start order.

    ``frontier`` is the minute edge before which every minute is final
    and ``edge`` the end of the newest minute holding data (both None
    before any data).
    """

    tiles: tuple[SummaryBucket, ...]
    frontier: int | None
    edge: int | None


@dataclass(frozen=True)
class WindowSummary:
    """One ``[t0, t1)`` answer: the covering tiles, merged on first read.

    ``t0``/``t1`` are the *effective* minute-aligned bounds, ``tiles``
    the cover in time order; ``tiles_used`` maps tier name to the number
    of tiles of that tier stitched in (empty minutes touch nothing).
    The per-area counts read only the tiles' ``(area, user)`` pairs,
    without merging them (:func:`~repro.summary.tiers.pair_counts`), and
    the flows merge only their OD cells, each once, on first access and
    outside the store's lock.  The answer is the store's at query time:
    tiles are immutable, and an open minute that grows is replaced.
    """

    t0: int
    t1: int
    n_areas: int
    tiles: tuple[SummaryBucket, ...]
    n_tweets: int
    buckets_touched: int
    tiles_used: Mapping[str, int]
    staleness_seconds: float
    version: int

    @cached_property
    def _per_area(self) -> tuple[np.ndarray, np.ndarray]:
        return pair_counts(self.tiles, self.n_areas)

    @property
    def tweet_counts(self) -> np.ndarray:
        """Tweets per area (a tweet counts in every containing disc)."""
        return self._per_area[0]

    @property
    def user_counts(self) -> np.ndarray:
        """Unique users per area."""
        return self._per_area[1]

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return stitch_cells(self.tiles, self.n_areas)

    def flow_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sources, dests, counts)`` of the nonzero OD cells, row-major
        (read-only: a one-tile window returns its tile's columns)."""
        return self._cells

    @property
    def n_transitions(self) -> int:
        """Total OD transitions in the window."""
        return int(self._cells[2].sum())

    @cached_property
    def flow_matrix(self) -> np.ndarray:
        """Transition counts as a dense ``(n_areas, n_areas)`` matrix."""
        matrix = np.zeros((self.n_areas, self.n_areas), dtype=np.int64)
        sources, dests, counts = self._cells
        matrix[sources, dests] = counts
        return matrix


class SummaryStore:
    """Multi-resolution time-tiered population/OD summaries over one world.

    Parameters
    ----------
    world:
        The area system every tile is aligned with.
    artifacts:
        Optional artifact store; when given, finalized tiles append to
        its journal ``journals/summary-<namespace>.log`` and
        :meth:`recover` restores them after a restart.
    namespace:
        Journal name separating summary families (typically the
        gazetteer scale name) within one artifact store.

    All public methods are thread-safe (one internal mutex; ingest is
    single-writer).
    """

    def __init__(
        self,
        world: World,
        artifacts: ArtifactStore | None = None,
        namespace: str = "default",
    ) -> None:
        if "/" in namespace or not namespace:
            raise ValueError(f"namespace must be a non-empty path segment, got {namespace!r}")
        self.world = world
        self.namespace = namespace
        self._journal = (
            None if artifacts is None else artifacts.journal(f"summary-{namespace}")
        )
        self._lock = threading.Lock()
        self._minute_open: dict[int, SummaryBucket] = {}
        self._tiles: dict[TimeTier, dict[int, SummaryBucket]] = {
            tier: {} for tier in TimeTier
        }
        # Sorted keys of each ``_tiles`` tier: the query planner bisects them.
        self._starts: dict[TimeTier, list[int]] = {tier: [] for tier in TimeTier}
        self._pending_rollup: dict[TimeTier, set[int]] = {
            tier: set() for tier in ROLLUP_SOURCE
        }
        # No pending rollup slot ends before this (stream seconds), so
        # the rollup scans wait until the watermark reaches it.
        self._rollup_due = math.inf
        # The intern table: raw id -> dense id, and by dense id the raw
        # id and the user's last OD label (:data:`_NO_POSITION` before
        # the store has one).  The arrays grow by doubling.
        self._dense_ids: dict[int, int] = {}
        self._raw_ids = np.empty(0, dtype=np.int64)
        self._last_label = np.empty(0, dtype=np.int64)
        self._follower: MinuteFollower | None = None
        # Minutes finalized since the follower last ran, in that order.
        self._newly_final: list[SummaryBucket] = []
        self._watermark = float("-inf")
        self._version = 0
        self._accepted = 0
        self._dropped_late = 0
        self._stale_frames = 0

    # -- introspection -------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic state version; bumps on every ingest/rollup/recover."""
        with self._lock:
            return self._version

    @property
    def watermark(self) -> float:
        """Newest ingested timestamp (-inf before any data)."""
        with self._lock:
            return self._watermark

    def stats(self) -> dict:
        """Counters plus per-tier tile inventory."""
        with self._lock:
            return {
                "version": self._version,
                "watermark": (
                    self._watermark if np.isfinite(self._watermark) else None
                ),
                "accepted": self._accepted,
                "dropped_late": self._dropped_late,
                "open_minutes": len(self._minute_open),
                "tiles": {
                    tier.name.lower(): len(buckets)
                    for tier, buckets in self._tiles.items()
                },
                "persistent": self._journal is not None,
                "journal_bytes": (
                    0 if self._journal is None else self._journal.size()
                ),
                "torn_bytes_dropped": (
                    0 if self._journal is None else self._journal.torn_bytes_dropped
                ),
                "stale_frames": self._stale_frames,
                "interned_users": len(self._dense_ids),
                "tracked_users": int(
                    np.count_nonzero(
                        self._last_label[: len(self._dense_ids)] != _NO_POSITION
                    )
                ),
            }

    # -- ingest --------------------------------------------------------

    def ingest(self, tweets: Sequence[Tweet]) -> IngestOutcome:
        """Ingest a batch of tweets in any order (:meth:`ingest_labelled`).

        The tweets become a time-ascending :class:`TweetBatch`, labelled
        once by :func:`~repro.core.label.label_and_contain`.  Tweets
        behind the watermark are dropped and counted, exactly as at the
        serve ingest door — the stream contract is monotone time.
        """
        batch = TweetBatch.from_tweets(tweets)
        return self.ingest_labelled(
            batch, label_and_contain(self.world, batch.lats, batch.lons)
        )

    def ingest_labelled(
        self, batch: TweetBatch, labelled: PointLabels
    ) -> IngestOutcome:
        """Ingest a time-ascending batch whose labels are precomputed.

        ``labelled`` must come from
        :func:`~repro.core.label.label_and_contain` over exactly these
        rows and this store's :attr:`world`: ``labelled.labels`` feed the
        OD transitions, and the CSR containment (``indptr``/``indices``)
        feeds each tweet's population areas.  The stale prefix behind
        the watermark is sliced off the columns, not copied.  The users
        are interned to dense ids; each row's previous label comes from
        the batch itself or, for a user's first row, from the store's
        per-user position; then one
        :func:`~repro.summary.tiers.build_tiles` call turns the rows
        into minute tiles, merged into the open minutes.
        """
        n = len(batch)
        if len(labelled) != n:
            raise ValueError(f"{len(labelled)} labels for {n} tweets")
        with self._lock, obs.span("summary.ingest", tweets=n):
            timestamps = batch.timestamps
            keep = int(np.searchsorted(timestamps, self._watermark))
            accepted = n - keep
            if accepted:
                users = self._intern(batch.user_ids[keep:])
                starts = bucket_starts(timestamps[keep:], TimeTier.MINUTE)
                moves = self._moves(starts, users, labelled.labels[keep:])
                for tile in build_tiles(
                    TimeTier.MINUTE, self.world.n_areas, starts, users,
                    labelled.indptr[keep:], labelled.indices, moves,
                ):
                    held = self._minute_open.get(tile.start)
                    if held is not None:
                        tile = SummaryBucket.merged(
                            TimeTier.MINUTE, tile.start, tile.n_areas, (held, tile)
                        )
                    self._minute_open[tile.start] = tile
                self._watermark = float(timestamps[-1])
            self._accepted += accepted
            self._dropped_late += keep
            raised = self._advance()
            if accepted:
                self._version += 1
            return IngestOutcome(accepted, keep, self._version, raised)

    def _moves(
        self, starts: np.ndarray, users: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batch's transitions as ``(starts, sources, dests)`` columns.

        ``users`` are dense ids.  A stable sort by user keeps each
        user's rows in time order, so a row's previous label is the row
        before it, or the user's stored position for their first row;
        the stored position then moves to each user's last label (an
        unlabelled tweet still moves it).
        """
        order = users.argsort(kind="stable")
        users = users[order]
        labels = labels[order]
        firsts = first_of_runs(users)
        previous = np.empty_like(labels)
        previous[1:] = labels[:-1]
        previous[firsts] = self._last_label[users[firsts]]
        # Row ``firsts[k] - 1`` ends the run before run k (row -1 ends
        # the last run): together they are every user's last row.
        lasts = firsts - 1
        self._last_label[users[lasts]] = labels[lasts]
        # A move needs two labels, both >= 0: their OR has no sign bit.
        moved = previous != labels
        moved &= (previous | labels) >= 0
        return starts[order][moved], previous[moved], labels[moved]

    def _intern(self, raw: np.ndarray) -> np.ndarray:
        """Dense ids of raw user ids, numbering unseen ones as they come.

        One dict pass over the ids; the raw-id and last-label arrays
        grow by doubling.  Raises :class:`OverflowError` rather than
        hand out a dense id that would not pack into a pair key.
        """
        table = self._dense_ids
        before = len(table)
        dense = [table.setdefault(user, len(table)) for user in raw.tolist()]
        n = len(table)
        if n > before:
            # The new users are the table's last keys.
            fresh = list(islice(reversed(table), n - before))[::-1]
            if n > _MAX_USERS:
                for user in fresh:
                    del table[user]
                raise OverflowError(
                    f"a summary store interns at most {_MAX_USERS} user ids; "
                    f"this batch would make it {n}"
                )
            if n > self._raw_ids.size:
                size = max(n, 2 * self._raw_ids.size, 64)
                self._raw_ids = np.resize(self._raw_ids, size)
                grown = np.full(size, _NO_POSITION, dtype=np.int64)
                grown[: self._last_label.size] = self._last_label
                self._last_label = grown
            self._raw_ids[before:n] = fresh
        return np.array(dense, dtype=np.int64)

    def _dense_users(
        self, tiles: list[SummaryBucket]
    ) -> Iterator[tuple[SummaryBucket, np.ndarray]]:
        """Each of ``tiles`` (raw user ids) with its users as dense ids.

        The tiles are taken in runs of about :data:`_INTERN_ROWS` pair
        rows, whose distinct users are interned at once: a recovery's
        millions of rows need one sort per run, not a dict lookup per
        row, nor one list of Python ints.  The pairs keep their order:
        by area, then by raw id.
        """
        first = 0
        while first < len(tiles):
            last, rows = first, 0
            while last < len(tiles) and rows < _INTERN_ROWS:
                rows += tiles[last].users.size
                last += 1
            run = tiles[first:last]
            distinct, inverse = np.unique(
                np.concatenate([tile.users for tile in run]), return_inverse=True
            )
            users = self._intern(distinct)[inverse]
            start = 0
            for tile in run:
                end = start + tile.users.size
                yield tile, users[start:end]
                start = end
            first = last

    # -- finalization and rollup ---------------------------------------

    def _advance(self) -> int:
        """Finalize passed minutes, roll complete hours/days up and hand
        the newly final minutes to the follower; returns what it raised."""
        for start in sorted(self._minute_open):
            if start + _MINUTE_SPAN > self._watermark:
                break
            self._finalize_minute(start, self._minute_open.pop(start))
        if self._watermark >= self._rollup_due:
            for tier in (TimeTier.HOUR, TimeTier.DAY):
                self._rollup_tier(tier)
            self._rollup_due = min(
                (
                    start + tier.span_seconds
                    for tier, starts in self._pending_rollup.items()
                    for start in starts
                ),
                default=math.inf,
            )
        final, self._newly_final = self._newly_final, []
        if self._follower is None:
            return 0
        final.sort(key=lambda tile: tile.start)
        return self._follower(final, self._frontier())

    def _frontier(self) -> int | None:
        """The minute edge before which every minute is final."""
        if not np.isfinite(self._watermark):
            return None
        return bucket_start(self._watermark, TimeTier.MINUTE)

    def follow(self, follower: MinuteFollower) -> None:
        """Make ``follower`` the store's one consumer of final minutes.

        It is called at once with every finalized minute tile and the
        frontier, then after each ingest, flush, backfill install or
        recovery with the minutes that became final (start order) and
        the new frontier.  Calls run under the store's lock, so they are
        serialised and see minutes exactly in finalization order; the
        follower must not call back into the store.  The follower's
        return value is summed into :attr:`IngestOutcome.raised`.
        """
        with self._lock:
            if self._follower is not None:
                raise ValueError("this summary store already has a follower")
            self._follower = follower
            minutes = self._tiles[TimeTier.MINUTE]
            follower(
                [minutes[start] for start in self._starts[TimeTier.MINUTE]],
                self._frontier(),
            )

    def minutes(self, since: int | None = None) -> MinuteListing:
        """Minute tiles starting at or after ``since`` (all by default),
        finalized and open, with the frontier and the data edge."""
        with self._lock:
            starts = self._starts[TimeTier.MINUTE]
            first = 0 if since is None else bisect.bisect_left(starts, since)
            finalized = self._tiles[TimeTier.MINUTE]
            tiles = [finalized[start] for start in starts[first:]]
            tiles += [
                self._minute_open[start]
                for start in sorted(self._minute_open)
                if since is None or start >= since
            ]
            newest = max(self._minute_open, default=starts[-1] if starts else None)
            return MinuteListing(
                tuple(tiles),
                self._frontier(),
                None if newest is None else newest + _MINUTE_SPAN,
            )

    def _install_tile(self, tile: SummaryBucket) -> None:
        self._tiles[tile.tier][tile.start] = tile
        bisect.insort(self._starts[tile.tier], tile.start)

    def _finalize_minute(self, start: int, bucket: SummaryBucket) -> None:
        self._install_tile(bucket)
        self._newly_final.append(bucket)
        self._persist(bucket)
        self._schedule(TimeTier.HOUR, start - start % _HOUR_SPAN)

    def _schedule(self, tier: TimeTier, start: int) -> None:
        """Queue the ``tier`` tile at ``start`` for rollup once the
        watermark reaches its end; every pending slot enters here."""
        self._pending_rollup[tier].add(start)
        self._rollup_due = min(self._rollup_due, start + tier.span_seconds)

    def _rollup_tier(self, tier: TimeTier) -> None:
        """Roll every due ``tier`` slot up from its present children, one
        bisected slice of the source tier's starts."""
        span = tier.span_seconds
        source = ROLLUP_SOURCE[tier]
        starts = self._starts[source]
        tiles = self._tiles[source]
        for start in sorted(self._pending_rollup[tier]):
            if start + span > self._watermark:
                continue
            self._pending_rollup[tier].discard(start)
            first = bisect.bisect_left(starts, start)
            last = bisect.bisect_left(starts, start + span, first)
            if first == last:
                continue
            tile = SummaryBucket.rolled_up(
                tier, start, self.world.n_areas,
                [tiles[child] for child in starts[first:last]],
            )
            self._install_tile(tile)
            self._persist(tile)
            if tier is TimeTier.HOUR:
                self._schedule(TimeTier.DAY, bucket_start(start, TimeTier.DAY))

    # -- persistence ---------------------------------------------------

    def _persist(self, bucket: SummaryBucket) -> None:
        if self._journal is None:
            return
        with obs.span("summary.persist", tier=bucket.tier.name.lower()):
            self._journal.append(self._encode(bucket))

    def _encode(self, tile: SummaryBucket) -> bytes:
        """``tile``'s journal frame: its raw user ids, its pairs in
        ``(area, raw user)`` order, so the bytes are those the tile
        encodes to without interning.

        Only the encoded pair columns are re-sorted: by raw id, then
        stably by area.  On ingest-paper's tiles (2-vCPU host) that took
        ~3 µs a minute tile and ~35 µs an hour tile (~680 pairs),
        against ~4 and ~66 µs for one two-key ``np.lexsort``.
        """
        users = self._raw_ids[tile.users]
        order = users.argsort()
        order = order[tile.areas[order].argsort(kind="stable")]
        return tile.encode((tile.areas[order], users[order], tile.tweets[order]))

    def recover(self) -> int:
        """Reload every journaled tile of this namespace; returns count.

        Reads the journal once, up to its first damaged frame; the last
        frame for a ``(tier, start)`` wins.  Frames that do not decode as
        a current-format tile over this world's areas (another format
        version, or an older build's pickled tile) are skipped and
        counted in ``stats()["stale_frames"]``.  Installs the tiles not
        already in memory (recovery after partial operation is
        additive), advances the watermark to the newest recovered tile
        end and re-derives the rollup schedule — no corpus replay.  The
        installed tiles' users are interned; their OD positions are not
        restored.  Recovered minute tiles reach the follower as
        finalized ones do.
        """
        if self._journal is None:
            return 0
        latest: dict[tuple[TimeTier, int], SummaryBucket] = {}
        stale = 0
        for payload in self._journal.read():
            try:
                tile = SummaryBucket.decode(payload)
            except StaleTileError:
                tile = None
            if tile is None or tile.n_areas != self.world.n_areas:
                stale += 1
                continue
            latest[tile.tier, tile.start] = tile
        with self._lock:
            self._stale_frames = stale
            fresh = [tile for tile in latest.values() if tile.start not in self._tiles[tile.tier]]
            # Decoded columns are this call's own copies: the dense ids
            # overwrite the raw ones before any reader sees the tile.
            for tile, users in self._dense_users(fresh):
                tile.users[:] = users
            for tile in fresh:
                self._install_tile(tile)
                if tile.tier is TimeTier.MINUTE:
                    self._newly_final.append(tile)
                if tile.tier is not TimeTier.DAY:
                    coarser = TimeTier.HOUR if tile.tier is TimeTier.MINUTE else TimeTier.DAY
                    self._schedule(coarser, tile.start - tile.start % coarser.span_seconds)
            # Drop rollup slots already materialised by a recovered tile.
            for tier in self._pending_rollup:
                self._pending_rollup[tier] -= self._tiles[tier].keys()
            if fresh:
                self._watermark = max(self._watermark, float(max(tile.end for tile in fresh)))
                self._advance()
                self._version += 1
        return len(fresh)

    def flush(self) -> int:
        """Finalize and persist every open minute bucket; returns count.

        The graceful-drain hook: advances the watermark to the end of
        the newest open bucket and runs the normal finalize/rollup
        machinery, so the open (sub-minute) tail reaches the artifact
        store instead of being lost to a restart.  Consistent with the
        stream contract, tweets older than the flushed minutes arriving
        *after* the flush are dropped as late — exactly what a restart
        would have done anyway.  Idempotent: with nothing open this is
        a no-op.
        """
        with self._lock:
            if not self._minute_open:
                return 0
            flushed = len(self._minute_open)
            newest = max(self._minute_open)
            self._watermark = max(
                self._watermark,
                float(newest + _MINUTE_SPAN),
            )
            self._advance()
            self._version += 1
            obs.counter("summary.flushes")
            return flushed

    # -- queries -------------------------------------------------------

    def _cover(self, q0: int, q1: int) -> list[SummaryBucket]:
        """The tiles stitched for ``[q0, q1)``, in time order.

        The cover is greedy and coarse-first: walking the window from
        ``q0``, take the coarsest tile that starts at the current minute
        and ends by ``q1`` (a finalized minute before an open one), jump
        past it, else step one minute.  Such a walk only ever takes a
        tile at a tile start, so the planner jumps straight to the next
        usable start by bisecting each tier's sorted starts: the cost is
        O(tiles taken × log tiles), whatever the window's length.
        """
        lanes = [
            (self._starts[tier], self._tiles[tier], span) for tier, span in _PLAN
        ]
        lanes.append((sorted(self._minute_open), self._minute_open, _MINUTE_SPAN))
        covering: list[SummaryBucket] = []
        t = q0
        while t < q1:
            best = None
            for starts, tiles, span in lanes:
                k = bisect.bisect_left(starts, t)
                if (
                    k < len(starts)
                    and starts[k] + span <= q1
                    and (best is None or starts[k] < best[0])
                ):
                    best = (starts[k], tiles, span)
            if best is None:
                break
            start, tiles, span = best
            covering.append(tiles[start])
            t = start + span
        return covering

    def query(self, t0: float, t1: float) -> WindowSummary:
        """The tiles covering ``[t0, t1)``, as one lazily merged summary.

        Bounds snap outward to minute alignment (the finest tier); the
        effective bounds are reported on the result.  Open minute
        buckets are included, so answers reflect everything ingested.
        Only the plan holds the store's lock: the cover, the watermark
        and the version.  The merge runs outside it, when the result is
        first read (:class:`WindowSummary`).
        """
        q0, q1 = window_align(t0, t1)
        with self._lock, obs.span("summary.query", t0=q0, t1=q1) as sp:
            covering = tuple(self._cover(q0, q1))
            watermark = self._watermark
            version = self._version
            sp.set(buckets=len(covering))
        return WindowSummary(
            t0=q0,
            t1=q1,
            n_areas=self.world.n_areas,
            tiles=covering,
            n_tweets=sum(tile.n_tweets for tile in covering),
            buckets_touched=len(covering),
            tiles_used=dict(Counter(tile.tier.name.lower() for tile in covering)),
            staleness_seconds=round(min(float(q1 - q0), max(0.0, q1 - watermark)), 3),
            version=version,
        )

    # -- bulk install (backfill) ---------------------------------------

    def install_minutes(
        self,
        buckets: Sequence[SummaryBucket],
        watermark: float,
        last_label: Mapping[int, int] | None = None,
    ) -> int:
        """Install backfilled minute tiles; returns tiles installed.

        Minute tiles wholly behind ``watermark`` finalize (and persist)
        immediately; the tail minute still ahead of it stays open so
        live ingest can continue appending.  Tiles colliding with an
        existing minute (open or finalized) are skipped — re-running a
        backfill over the same span is idempotent, not double-counting.
        A tile of another tier or world raises :class:`ValueError`
        before any tile is installed.  The tiles carry raw user ids,
        which the store interns.
        ``last_label`` (raw id → label) seeds the OD position of every
        user the store holds none for, so the first live transition
        after a backfill is counted.
        """
        fresh: dict[int, SummaryBucket] = {}
        with self._lock:
            for bucket in buckets:
                if bucket.tier is not TimeTier.MINUTE:
                    raise ValueError(
                        f"install_minutes got a {bucket.tier.name} tile"
                    )
                if bucket.n_areas != self.world.n_areas:
                    raise ValueError(
                        f"tile covers {bucket.n_areas} areas, world has "
                        f"{self.world.n_areas}"
                    )
                if (
                    bucket.start in self._tiles[TimeTier.MINUTE]
                    or bucket.start in self._minute_open
                    or bucket.start in fresh
                ):
                    continue
                fresh[bucket.start] = bucket
            for raw, users in self._dense_users(list(fresh.values())):
                bucket = replace(raw, users=users)
                if bucket.end <= watermark:
                    self._finalize_minute(bucket.start, bucket)
                else:
                    self._minute_open[bucket.start] = bucket
            self._watermark = max(self._watermark, float(watermark))
            if last_label:
                users = self._intern(np.fromiter(last_label, np.int64, len(last_label)))
                unset = self._last_label[users] == _NO_POSITION
                self._last_label[users[unset]] = np.fromiter(
                    last_label.values(), np.int64, len(last_label)
                )[unset]
            self._advance()
            if fresh:
                self._version += 1
        return len(fresh)
