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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

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
    StaleTileError,
    SummaryBucket,
    TimeTier,
    bucket_start,
    bucket_starts,
    build_tiles,
    first_of_runs,
    stitch_cells,
    stitch_pairs,
    window_align,
)

#: Every tier's span, read on the hot path instead of
#: :attr:`TimeTier.span_seconds`.
_SPANS = {tier: tier.span_seconds for tier in TimeTier}
_MINUTE_SPAN = _SPANS[TimeTier.MINUTE]
_HOUR_SPAN = _SPANS[TimeTier.HOUR]

#: ``(tier, span)`` in the planner's preference order; the open minutes
#: (span :data:`_MINUTE_SPAN`) are tried after finalized minute tiles.
_PLAN = tuple((tier, _SPANS[tier]) for tier in COARSE_FIRST)


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
    The per-area counts merge only the tiles' ``(area, user)`` pairs,
    the flows only their OD cells, each once, on first access and
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
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return stitch_pairs(self.tiles, self.n_areas)

    @cached_property
    def tweet_counts(self) -> np.ndarray:
        """Tweets per area (a tweet counts in every containing disc)."""
        areas, _, tweets = self._pairs
        return np.bincount(areas, weights=tweets, minlength=self.n_areas).astype(np.int64)

    @cached_property
    def user_counts(self) -> np.ndarray:
        """Unique users per area."""
        return np.bincount(self._pairs[0], minlength=self.n_areas)

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
        self._last_label: dict[int, int] = {}
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
                "tracked_users": len(self._last_label),
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
        the watermark is sliced off the columns, not copied.  Each row's
        previous label comes from the batch itself or, for a user's
        first row, from the store's per-user position; then one
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
                users = batch.user_ids[keep:]
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

        A stable sort by user keeps each user's rows in time order, so a
        row's previous label is the row before it, or the user's stored
        position for their first row; the stored position then moves to
        each user's last label (an unlabelled tweet still moves it).
        """
        order = users.argsort(kind="stable")
        users = users[order]
        labels = labels[order]
        firsts = first_of_runs(users)
        get = self._last_label.get
        previous = np.empty_like(labels)
        previous[1:] = labels[:-1]
        previous[firsts] = [get(user, -1) for user in users[firsts].tolist()]
        # Row ``firsts[k] - 1`` ends the run before run k (row -1 ends
        # the last run): together they are every user's last row.
        lasts = firsts - 1
        self._last_label.update(zip(users[lasts].tolist(), labels[lasts].tolist()))
        # A move needs two labels, both >= 0: their OR has no sign bit.
        moved = previous != labels
        moved &= (previous | labels) >= 0
        return starts[order][moved], previous[moved], labels[moved]

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
                    start + _SPANS[tier]
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
        self._rollup_due = min(self._rollup_due, start + _SPANS[tier])

    def _rollup_tier(self, tier: TimeTier) -> None:
        source = ROLLUP_SOURCE[tier]
        span = _SPANS[tier]
        for start in sorted(self._pending_rollup[tier]):
            if start + span > self._watermark:
                continue
            children = [
                child
                for child_start in range(start, start + span, _SPANS[source])
                if (child := self._tiles[source].get(child_start)) is not None
            ]
            self._pending_rollup[tier].discard(start)
            if not children:
                continue
            tile = SummaryBucket.rolled_up(
                tier, start, self.world.n_areas, children
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
            self._journal.append(bucket.encode())

    def recover(self) -> int:
        """Reload every journaled tile of this namespace; returns count.

        Reads the journal once, up to its first damaged frame; the last
        frame for a ``(tier, start)`` wins.  Frames that do not decode as
        a current-format tile over this world's areas (another format
        version, or an older build's pickled tile) are skipped and
        counted in ``stats()["stale_frames"]``.  Installs the tiles not
        already in memory (recovery after partial operation is
        additive), advances the watermark to the newest recovered tile
        end and re-derives the rollup schedule — no corpus replay.
        Recovered minute tiles reach the follower as finalized ones do.
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
        recovered = 0
        with self._lock:
            self._stale_frames = stale
            for tile in latest.values():
                if tile.start in self._tiles[tile.tier]:
                    continue
                self._install_tile(tile)
                if tile.tier is TimeTier.MINUTE:
                    self._newly_final.append(tile)
                recovered += 1
                self._watermark = max(self._watermark, float(tile.end))
                if tile.tier is not TimeTier.DAY:
                    coarser = TimeTier.HOUR if tile.tier is TimeTier.MINUTE else TimeTier.DAY
                    self._schedule(coarser, bucket_start(tile.start, coarser))
            # Drop rollup slots already materialised by a recovered tile.
            for tier in self._pending_rollup:
                self._pending_rollup[tier] -= self._tiles[tier].keys()
            if recovered:
                self._advance()
                self._version += 1
        return recovered

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
        ``last_label`` seeds per-user OD positions for users the store
        has not seen, so the first live transition after a backfill is
        counted.
        """
        installed = 0
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
                ):
                    continue
                if bucket.end <= watermark:
                    self._finalize_minute(bucket.start, bucket)
                else:
                    self._minute_open[bucket.start] = bucket
                installed += 1
            self._watermark = max(self._watermark, float(watermark))
            for user_id, label in (last_label or {}).items():
                self._last_label.setdefault(user_id, label)
            self._advance()
            if installed:
                self._version += 1
        return installed
