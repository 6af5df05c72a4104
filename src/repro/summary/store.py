"""The incremental multi-resolution summary store.

:class:`SummaryStore` keeps time-bucketed population and OD summaries at
three tiers (minute → hour → day) and answers any minute-aligned
``[t0, t1)`` window query by stitching O(buckets-touched) tiles instead
of rescanning a corpus.

Lifecycle of a tile
-------------------
Tweets ingest into **open** minute buckets (time-ordered batches; the
store keeps a watermark and drops older tweets, counted).  Once the
watermark passes a minute's end the bucket **finalizes**: it becomes
immutable, is persisted content-addressed through the
:class:`~repro.pipeline.store.ArtifactStore` (when one is attached),
and is scheduled for rollup.  When every minute of an hour is behind
the watermark the present minute tiles merge into an **hour** tile;
hours merge into **day** tiles the same way.  Finer tiles are retained
— partial windows need them — so a query greedily covers its span with
the coarsest aligned tile available and falls through to finer tiers
(ultimately to "empty minute") where a coarse tile is absent.

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
:meth:`recover` reloads every persisted tile for the store's namespace
from the artifact store — no corpus replay.  Only finalized tiles were
persisted, so at most the open (sub-minute-old) tail is lost; per-user
OD positions are also reset, so the first post-restart transition of a
user straddling the restart is not counted (documented contract).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.accumulate import PopulationAccumulator
from repro.core.label import PointLabels, label_tweet_batch

# The retired per-consumer kernels stay importable under this module so
# perfbench's layer probe, which wraps them where this module used to
# look them up, keeps resolving; the live path no longer calls them.
from repro.core.label import label_points, membership_points  # noqa: F401
from repro.core.world import World
from repro.data.schema import Tweet
from repro.pipeline.store import ArtifactStore
from repro.summary.tiers import (
    COARSE_FIRST,
    ROLLUP_SOURCE,
    SummaryBucket,
    TimeTier,
    bucket_start,
    window_align,
)

#: Root of every summary key in the artifact store's key index.
KEY_PREFIX = "summary"


@dataclass(frozen=True)
class IngestOutcome:
    """Result of one summary ingest batch."""

    accepted: int
    dropped_late: int
    version: int


@dataclass(frozen=True)
class WindowSummary:
    """One stitched ``[t0, t1)`` answer.

    ``t0``/``t1`` are the *effective* minute-aligned bounds;
    ``tiles_used`` maps tier name to the number of tiles of that tier
    stitched in (empty minutes touch nothing).
    """

    t0: int
    t1: int
    tweet_counts: np.ndarray
    user_counts: np.ndarray
    flow_matrix: np.ndarray
    n_tweets: int
    n_transitions: int
    buckets_touched: int
    tiles_used: Mapping[str, int]
    staleness_seconds: float
    version: int


class SummaryStore:
    """Multi-resolution time-tiered population/OD summaries over one world.

    Parameters
    ----------
    world:
        The area system every tile is aligned with.
    artifacts:
        Optional artifact store; when given, finalized tiles persist
        content-addressed under ``summary/<namespace>/...`` keys and
        :meth:`recover` restores them after a restart.
    namespace:
        Key namespace separating summary families (typically the
        gazetteer scale name) within one artifact store.

    All public methods are thread-safe (one internal mutex, the same
    single-writer discipline as :class:`~repro.serve.ingest.IngestService`).
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
        self._artifacts = artifacts
        self._lock = threading.Lock()
        self._minute_open: dict[int, SummaryBucket] = {}
        self._tiles: dict[TimeTier, dict[int, SummaryBucket]] = {
            tier: {} for tier in TimeTier
        }
        self._pending_rollup: dict[TimeTier, set[int]] = {
            tier: set() for tier in ROLLUP_SOURCE
        }
        self._last_label: dict[int, int] = {}
        self._watermark = float("-inf")
        self._version = 0
        self._accepted = 0
        self._dropped_late = 0

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
                "persistent": self._artifacts is not None,
                "tracked_users": len(self._last_label),
            }

    # -- ingest --------------------------------------------------------

    def ingest(self, tweets: Sequence[Tweet]) -> IngestOutcome:
        """Sort and label one batch, then ingest it (:meth:`ingest_labelled`).

        Tweets behind the watermark are dropped and counted, exactly as
        at the serve ingest door — the stream contract is monotone time.
        """
        return self.ingest_labelled(*label_tweet_batch(self.world, tweets))

    def ingest_labelled(
        self, ordered: Sequence[Tweet], labelled: PointLabels
    ) -> IngestOutcome:
        """Ingest a time-ascending batch whose labels are precomputed.

        ``labelled`` must come from
        :func:`~repro.core.label.label_and_contain` over exactly these
        rows and this store's :attr:`world`: ``labelled.labels`` feed the
        OD transitions, and the CSR containment (``indptr``/``indices``)
        feeds each tweet's population areas without a per-row scan of a
        dense membership matrix.  The stale prefix behind the watermark
        is skipped in place, not copied.
        """
        if len(labelled) != len(ordered):
            raise ValueError(f"{len(labelled)} labels for {len(ordered)} tweets")
        with self._lock, obs.span("summary.ingest", tweets=len(ordered)):
            keep = 0
            while (
                keep < len(ordered)
                and ordered[keep].timestamp < self._watermark
            ):
                keep += 1
            dropped = keep
            labels = labelled.labels.tolist()
            bounds = labelled.indptr.tolist()
            indices = labelled.indices.tolist()
            for row in range(keep, len(ordered)):
                self._ingest_one(
                    ordered[row],
                    labels[row],
                    indices[bounds[row] : bounds[row + 1]],
                )
            accepted = len(ordered) - dropped
            self._accepted += accepted
            self._dropped_late += dropped
            self._advance()
            if accepted:
                self._version += 1
            return IngestOutcome(accepted, dropped, self._version)

    def _ingest_one(
        self, tweet: Tweet, label: int, area_indices: Sequence[int]
    ) -> None:
        start = bucket_start(tweet.timestamp, TimeTier.MINUTE)
        bucket = self._minute_open.get(start)
        if bucket is None:
            bucket = SummaryBucket.empty(
                TimeTier.MINUTE, start, self.world.n_areas
            )
            self._minute_open[start] = bucket
        bucket.population.add(area_indices, tweet.user_id)
        bucket.n_tweets += 1
        previous = self._last_label.get(tweet.user_id, -1)
        self._last_label[tweet.user_id] = label
        if previous >= 0 and label >= 0 and previous != label:
            bucket.od_counts[(previous, label)] += 1
        self._watermark = tweet.timestamp

    # -- finalization and rollup ---------------------------------------

    def _advance(self) -> None:
        """Finalize passed minutes and roll complete hours/days up."""
        for start in sorted(self._minute_open):
            if start + TimeTier.MINUTE.span_seconds > self._watermark:
                break
            self._finalize_minute(start, self._minute_open.pop(start))
        for tier in (TimeTier.HOUR, TimeTier.DAY):
            self._rollup_tier(tier)

    def _finalize_minute(self, start: int, bucket: SummaryBucket) -> None:
        self._tiles[TimeTier.MINUTE][start] = bucket
        self._persist(bucket)
        self._pending_rollup[TimeTier.HOUR].add(
            bucket_start(start, TimeTier.HOUR)
        )

    def _rollup_tier(self, tier: TimeTier) -> None:
        source = ROLLUP_SOURCE[tier]
        span = tier.span_seconds
        for start in sorted(self._pending_rollup[tier]):
            if start + span > self._watermark:
                continue
            children = [
                child
                for child_start in range(start, start + span, source.span_seconds)
                if (child := self._tiles[source].get(child_start)) is not None
            ]
            self._pending_rollup[tier].discard(start)
            if not children:
                continue
            tile = SummaryBucket.rolled_up(
                tier, start, self.world.n_areas, children
            )
            self._tiles[tier][start] = tile
            self._persist(tile)
            if tier in ROLLUP_SOURCE.values() and tier is not TimeTier.DAY:
                self._pending_rollup[TimeTier.DAY].add(
                    bucket_start(start, TimeTier.DAY)
                )

    # -- persistence ---------------------------------------------------

    def _tile_key(self, tier: TimeTier, start: int) -> str:
        return f"{KEY_PREFIX}/{self.namespace}/{tier.name.lower()}/{start}"

    def _persist(self, bucket: SummaryBucket) -> None:
        if self._artifacts is None:
            return
        digest = self._artifacts.put(bucket)
        self._artifacts.record_key(
            self._tile_key(bucket.tier, bucket.start),
            digest,
            meta={
                "tier": bucket.tier.name.lower(),
                "start": bucket.start,
                "n_tweets": bucket.n_tweets,
                "namespace": self.namespace,
            },
        )

    def recover(self) -> int:
        """Reload every persisted tile of this namespace; returns count.

        Installs recovered tiles, advances the watermark to the newest
        recovered tile end and re-derives the rollup schedule — no
        corpus replay.  Tiles already present in memory are kept
        (recovery after partial operation is additive, and identical
        tiles are content-addressed anyway).
        """
        if self._artifacts is None:
            return 0
        prefix = f"{KEY_PREFIX}/{self.namespace}/"
        recovered = 0
        with self._lock:
            for key in self._artifacts.keys_with_prefix(prefix):
                digest = self._artifacts.lookup(key)
                if digest is None:
                    continue
                tile = self._artifacts.get(digest)
                if not isinstance(tile, SummaryBucket):
                    continue
                if tile.start in self._tiles[tile.tier]:
                    continue
                self._tiles[tile.tier][tile.start] = tile
                recovered += 1
                self._watermark = max(self._watermark, float(tile.end))
                if tile.tier in ROLLUP_SOURCE.values() or tile.tier is TimeTier.MINUTE:
                    coarser = (
                        TimeTier.HOUR
                        if tile.tier is TimeTier.MINUTE
                        else TimeTier.DAY
                    )
                    if coarser in self._pending_rollup:
                        self._pending_rollup[coarser].add(
                            bucket_start(tile.start, coarser)
                        )
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
                float(newest + TimeTier.MINUTE.span_seconds),
            )
            self._advance()
            self._version += 1
            obs.counter("summary.flushes")
            return flushed

    # -- queries -------------------------------------------------------

    def query(self, t0: float, t1: float) -> WindowSummary:
        """Stitch the tiles covering ``[t0, t1)`` into one summary.

        Bounds snap outward to minute alignment (the finest tier); the
        effective bounds are reported on the result.  Open minute
        buckets are included, so answers reflect everything ingested.
        """
        q0, q1 = window_align(t0, t1)
        minute_span = TimeTier.MINUTE.span_seconds
        plan = tuple((tier, tier.span_seconds) for tier in COARSE_FIRST)
        with self._lock, obs.span("summary.query", t0=q0, t1=q1) as sp:
            covering: list[SummaryBucket] = []
            used: Counter = Counter()
            t = q0
            while t < q1:
                step = minute_span
                bucket = None
                for tier, span in plan:
                    if t % span or t + span > q1:
                        continue
                    bucket = self._tiles[tier].get(t)
                    if bucket is None and tier is TimeTier.MINUTE:
                        bucket = self._minute_open.get(t)
                    if bucket is not None:
                        step = span
                        break
                if bucket is not None:
                    covering.append(bucket)
                    used[bucket.tier.name.lower()] += 1
                t += step
            touched = len(covering)
            if touched == 1:
                # Fast path for the aligned-window common case: read the
                # one covering tile directly, no merge allocation.
                tile = covering[0]
                tweet_counts = tile.population.tweet_counts()
                user_counts = tile.population.user_counts()
                od = tile.od_counts  # read-only below
                n_tweets = tile.n_tweets
            else:
                population = PopulationAccumulator(self.world.n_areas)
                od = Counter()
                n_tweets = 0
                for bucket in covering:
                    population.merge(bucket.population)
                    od.update(bucket.od_counts)
                    n_tweets += bucket.n_tweets
                tweet_counts = population.tweet_counts()
                user_counts = population.user_counts()
            matrix = np.zeros(
                (self.world.n_areas, self.world.n_areas), dtype=np.int64
            )
            for (source, dest), count in od.items():
                matrix[source, dest] = count
            if np.isfinite(self._watermark):
                staleness = min(
                    float(q1 - q0), max(0.0, q1 - self._watermark)
                )
            else:
                staleness = float(q1 - q0)
            sp.set(buckets=touched)
            return WindowSummary(
                t0=q0,
                t1=q1,
                tweet_counts=tweet_counts,
                user_counts=user_counts,
                flow_matrix=matrix,
                n_tweets=n_tweets,
                n_transitions=int(sum(od.values())),
                buckets_touched=touched,
                tiles_used=dict(used),
                staleness_seconds=round(staleness, 3),
                version=self._version,
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
