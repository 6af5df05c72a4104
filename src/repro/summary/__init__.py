"""Incremental multi-resolution time-tiered summary store.

Every windowed population or flow question used to cost a rescan of the
corpus or the latest artifact run — O(corpus) per query.  This
subpackage makes it O(buckets touched): tweets ingest into minute
buckets, finalized minutes roll up into hour and day tiles, and any
``[t0, t1)`` window is answered by stitching the coarsest aligned tiles
that cover it.  Each finalized tile is one framed append to a
per-namespace journal in the pipeline's
:class:`~repro.pipeline.store.ArtifactStore`, so a restarted service
recovers its summaries without replaying a corpus.

``tiers``
    :class:`TimeTier` (minute/hour/day), bucket-boundary semantics, the
    :class:`SummaryBucket` tile type (sorted sparse columns, an
    array-merge rollup and a fixed binary codec) and
    :func:`build_tiles`, the one kernel live ingest and backfill use to
    turn labelled rows into tiles.
``store``
    :class:`SummaryStore`: thread-safe incremental ingest, rollup,
    persistence/recovery and the tile-stitching window query with a
    stream-time staleness contract and a monotonic version for cache
    invalidation.
``backfill``
    Vectorised corpus → tiles build, exposed as a cached pipeline task
    (``summary_pipeline``) and the ``repro summary backfill`` CLI.
"""

from repro.summary.backfill import (
    TileSet,
    backfill_summary,
    build_minute_buckets,
    summary_pipeline,
)
from repro.summary.store import (
    IngestOutcome,
    SummaryStore,
    WindowSummary,
)
from repro.summary.tiers import (
    SummaryBucket,
    TimeTier,
    bucket_start,
    build_tiles,
    window_align,
)

__all__ = [
    "IngestOutcome",
    "SummaryBucket",
    "SummaryStore",
    "TileSet",
    "TimeTier",
    "WindowSummary",
    "backfill_summary",
    "bucket_start",
    "build_minute_buckets",
    "build_tiles",
    "summary_pipeline",
    "window_align",
]
