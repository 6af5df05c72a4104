"""Backfill: replay a corpus artifact into summary tiles.

The live path grows tiles tweet batch by tweet batch; backfill builds
the same tiles in one vectorised pass over a corpus — the recovery
path when a summary store must cover history that streamed in before
the store existed.

The batch construction reuses the kernel layer end to end: OD labels
and CSR ε-disc containment come from one
:func:`~repro.core.label.label_and_contain` pass — the kernel the live
ingest path runs — and transition detection is the vectorised
consecutive-pair rule over the corpus's native ``(user, time)``
ordering, so a backfilled tile is **bit-identical** to the tile the
streaming path would have produced from the same tweets (pinned in
``tests/summary``).

``summary_pipeline`` exposes the build as a cached pipeline task over
the standard corpus task, so repeated backfills of the same corpus
resolve from the artifact store without recomputation;
``repro summary backfill`` is the CLI door.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.label import label_and_contain
from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Scale
from repro.pipeline.executor import Executor, RunResult
from repro.pipeline.graph import Pipeline
from repro.pipeline.graphs import suite_pipeline
from repro.pipeline.store import ArtifactStore
from repro.pipeline.task import Task, TaskContext
from repro.summary.store import SummaryStore
from repro.summary.tiers import SummaryBucket, TimeTier, bucket_start

#: Code-version tag of the tile-build task (bump to invalidate caches).
TILES_TASK_VERSION = "1"


@dataclass(frozen=True)
class TileSet:
    """The backfill artifact: minute tiles plus stream-resume state.

    ``last_label`` carries each user's final OD label so a store that
    installs the tiles can keep counting transitions across the
    backfill/live seam.
    """

    scale: str
    radius_km: float
    minutes: tuple[SummaryBucket, ...]
    watermark: float
    last_label: dict[int, int]
    n_tweets: int
    n_transitions: int

    @property
    def span(self) -> tuple[int, int] | None:
        """Covered ``[first_start, last_end)``, or ``None`` when empty."""
        if not self.minutes:
            return None
        return self.minutes[0].start, self.minutes[-1].end


def build_minute_buckets(world: World, corpus: TweetCorpus) -> TileSet:
    """One vectorised pass from corpus columns to finalized minute tiles.

    The corpus's native ``(user, time)`` ordering is exactly what the
    consecutive-pair transition rule needs; population bucketing only
    needs each row's minute, so no global time sort is required.
    """
    n = len(corpus)
    with obs.span("summary.backfill", tweets=n, areas=world.n_areas):
        labelled = label_and_contain(world, corpus.lats, corpus.lons)
        labels = labelled.labels
        minute_ids = (
            np.floor_divide(corpus.timestamps, TimeTier.MINUTE.span_seconds)
            .astype(np.int64)
            * TimeTier.MINUTE.span_seconds
        )
        buckets: dict[int, SummaryBucket] = {}

        def bucket_for(start: int) -> SummaryBucket:
            bucket = buckets.get(start)
            if bucket is None:
                bucket = SummaryBucket.empty(
                    TimeTier.MINUTE, int(start), world.n_areas
                )
                buckets[int(start)] = bucket
            return bucket

        # Population: each tweet counts toward every containing ε-disc
        # (one CSR row), attributed to its own minute.
        bounds = labelled.indptr.tolist()
        indices = labelled.indices.tolist()
        for row, (minute, user_id) in enumerate(
            zip(minute_ids.tolist(), corpus.user_ids.tolist())
        ):
            bucket = bucket_for(minute)
            bucket.population.add(indices[bounds[row] : bounds[row + 1]], user_id)
            bucket.n_tweets += 1

        # OD: vectorised consecutive-pair transitions, attributed to the
        # arriving tweet's minute (the same instant the streaming
        # accumulator records them at).
        n_transitions = 0
        if n >= 2:
            same_user = corpus.user_ids[1:] == corpus.user_ids[:-1]
            src = labels[:-1]
            dst = labels[1:]
            valid = same_user & (src >= 0) & (dst >= 0) & (src != dst)
            rows = np.nonzero(valid)[0]
            n_transitions = int(rows.size)
            for row in rows:
                bucket = bucket_for(int(minute_ids[row + 1]))
                bucket.od_counts[(int(src[row]), int(dst[row]))] += 1

        # Each user's final label seeds the live stream's OD position.
        last_label: dict[int, int] = {}
        if n:
            boundaries = np.nonzero(
                corpus.user_ids[1:] != corpus.user_ids[:-1]
            )[0]
            last_rows = np.append(boundaries, n - 1)
            last_label = {
                int(corpus.user_ids[row]): int(labels[row])
                for row in last_rows
            }
        watermark = float(corpus.timestamps.max()) if n else float("-inf")
    return TileSet(
        scale="custom",
        radius_km=world.radius_km,
        minutes=tuple(buckets[start] for start in sorted(buckets)),
        watermark=watermark,
        last_label=last_label,
        n_tweets=n,
        n_transitions=n_transitions,
    )


def _task_summary_tiles(ctx: TaskContext) -> TileSet:
    scale = Scale(ctx.params["scale"])
    world = World.from_scale(scale, gazetteer=ctx.params.get("gazetteer"))
    tiles = build_minute_buckets(world, ctx.input("corpus"))
    return TileSet(
        scale=scale.value,
        radius_km=tiles.radius_km,
        minutes=tiles.minutes,
        watermark=tiles.watermark,
        last_label=tiles.last_label,
        n_tweets=tiles.n_tweets,
        n_transitions=tiles.n_transitions,
    )


def summary_pipeline(
    config=None,
    corpus_path: str | None = None,
    scale: Scale = Scale.NATIONAL,
    gazetteer: str | None = None,
) -> Pipeline:
    """Corpus → minute tiles as a cached task DAG.

    Reuses the suite's corpus task (same cache key, so a piped corpus
    is a hit here and vice versa) and adds the tile build, keyed by the
    corpus digest, the scale, and the gazetteer spec.
    """
    if gazetteer is None:
        gazetteer = config.gazetteer if config is not None else "legacy"
    base = suite_pipeline(config=config, corpus_path=corpus_path)
    pipeline = Pipeline([base.task("corpus")])
    pipeline.add(
        Task(
            name="summary_tiles",
            fn=_task_summary_tiles,
            deps=("corpus",),
            params={"scale": scale.value, "gazetteer": gazetteer},
            version=TILES_TASK_VERSION,
        )
    )
    pipeline.validate()
    return pipeline


def backfill_summary(
    store: ArtifactStore,
    summary: SummaryStore,
    config=None,
    corpus_path: str | None = None,
    scale: Scale = Scale.NATIONAL,
    jobs: int = 1,
    force: bool = False,
    gazetteer: str | None = None,
) -> tuple[TileSet, int, RunResult]:
    """Build (or cache-resolve) tiles and install them into a store.

    Returns ``(tileset, tiles_installed, run)``; after this the summary
    store answers windowed queries over the corpus span and every
    finalized tile is persisted for restart recovery.
    """
    pipeline = summary_pipeline(
        config=config, corpus_path=corpus_path, scale=scale, gazetteer=gazetteer
    )
    executor = Executor(store=store, jobs=jobs, force=force)
    run = executor.run(pipeline, targets=("summary_tiles",))
    tiles: TileSet = run.artifact("summary_tiles")
    installed = summary.install_minutes(
        tiles.minutes, tiles.watermark, last_label=tiles.last_label
    )
    return tiles, installed, run
