"""Backfill: replay a corpus artifact into summary tiles.

The live path grows tiles tweet batch by tweet batch; backfill builds
the same tiles in one vectorised pass over a corpus — the recovery
path when a summary store must cover history that streamed in before
the store existed.

The batch construction reuses the live path's kernels end to end: OD
labels and CSR ε-disc containment come from one
:func:`~repro.core.label.label_and_contain` pass, transition detection
is the vectorised consecutive-pair rule over the corpus's native
``(user, time)`` ordering, and :func:`~repro.summary.tiers.build_tiles`
— the kernel live ingest runs — turns the rows into minute tiles, so a
backfilled tile is **bit-identical** to the tile the streaming path
would have produced from the same tweets (pinned in ``tests/summary``).

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
from repro.summary.tiers import SummaryBucket, TimeTier, bucket_starts, build_tiles

#: Code-version tag of the tile-build task (bump to invalidate caches).
TILES_TASK_VERSION = "2"


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
        users = corpus.user_ids
        starts = bucket_starts(corpus.timestamps, TimeTier.MINUTE)
        # OD: consecutive-pair transitions, attributed to the arriving
        # tweet's minute (the same instant the streaming accumulator
        # records them at).
        moved = (users[1:] == users[:-1]) & (labels[:-1] >= 0) & (labels[1:] >= 0)
        moved &= labels[:-1] != labels[1:]
        rows = np.flatnonzero(moved)
        n_transitions = int(rows.size)
        minutes = build_tiles(
            TimeTier.MINUTE, world.n_areas, starts, users,
            labelled.indptr, labelled.indices,
            (starts[rows + 1], labels[rows], labels[rows + 1]),
        )

        # Each user's final label seeds the live stream's OD position.
        last_label: dict[int, int] = {}
        if n:
            last_rows = np.append(np.flatnonzero(users[1:] != users[:-1]), n - 1)
            last_label = dict(
                zip(users[last_rows].tolist(), labels[last_rows].tolist())
            )
        watermark = float(corpus.timestamps.max()) if n else float("-inf")
    return TileSet(
        scale="custom",
        radius_km=world.radius_km,
        minutes=tuple(minutes),
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
