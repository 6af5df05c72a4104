"""Summary-store windowed-query benchmark: tiles vs batch recompute.

Builds the multi-resolution tile set over a months-spanning synthetic
corpus, then answers a batch of aligned one-day ``[t0, t1)`` window
queries two ways:

* **recompute** — the pre-summary path: mask the corpus to the window,
  label the slice, recompute ε-disc membership, per-area unique users
  and consecutive-pair OD from scratch.  O(corpus) per query (the mask
  alone touches every timestamp).
* **tiles** — :meth:`repro.summary.store.SummaryStore.query`, stitching
  the O(buckets-touched) finalized tiles.

An aligned day is one day tile, so that batch never merges tiles.  A
second batch of **stitched** windows — random minute-aligned starts,
spans of two hours to thirty days — makes every read merge day, hour
and minute tiles (:meth:`repro.summary.tiers.SummaryBucket.merged`);
it is timed as ``stitched_seconds`` and checked against the recompute
too.

It also times live ingest: the same corpus as one-minute
``POST /v1/ingest`` batches through ``EstimationApp.handle`` into a
fresh persisting app (parse, label, tiles, journal, anomaly monitor),
and checks that the live store answers the whole span exactly as the
backfilled tiles do.

Emits a JSON summary (stdout or ``--out``), e.g.::

    python benchmarks/bench_summary.py --out bench-summary.json

The script asserts the acceptance guarantees while measuring: both
paths agree bit-identically on every window (population and flows —
flows via the store's arriving-tweet contract), and the tiled path is
at least :data:`MIN_SPEEDUP`× faster over the query batch.  The tile
build, the query batches and the live ingest are timed min-of-repeats;
the build, tiled, stitched and ingest times are normalized
(``_ratchet``) and gated against the committed ``BENCH_summary.json``.
"""

from __future__ import annotations

import tempfile
import time
from collections import Counter

import _ratchet
import numpy as np
from _ratchet import best_of

from repro.core.accumulate import od_matrix_from_labels
from repro.core.label import label_corpus, label_points, membership_points
from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.pipeline.store import ArtifactStore
from repro.serve import create_app
from repro.summary.backfill import build_minute_buckets
from repro.summary.store import SummaryStore, WindowSummary
from repro.summary.tiers import TimeTier, bucket_start, bucket_starts
from repro.synth import SynthConfig, generate_corpus

WORKLOAD = {"users": 10_000, "seed": 20150413, "queries": 50}

GATED = {
    "build_seconds": "lower",
    "tiled_seconds": "lower",
    "stitched_seconds": "lower",
    "ingest_seconds": "lower",
}

#: Span range of the stitched windows, in minutes: two hours to 30 days.
STITCHED_MINUTES = (2 * 60, 30 * 24 * 60)

#: Acceptance floor: windowed queries from tiles must beat a per-window
#: batch recompute by at least this factor over the query batch.
MIN_SPEEDUP = 10.0


def _recompute_window(world: World, corpus, q0: int, q1: int) -> dict:
    """From-scratch answer over ``[q0, q1)`` — the pre-summary cost.

    Produces every field a windowed response needs: population counts,
    per-area unique users, and the OD matrix of the slice (labelled
    here, then consecutive-paired over the corpus's (user, time)
    order).
    """
    timestamps = corpus.timestamps
    mask = (timestamps >= q0) & (timestamps < q1)
    rows = np.nonzero(mask)[0]
    lats = corpus.lats[rows]
    lons = corpus.lons[rows]
    users = corpus.user_ids[rows]
    membership = membership_points(world, lats, lons)
    tweet_counts = membership.sum(axis=0, dtype=np.int64)
    user_counts = np.array(
        [len(np.unique(users[membership[:, a]])) for a in range(world.n_areas)],
        dtype=np.int64,
    )
    labels = label_points(world, lats, lons)
    flows, _ = od_matrix_from_labels(users, labels, world.n_areas)
    return {
        "tweet_counts": tweet_counts,
        "user_counts": user_counts,
        "flows": flows,
        "n_tweets": int(rows.size),
    }


def _reference_flows(
    corpus, labels: np.ndarray, n_areas: int, q0: int, q1: int
) -> np.ndarray:
    """Boundary-exact flows: full-replay pairs, arriving tweet in window."""
    matrix = np.zeros((n_areas, n_areas), dtype=np.int64)
    if len(corpus) < 2:
        return matrix
    same_user = corpus.user_ids[1:] == corpus.user_ids[:-1]
    src = labels[:-1]
    dst = labels[1:]
    arriving = corpus.timestamps[1:]
    valid = (
        same_user & (src >= 0) & (dst >= 0) & (src != dst)
        & (arriving >= q0) & (arriving < q1)
    )
    np.add.at(matrix, (src[valid], dst[valid]), 1)
    return matrix


def _stitched_windows(
    seed: int, first: float, last: float, queries: int
) -> list[tuple[int, int]]:
    """Minute-aligned windows of two hours to thirty days inside
    ``[first, last]``: each stitches day, hour and minute tiles."""
    rng = np.random.default_rng([seed, 1])
    minute = TimeTier.MINUTE.span_seconds
    lo, hi = int(first) // minute + 1, int(last) // minute
    spans = rng.integers(STITCHED_MINUTES[0], STITCHED_MINUTES[1] + 1, size=queries)
    starts = rng.integers(lo, hi - spans)
    return [(int(s) * minute, int(s + n) * minute) for s, n in zip(starts, spans)]


def _ingest_bodies(corpus) -> list[dict]:
    """The corpus as one-minute ``POST /v1/ingest`` bodies, in time order."""
    order = np.argsort(corpus.timestamps, kind="stable")
    timestamps = corpus.timestamps[order]
    records = [
        {"user_id": user, "timestamp": timestamp, "lat": lat, "lon": lon}
        for user, timestamp, lat, lon in zip(
            corpus.user_ids[order].tolist(),
            timestamps.tolist(),
            corpus.lats[order].tolist(),
            corpus.lons[order].tolist(),
        )
    ]
    cuts = np.flatnonzero(np.diff(bucket_starts(timestamps, TimeTier.MINUTE))) + 1
    bounds = [0, *cuts.tolist(), len(records)]
    return [{"tweets": records[a:b]} for a, b in zip(bounds, bounds[1:])]


def _live_ingest(bodies: list[dict], t0: int, t1: int) -> tuple[float, WindowSummary]:
    """Seconds to ingest every body into a fresh app, and its ``[t0, t1)``."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-ingest-") as root:
        app = create_app(ArtifactStore(root), preload=False)
        start = time.perf_counter()
        for body in bodies:
            status, payload, _ = app.handle("POST", "/v1/ingest", {}, body)
            if status != 200 or payload["accepted"] != len(body["tweets"]):
                raise AssertionError(f"ingest answered {status}: {str(payload)[:200]}")
        seconds = time.perf_counter() - start
        return seconds, app.summary.query(t0, t1)


def _same_window(a: WindowSummary, b: WindowSummary) -> bool:
    return (
        np.array_equal(a.tweet_counts, b.tweet_counts)
        and np.array_equal(a.user_counts, b.user_counts)
        and np.array_equal(a.flow_matrix, b.flow_matrix)
        and (a.n_tweets, a.n_transitions) == (b.n_tweets, b.n_transitions)
    )


def run_benchmark(users: int, seed: int, queries: int) -> dict:
    """Tile-stitched vs recomputed windowed queries over one corpus."""
    world = World.from_scale(Scale.NATIONAL)
    corpus = generate_corpus(SynthConfig(n_users=users, seed=seed)).corpus

    build_seconds, tiles = best_of(lambda: build_minute_buckets(world, corpus))
    store = SummaryStore(world)
    # A sentinel past the last tile finalizes (and rolls up) everything.
    store.install_minutes(tiles.minutes, watermark=tiles.minutes[-1].end)

    span = TimeTier.DAY.span_seconds
    first = bucket_start(float(corpus.timestamps.min()), TimeTier.DAY) + span
    last = bucket_start(float(corpus.timestamps.max()), TimeTier.DAY) - span
    rng = np.random.default_rng(seed)
    starts = rng.integers(first // span, last // span, size=queries) * span
    windows = [(int(s), int(s) + span) for s in starts]

    tiled_seconds, tiled = best_of(lambda: [store.query(q0, q1) for q0, q1 in windows])
    recompute_seconds, recomputed = best_of(
        lambda: [_recompute_window(world, corpus, q0, q1) for q0, q1 in windows]
    )
    stitched_windows = _stitched_windows(
        seed, corpus.timestamps.min(), corpus.timestamps.max(), queries
    )
    stitched_seconds, stitched = best_of(
        lambda: [store.query(q0, q1) for q0, q1 in stitched_windows]
    )
    recomputed += [_recompute_window(world, corpus, q0, q1) for q0, q1 in stitched_windows]

    labels = label_corpus(world, corpus.lats, corpus.lons)
    mismatches = 0
    for (q0, q1), a, b in zip(windows + stitched_windows, tiled + stitched, recomputed):
        flows = _reference_flows(corpus, labels, world.n_areas, q0, q1)
        if not (
            np.array_equal(a.tweet_counts, b["tweet_counts"])
            and np.array_equal(a.user_counts, b["user_counts"])
            and np.array_equal(a.flow_matrix, flows)
            and a.n_tweets == b["n_tweets"]
        ):
            mismatches += 1

    speedup = recompute_seconds / max(tiled_seconds, 1e-9)
    buckets = [t.buckets_touched for t in tiled]

    bodies = _ingest_bodies(corpus)
    t0, t1 = tiles.span
    ingest_seconds, live = min(
        (_live_ingest(bodies, t0, t1) for _ in range(_ratchet.REPEATS)),
        key=lambda run: run[0],
    )

    assert mismatches == 0, f"{mismatches} windows differ between paths"
    assert _same_window(live, store.query(t0, t1)), "live ingest differs from backfill"
    assert speedup >= MIN_SPEEDUP, (
        f"tiled windowed-query speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP}x floor"
    )

    return {
        "corpus_tweets": len(corpus),
        "corpus_span_days": round(
            float(corpus.timestamps.max() - corpus.timestamps.min()) / 86400, 1
        ),
        "areas": world.n_areas,
        "minute_tiles": len(tiles.minutes),
        "tile_inventory": store.stats()["tiles"],
        "build_seconds": round(build_seconds, 4),
        "window_seconds": span,
        "mean_buckets_touched": round(float(np.mean(buckets)), 1),
        "tiled_seconds": round(tiled_seconds, 5),
        "recompute_seconds": round(recompute_seconds, 4),
        "tiled_queries_per_sec": round(queries / max(tiled_seconds, 1e-9)),
        "stitched_seconds": round(stitched_seconds, 5),
        "stitched_mean_buckets_touched": round(
            float(np.mean([t.buckets_touched for t in stitched])), 1
        ),
        "stitched_tiles_used": dict(
            sum((Counter(t.tiles_used) for t in stitched), Counter())
        ),
        "recompute_queries_per_sec": round(queries / max(recompute_seconds, 1e-9)),
        "speedup": round(speedup, 1),
        "window_mismatches": mismatches,
        "ingest_batches": len(bodies),
        "ingest_seconds": round(ingest_seconds, 4),
        "ingest_tweets_per_sec": round(len(corpus) / max(ingest_seconds, 1e-9)),
    }


def test_summary_query_speedup():
    """Harness entry: small-scale tiles vs recompute comparison."""
    summary = run_benchmark(**(WORKLOAD | {"users": 3_000, "queries": 30}))
    assert summary["speedup"] >= MIN_SPEEDUP
    assert summary["window_mismatches"] == 0


if __name__ == "__main__":
    raise SystemExit(_ratchet.main("summary", run_benchmark, WORKLOAD, GATED))
