"""P5 — kernel-layer labelling throughput benchmark.

Replays a time-ordered synthetic tweet stream (~120k tweets at the CLI
default) through :func:`repro.core.label.label_points` in consecutive
``--batch-size``-tweet chunks, each chunk's coordinate columns read from
its tweets.  ``label_points`` returns the labels of
:func:`repro.core.label.label_and_contain`, the kernel the ingest
endpoint runs once per batch::

    python benchmarks/bench_core.py --out bench-core.json

The replay's labels must equal the dense reference
:func:`repro.core.label.label_points_dense` over the whole stream, and
the micro-batched time is normalized (``_ratchet``) and gated against
the committed ``BENCH_core.json``.
"""

from __future__ import annotations

import json

import _ratchet
import numpy as np
from _ratchet import best_of

from repro.core.label import label_points, label_points_dense, tweet_columns
from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.synth import SynthConfig, generate_corpus

#: ~12 tweets per synthetic user, so 10k users replay ~120k tweets.
WORKLOAD = {"users": 10_000, "seed": 20150413, "batch_size": 1024}

GATED = {"micro_batched.seconds": "lower"}


def run_benchmark(users: int, seed: int, batch_size: int) -> dict:
    """Micro-batched replay timing plus agreement with the dense reference."""
    world = World.from_scale(Scale.NATIONAL)
    corpus = generate_corpus(SynthConfig(n_users=users, seed=seed)).corpus
    order = np.argsort(corpus.timestamps, kind="stable")
    tweets = list(corpus.iter_tweets())
    replay = [tweets[i] for i in order]

    seconds, labels = best_of(
        lambda: np.concatenate(
            [
                label_points(world, *tweet_columns(replay[i : i + batch_size]))
                for i in range(0, len(replay), batch_size)
            ]
        )
    )
    reference = label_points_dense(world, *tweet_columns(replay))
    mismatches = int((labels != reference).sum())
    assert mismatches == 0, f"{mismatches} labels differ from the dense reference"

    n = len(replay)
    return {
        "replay": {"tweets": n, "areas": world.n_areas, "radius_km": world.radius_km},
        "micro_batched": {
            "seconds": round(seconds, 4),
            "tweets_per_sec": round(n / max(seconds, 1e-9)),
        },
        "label_mismatches": mismatches,
        "labelled_fraction": round(float((labels >= 0).mean()), 4),
    }


def test_core_labelling():
    """Harness entry: a ~24k-tweet replay agrees with the dense reference."""
    summary = run_benchmark(**(WORKLOAD | {"users": 2_000}))
    print()
    print(json.dumps(summary, indent=2))
    assert summary["label_mismatches"] == 0
    assert summary["labelled_fraction"] > 0.9


if __name__ == "__main__":
    raise SystemExit(_ratchet.main("core", run_benchmark, WORKLOAD, GATED))
