"""Exact merging of per-shard windowed answers.

Shards partition *users* (consistent hashing of user id), so every
per-shard quantity the windowed endpoints report is additive:

* ``tweets`` — each tweet lands on exactly one shard.
* ``twitter_population`` — unique-user counts; a user's tweets all live
  on one shard, so per-area unique-user sets are disjoint across shards
  and cardinalities sum exactly (no inclusion–exclusion needed).
* ``flow`` / ``total_trips`` — OD transitions are per-user sequences,
  wholly contained in the owning shard.

Staleness is *not* additive: the global watermark is the max of the
per-shard watermarks, so the merged window staleness is the **min** of
the per-shard staleness values (``max(0, .)`` and ``min(span, .)``
both commute with the min).  The per-shard values are preserved in a
``cluster`` block so operators can see a lagging shard.

``summary_version`` on a merged payload is the *sum* of the shard
versions — still monotone under any shard's ingest, which is the only
property the serving cache relies on (merged answers bypass the worker
LRU anyway; the sum is for visibility).

:func:`merge_window_results` merges raw
:class:`~repro.summary.store.WindowSummary` objects — the in-process
path used by equivalence tests and benchmarks;
:func:`merge_population_payloads` / :func:`merge_flows_payloads` merge
the rendered HTTP payloads — the scatter-gather path.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.summary.store import WindowSummary


def merge_window_results(results: Sequence[WindowSummary]) -> WindowSummary:
    """Merge per-shard :class:`WindowSummary` objects for one window.

    All results must cover the same effective ``[t0, t1)`` — they came
    from the same query fanned out to shards over identical worlds.
    """
    if not results:
        raise ValueError("need at least one WindowSummary to merge")
    first = results[0]
    for result in results[1:]:
        if (result.t0, result.t1) != (first.t0, first.t1):
            raise ValueError(
                f"window mismatch: ({first.t0}, {first.t1}) vs "
                f"({result.t0}, {result.t1})"
            )
    tiles: Counter = Counter()
    od: Counter = Counter()
    for result in results:
        tiles.update(result.tiles_used)
        od.update(result.od_counts)
    return WindowSummary(
        t0=first.t0,
        t1=first.t1,
        tweet_counts=np.sum([r.tweet_counts for r in results], axis=0),
        user_counts=np.sum([r.user_counts for r in results], axis=0),
        od_counts=od,
        n_tweets=sum(r.n_tweets for r in results),
        n_transitions=sum(r.n_transitions for r in results),
        buckets_touched=sum(r.buckets_touched for r in results),
        tiles_used=dict(tiles),
        staleness_seconds=min(r.staleness_seconds for r in results),
        version=sum(r.version for r in results),
    )


def _cluster_block(payloads: Sequence[dict]) -> dict:
    """The per-shard visibility block attached to merged payloads."""
    return {
        "shards": len(payloads),
        "staleness_seconds": [p["staleness_seconds"] for p in payloads],
        "versions": [p["summary_version"] for p in payloads],
        "buckets_touched": [p["buckets_touched"] for p in payloads],
    }


def _merge_tiles_used(payloads: Sequence[dict]) -> dict:
    tiles: Counter = Counter()
    for payload in payloads:
        tiles.update(payload.get("tiles_used") or {})
    return dict(tiles)


def merge_population_payloads(payloads: Sequence[dict]) -> dict:
    """Merge per-shard ``/v1/population?window=`` payloads (in shard order).

    Area lists are elementwise-aligned — every shard renders its world's
    areas in world order — so the merge sums counts per position and
    keeps the census column from the first shard.
    """
    if not payloads:
        raise ValueError("need at least one payload to merge")
    first = payloads[0]
    areas = [dict(area) for area in first["areas"]]
    for payload in payloads[1:]:
        if len(payload["areas"]) != len(areas):
            raise ValueError(
                f"area count mismatch: {len(areas)} vs {len(payload['areas'])}"
            )
        for merged, area in zip(areas, payload["areas"]):
            if merged["name"] != area["name"]:
                raise ValueError(
                    f"area order mismatch: {merged['name']!r} vs {area['name']!r}"
                )
            merged["twitter_population"] += area["twitter_population"]
            merged["tweets"] += area["tweets"]
    return {
        "scale": first["scale"],
        "radius_km": first["radius_km"],
        "source": "summary",
        "window": first["window"],
        "staleness_seconds": min(p["staleness_seconds"] for p in payloads),
        "buckets_touched": sum(p["buckets_touched"] for p in payloads),
        "tiles_used": _merge_tiles_used(payloads),
        "summary_version": sum(p["summary_version"] for p in payloads),
        "areas": areas,
        "cluster": _cluster_block(payloads),
    }


def merge_flows_payloads(payloads: Sequence[dict], names: Sequence[str]) -> dict:
    """Merge per-shard ``/v1/flows?window=`` payloads (in shard order).

    ``names`` is the world's area-name list; merged flow entries are
    re-emitted in world-index order — the same row-major
    nonzero-off-diagonal order a single process renders — so a gathered
    answer is bit-identical to the unsharded one.
    """
    if not payloads:
        raise ValueError("need at least one payload to merge")
    first = payloads[0]
    index = {name: i for i, name in enumerate(names)}
    flows: dict[tuple[int, int], int] = {}
    distance: dict[tuple[int, int], float] = {}
    for payload in payloads:
        for entry in payload["flows"]:
            pair = (index[entry["origin"]], index[entry["dest"]])
            flows[pair] = flows.get(pair, 0) + entry["flow"]
            distance[pair] = entry["distance_km"]
    return {
        "scale": first["scale"],
        "source": "summary",
        "window": first["window"],
        "staleness_seconds": min(p["staleness_seconds"] for p in payloads),
        "buckets_touched": sum(p["buckets_touched"] for p in payloads),
        "tiles_used": _merge_tiles_used(payloads),
        "summary_version": sum(p["summary_version"] for p in payloads),
        "total_trips": sum(p["total_trips"] for p in payloads),
        "flows": [
            {
                "origin": names[i],
                "dest": names[j],
                "flow": flows[i, j],
                "distance_km": distance[i, j],
            }
            for (i, j) in sorted(flows)
            if flows[i, j] > 0
        ],
        "cluster": _cluster_block(payloads),
    }
