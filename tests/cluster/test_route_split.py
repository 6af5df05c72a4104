"""``ShardRouter.route_ingest`` splits a columnar batch by ring owner.

The batch arrives time-ascending (:class:`~repro.data.schema.TweetBatch`).
The router asks the ring once per distinct user and cuts the batch with
boolean masks, so every slice is time-ascending.  A peer's body holds,
for each of its tweets, exactly the record :func:`tweet_record_of`
builds from the tweet as :func:`parse_tweet_record` parses it:
``user_id``, ``timestamp``, ``lat``, ``lon`` with the validated,
longitude-wrapped values.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.schema import Tweet, TweetBatch, parse_tweet_record
from repro.pipeline.store import ArtifactStore

from tests.cluster.test_router import (
    N_SHARDS,
    RING,
    FakeTransport,
    _shard_apps,
    user_owned_by,
)


def tweet_record_of(tweet: Tweet) -> dict:
    """A parsed tweet as a peer's ingest record."""
    return {
        "user_id": tweet.user_id,
        "timestamp": tweet.timestamp,
        "lat": tweet.lat,
        "lon": tweet.lon,
    }


class BodyTransport(FakeTransport):
    """The fake transport, also keeping every ingest body a peer got."""

    def __init__(self) -> None:
        super().__init__()
        self.bodies: dict[str, list[dict]] = {}

    def __call__(self, method, url, body):
        if body is not None:
            self.bodies.setdefault(url.split("/v1/")[0], []).extend(body["tweets"])
        return super().__call__(method, url, body)


@pytest.fixture()
def split_cluster(tmp_path, monkeypatch):
    """Two shard apps over a fresh store; shard 0's local slices are kept."""
    cluster = _shard_apps(ArtifactStore(tmp_path), "split", preload=False)
    apps, transport = next(cluster)
    bodies = BodyTransport()
    bodies.apps = transport.apps
    for app in apps:
        app.shard_router.transport = bodies
    local: list[TweetBatch] = []
    apply = apps[0].ingest_apply

    def keep_local(batch):
        local.append(batch)
        return apply(batch)

    monkeypatch.setattr(apps[0], "ingest_apply", keep_local)
    yield apps, bodies, local
    next(cluster, None)  # closes the routers


def mixed_records(rng: np.random.Generator, n: int = 80) -> list[dict]:
    """Records from 12 users on both shards, with repeated timestamps and
    longitudes that wrap."""
    users = [user_owned_by(k % N_SHARDS, start=10 * k) for k in range(12)]
    return [
        {
            "user_id": int(rng.choice(users)),
            "timestamp": float(rng.integers(0, 20)) * 30.0,
            "lat": float(rng.uniform(-40.0, -12.0)),
            "lon": float(rng.choice([151.21, 144.96, 115.86, 151.21 + 360.0, -208.79])),
        }
        for _ in range(n)
    ]


def per_tweet_bodies(records: list[dict], shard: int) -> dict[int, list[dict]]:
    """Per foreign owner, :func:`tweet_record_of` of each of its tweets,
    in input order."""
    bodies: dict[int, list[dict]] = {}
    for record in records:
        tweet = parse_tweet_record(record)
        owner = RING.owner(tweet.user_id)
        if owner != shard:
            bodies.setdefault(owner, []).append(tweet_record_of(tweet))
    return bodies


def test_slices_partition_the_batch_by_owner_in_time_order(split_cluster, monkeypatch):
    apps, transport, local = split_cluster
    router = apps[0].shard_router
    batch = TweetBatch.from_records(mixed_records(np.random.default_rng(4)))
    asked: list[int] = []
    owner = router.ring.owner
    monkeypatch.setattr(router.ring, "owner", lambda user: asked.append(user) or owner(user))

    status, payload = router.route_ingest(batch)

    assert status == 200
    assert sorted(asked) == np.unique(batch.user_ids).tolist()  # once per user
    (mine,) = local
    owners = np.array([owner(int(u)) for u in batch.user_ids])
    assert len(mine) == payload["routing"]["local"] == int((owners == 0).sum())
    for name in ("user_ids", "timestamps", "lats", "lons"):
        assert np.array_equal(getattr(mine, name), getattr(batch, name)[owners == 0])
    assert np.all(np.diff(mine.timestamps) >= 0)
    (sent,) = transport.bodies.values()
    assert payload["routing"]["forwarded"] == {"1": len(sent)}
    assert [r["user_id"] for r in sent] == batch.user_ids[owners == 1].tolist()
    assert [r["timestamp"] for r in sent] == batch.timestamps[owners == 1].tolist()
    assert len(mine) + len(sent) == len(batch)


def test_time_ordered_batch_forwards_per_tweet_records(split_cluster):
    apps, transport, _ = split_cluster
    records = sorted(mixed_records(np.random.default_rng(5)), key=lambda r: r["timestamp"])
    status, payload, _ = apps[0].handle("POST", "/v1/ingest", {}, {"tweets": records})
    assert status == 200
    want = per_tweet_bodies(records, shard=0)
    assert transport.bodies == {f"http://shard{k}": body for k, body in want.items()}
    for k, body in want.items():
        got = transport.bodies[f"http://shard{k}"]
        assert json.dumps(got) == json.dumps(body)  # same keys, types and values


def test_shuffled_batch_forwards_per_tweet_records_time_sorted(split_cluster):
    """Out of order, a peer gets the same records time-ascending, ties in
    input order: the order it applies them in either way."""
    apps, transport, _ = split_cluster
    records = mixed_records(np.random.default_rng(6))
    status, _, _ = apps[0].handle("POST", "/v1/ingest", {}, {"tweets": records})
    assert status == 200
    for k, body in per_tweet_bodies(records, shard=0).items():
        assert transport.bodies[f"http://shard{k}"] == sorted(
            body, key=lambda r: r["timestamp"]
        )


def test_one_foreign_owner_answers_307(split_cluster):
    apps, transport, local = split_cluster
    users = [user_owned_by(1, start=s) for s in (0, 50, 100)]
    records = [
        {"user_id": u, "timestamp": 90.0 - 10.0 * i, "lat": -33.87, "lon": 151.21}
        for i, u in enumerate(users * 3)
    ]
    status, payload = apps[0].shard_router.route_ingest(TweetBatch.from_records(records))
    assert status == 307
    assert payload["redirect"] == {"location": "http://shard1/v1/ingest", "shard": 1}
    assert transport.bodies == {} and local == []
