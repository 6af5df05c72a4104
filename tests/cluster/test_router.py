"""ShardRouter over two in-process apps: split, redirect, gather, merge.

No sockets: a fake transport routes peer legs straight into the other
shard's :class:`EstimationApp`, exercising the full routing contract —
query-string ``forwarded=1`` loop prevention included — at unit speed.
"""

from urllib.parse import parse_qsl, urlsplit

import pytest

from repro.cluster import HashRing, ShardRouter
from repro.data.gazetteer import Scale, areas_for_scale
from repro.pipeline.store import ArtifactStore
from repro.serve import create_app
from repro.summary.store import SummaryStore

N_SHARDS = 2
AREAS = areas_for_scale(Scale.NATIONAL)
RING = HashRing(N_SHARDS)


def user_owned_by(shard: int, start: int = 0) -> int:
    """The first user id at/after ``start`` owned by ``shard``."""
    user = start
    while RING.owner(user) != shard:
        user += 1
    return user


def tweet_record(user: int, ts: float, area: int = 0) -> dict:
    return {
        "user_id": user,
        "timestamp": float(ts),
        "lat": AREAS[area].center.lat,
        "lon": AREAS[area].center.lon,
    }


class FakeTransport:
    """Route peer HTTP legs into in-process apps; record every call."""

    def __init__(self) -> None:
        self.apps: dict[str, object] = {}
        self.calls: list[tuple[str, str]] = []
        self.fail_bases: set[str] = set()

    def __call__(self, method: str, url: str, body: dict | None):
        split = urlsplit(url)
        base = f"{split.scheme}://{split.netloc}"
        self.calls.append((method, url))
        if base in self.fail_bases:
            raise ConnectionError(f"injected failure for {base}")
        query = dict(parse_qsl(split.query))
        status, payload, _cached = self.apps[base].handle(
            method, split.path, query, body
        )
        return status, payload


def _shard_apps(store, namespace: str, **app_kwargs):
    """Two shard apps wired through one FakeTransport; closes on exit."""
    transport = FakeTransport()
    peers = {k: f"http://shard{k}" for k in range(N_SHARDS)}
    apps = []
    for shard in range(N_SHARDS):
        app = create_app(
            store,
            poll_interval=0.0,
            summary_namespace=f"{namespace}-s{shard}of{N_SHARDS}-t",
            **app_kwargs,
        )
        router = ShardRouter(shard, RING, peers, app, transport=transport)
        app.shard_router = router
        app.cache_shard_key = (shard, N_SHARDS)
        transport.apps[peers[shard]] = app
        apps.append(app)
    yield apps, transport
    for app in apps:
        app.shard_router.close()


@pytest.fixture()
def cluster(warm_store):
    """Two shard apps wired through one FakeTransport."""
    yield from _shard_apps(warm_store, Scale.NATIONAL.value)


#: A 10-minute window checked every minute: a 40-minute stream warms up,
#: settles and then flags a surge.
FAST_MONITOR = dict(window_seconds=600.0, check_interval_seconds=60.0)


@pytest.fixture()
def monitored_cluster(tmp_path):
    """Shard apps whose anomaly monitor checks every stream minute, over
    a fresh store (no registry run is needed)."""
    yield from _shard_apps(
        ArtifactStore(tmp_path), "monitored", preload=False, **FAST_MONITOR
    )


def _single_process(tmp_path):
    """One unsharded app with the monitored cluster's settings."""
    return create_app(
        ArtifactStore(tmp_path), poll_interval=0.0, preload=False,
        summary_namespace="monitored-single", **FAST_MONITOR,
    )


def ingest(app, records, query=None):
    return app.handle("POST", "/v1/ingest", query or {}, {"tweets": records})


class TestIngestRouting:
    def test_mixed_batch_splits_across_shards(self, cluster):
        apps, transport = cluster
        u0, u1 = user_owned_by(0), user_owned_by(1)
        records = [
            tweet_record(u0, 10.0, 0),
            tweet_record(u1, 11.0, 1),
            tweet_record(u0, 12.0, 2),
        ]
        status, payload, _ = ingest(apps[0], records)
        assert status == 200
        assert payload["accepted"] == 3
        assert payload["routing"]["shard"] == 0
        assert payload["routing"]["local"] == 2
        assert payload["routing"]["forwarded"] == {"1": 1}
        # The forwarded leg carried forwarded=1 (loop prevention).
        (call,) = [c for c in transport.calls if "/v1/ingest" in c[1]]
        assert "forwarded=1" in call[1]
        # Each shard's summary holds exactly its own users' tweets.
        assert apps[0].summary.stats()["accepted"] == 2
        assert apps[1].summary.stats()["accepted"] == 1

    def test_wholly_foreign_batch_redirects_307(self, cluster):
        apps, transport = cluster
        u1 = user_owned_by(1)
        status, payload, _ = ingest(
            apps[0], [tweet_record(u1, 10.0), tweet_record(u1, 20.0)]
        )
        assert status == 307
        assert payload["redirect"]["shard"] == 1
        assert payload["redirect"]["location"] == "http://shard1/v1/ingest"
        assert transport.calls == []  # nothing proxied
        assert apps[1].summary.stats()["accepted"] == 0  # client's move

    def test_forwarded_batch_is_always_applied_locally(self, cluster):
        apps, _ = cluster
        u1 = user_owned_by(1)
        status, payload, _ = ingest(
            apps[0], [tweet_record(u1, 10.0)], query={"forwarded": "1"}
        )
        assert status == 200
        assert payload["accepted"] == 1
        assert "routing" not in payload  # router never consulted
        assert apps[0].summary.stats()["accepted"] == 1

    def test_forward_failure_is_a_502(self, cluster):
        apps, transport = cluster
        transport.fail_bases.add("http://shard1")
        u0, u1 = user_owned_by(0), user_owned_by(1)
        status, payload, _ = ingest(
            apps[0], [tweet_record(u0, 10.0), tweet_record(u1, 11.0)]
        )
        assert status == 502
        assert "shard(s) [1]" in payload["error"]["message"]


class TestScatterGather:
    def seed_corpus(self, apps):
        """Route one mixed corpus in via shard 0; return the records."""
        records = []
        for i in range(40):
            shard = i % 2
            user = user_owned_by(shard, start=i * 3)
            records.append(tweet_record(user, 10.0 + i * 25.0, i % 5))
        status, _, _ = ingest(apps[0], records)
        assert status == 200
        return records

    def test_gathered_population_matches_unsharded(self, cluster, warm_store):
        apps, _ = cluster
        records = self.seed_corpus(apps)

        status, merged, _ = apps[0].handle(
            "GET", "/v1/population", {"window": "0:1080"}, None
        )
        assert status == 200
        assert merged["cluster"]["shards"] == N_SHARDS

        # Single-process reference over the identical corpus.
        single = SummaryStore(apps[0].summary.world)
        from repro.serve.ingest import IngestService

        single.ingest([IngestService.parse_tweet(r) for r in records])
        expected = single.query(0, 1080)
        got_users = [a["twitter_population"] for a in merged["areas"]]
        got_tweets = [a["tweets"] for a in merged["areas"]]
        assert got_users == [int(x) for x in expected.user_counts]
        assert got_tweets == [int(x) for x in expected.tweet_counts]
        assert merged["staleness_seconds"] == expected.staleness_seconds

    def test_gathered_flows_match_unsharded_bitwise(self, cluster):
        apps, _ = cluster
        records = self.seed_corpus(apps)

        status, merged, _ = apps[0].handle(
            "GET", "/v1/flows", {"window": "0:1080"}, None
        )
        assert status == 200

        single = SummaryStore(apps[0].summary.world)
        from repro.serve.ingest import IngestService

        single.ingest([IngestService.parse_tweet(r) for r in records])
        expected = single.query(0, 1080)
        world = apps[0].summary.world
        expected_flows = [
            {
                "origin": world.names[i],
                "dest": world.names[j],
                "flow": int(expected.flow_matrix[i, j]),
                "distance_km": round(float(world.distance_matrix_km[i, j]), 3),
            }
            for i in range(world.n_areas)
            for j in range(world.n_areas)
            if i != j and expected.flow_matrix[i, j] > 0
        ]
        assert merged["flows"] == expected_flows  # bit-identical, same order
        assert merged["total_trips"] == expected.n_transitions

    def test_gather_failure_is_a_503(self, cluster):
        apps, transport = cluster
        self.seed_corpus(apps)
        transport.fail_bases.add("http://shard1")
        status, payload, _ = apps[0].handle(
            "GET", "/v1/population", {"window": "0:600"}, None
        )
        assert status == 503
        assert "shard(s) [1]" in payload["error"]["message"]

    def test_gathered_answers_bypass_the_lru(self, cluster):
        apps, _ = cluster
        self.seed_corpus(apps)
        before = len(apps[0].cache)
        _, _, cached = apps[0].handle(
            "GET", "/v1/population", {"window": "0:600"}, None
        )
        assert not cached
        _, _, cached = apps[0].handle(
            "GET", "/v1/population", {"window": "0:600"}, None
        )
        assert not cached  # second hit is still a gather, not a replay
        # Only the *forwarded* local leg cached (per-shard answers may);
        # the merged answer itself never entered the LRU.
        assert len(apps[0].cache) == before + 1

    def test_unwindowed_reads_stay_local(self, cluster, warm_store):
        """No window = registry snapshot answer; no fan-out needed."""
        apps, transport = cluster
        calls_before = len(transport.calls)
        status, payload, _ = apps[0].handle("GET", "/v1/population", {}, None)
        assert status == 200
        assert "cluster" not in payload
        assert len(transport.calls) == calls_before


class TestGatheredAnomalies:
    @staticmethod
    def commuting_stream() -> list[list[dict]]:
        """One batch per minute: users cycling areas 0 → 1 → 2, joined by
        a crowd making the same moves from minute 30 on."""
        batches = []
        for minute in range(40):
            crowd = 12 if minute < 30 else 400
            batches.append(
                [
                    tweet_record(user, minute * 60.0 + user * 50.0 / crowd, (user + minute) % 3)
                    for user in range(crowd)
                ]
            )
        return batches

    def test_fleet_answer_equals_single_process_via_either_worker(
        self, monitored_cluster, tmp_path
    ):
        apps, _ = monitored_cluster
        single = _single_process(tmp_path)
        for batch in self.commuting_stream():
            assert ingest(apps[0], batch)[0] == 200
            assert ingest(single, batch)[0] == 200

        _, expected, _ = single.handle("GET", "/v1/anomalies", {}, None)
        assert expected["count"] > 0
        for app in apps:
            status, gathered, _ = app.handle("GET", "/v1/anomalies", {}, None)
            assert status == 200
            assert gathered["cluster"]["shards"] == N_SHARDS
            assert gathered["anomalies"] == expected["anomalies"]
            for key in ("checks_done", "has_windowed_fit", "frontier", "accepted"):
                assert gathered["stats"][key] == expected["stats"][key], key
        # Each worker alone sees only its shard's users.
        local = [
            app.handle("GET", "/v1/anomalies", {"forwarded": "1"}, None)[1]
            for app in apps
        ]
        assert all(p["stats"]["accepted"] < expected["stats"]["accepted"] for p in local)

    def test_fleet_check_poll_matches_single_process(self, monitored_cluster, tmp_path):
        apps, _ = monitored_cluster
        single = _single_process(tmp_path)
        for batch in self.commuting_stream()[:33]:
            ingest(apps[1], batch)
            ingest(single, batch)
        _, expected, _ = single.handle("GET", "/v1/anomalies", {"check": "1"}, None)
        _, gathered, _ = apps[1].handle("GET", "/v1/anomalies", {"check": "1"}, None)
        assert expected["check"]["count"] > 0
        assert gathered["check"] == expected["check"]
        assert gathered["anomalies"] == expected["anomalies"]

    def test_boundary_waits_for_every_shard(self, monitored_cluster):
        apps, _ = monitored_cluster
        u0, u1 = user_owned_by(0), user_owned_by(1)
        ingest(apps[0], [tweet_record(u0, 10.0), tweet_record(u1, 20.0)])
        # Only shard 0 moves on: the fleet frontier stays at shard 1's.
        ingest(apps[0], [tweet_record(u0, 400.0, 1)])
        _, gathered, _ = apps[0].handle("GET", "/v1/anomalies", {}, None)
        assert gathered["cluster"]["frontiers"] == [360, 0]
        assert gathered["stats"]["frontier"] == 0
        assert gathered["stats"]["checks_done"] == 0
