"""ClusterSupervisor end-to-end: real forks, real sockets, real signals.

These tests boot an actual pre-fork cluster (2 workers accepting on one
shared socket), drive it over HTTP, kill a worker and watch the
supervisor restart it, and verify the SIGTERM drain flushes open
summary minutes to the artifact store.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
import urllib.request
from http.client import HTTPConnection, HTTPResponse

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterSupervisor, HashRing
from repro.cluster.worker import summary_namespace
from repro.core.world import World
from repro.data.gazetteer import Scale, areas_for_scale
from repro.summary.store import SummaryStore

AREAS = areas_for_scale(Scale.NATIONAL)
WORKERS = 2

#: Generous for CI; the restart-latency test pins its own 5s bound.
READY_TIMEOUT = 90.0


def http(method: str, url: str, body: dict | None = None, timeout: float = 15.0):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def tweet_record(user: int, ts: float, area: int = 0) -> dict:
    return {
        "user_id": user,
        "timestamp": float(ts),
        "lat": AREAS[area].center.lat,
        "lon": AREAS[area].center.lon,
    }


@pytest.fixture()
def supervisor(warm_store):
    config = ClusterConfig(
        workers=WORKERS,
        cache_dir=str(warm_store.root),
        heartbeat_interval=0.2,
        liveness_timeout=20.0,
        drain_timeout=15.0,
        restart_backoff=0.1,
        poll_interval=0.0,
    )
    sup = ClusterSupervisor(config)
    sup.start()
    assert sup.wait_ready(timeout=READY_TIMEOUT), "workers never warmed up"
    yield sup
    sup.stop()


class TestClusterServing:
    def test_cluster_serves_and_shards_ingest(self, supervisor):
        base = f"http://127.0.0.1:{supervisor.port}"
        status, health = http("GET", f"{base}/healthz")
        assert status == 200
        assert health["status"] == "ok"

        records = [tweet_record(u, 10.0 + u * 7.0, u % 5) for u in range(30)]
        status, payload = http("POST", f"{base}/v1/ingest", {"tweets": records})
        # Either every user hashed to the receiving worker's own shard
        # (200, all local) or the batch was split/redirected.
        assert status in (200, 307)
        if status == 307:
            return  # single-owner batch; redirect contract covered below
        assert payload["accepted"] == 30
        routing = payload["routing"]
        assert routing["local"] + sum(routing["forwarded"].values()) == 30

        status, merged = http(
            "GET", f"{base}/v1/population?window=0:{60 * ((10 + 29 * 7) // 60 + 1)}"
        )
        assert status == 200
        assert merged["cluster"]["shards"] == WORKERS
        assert sum(a["tweets"] for a in merged["areas"]) == 30

    def test_killed_worker_restarts_within_5s(self, supervisor):
        base = f"http://127.0.0.1:{supervisor.port}"
        victim_pid = supervisor.kill_worker(0, sig=signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        replaced = False
        while time.monotonic() < deadline:
            supervisor.step(poll=0.05)
            pids = supervisor.worker_pids()
            if len(pids) == WORKERS and victim_pid not in pids.values():
                replaced = True
                break
        assert replaced, "worker was not restarted within 5s"
        assert supervisor.wait_ready(timeout=READY_TIMEOUT)
        status, health = http("GET", f"{base}/healthz")
        assert status == 200
        assert health["status"] == "ok"

    def test_answers_consistent_after_worker_restart(self, supervisor):
        base = f"http://127.0.0.1:{supervisor.port}"
        records = [tweet_record(u, 10.0 + u * 30.0, u % 5) for u in range(20)]
        status, _ = http("POST", f"{base}/v1/ingest", {"tweets": records})
        assert status == 200
        # Advance every shard's watermark past the data so it is all
        # finalized and persisted; a SIGKILL only loses the open tail,
        # and these far-future pushers sit outside the query window.
        ring = HashRing(WORKERS)
        pushers = [
            tweet_record(next(u for u in range(10_000) if ring.owner(u) == k),
                         100_000.0)
            for k in range(WORKERS)
        ]
        status, _ = http("POST", f"{base}/v1/ingest", {"tweets": pushers})
        assert status == 200  # one owner per shard -> mixed batch, never 307
        window = f"0:{60 * ((10 + 19 * 30) // 60 + 1)}"
        status, before = http("GET", f"{base}/v1/population?window={window}")
        assert status == 200

        victim_pid = supervisor.kill_worker(1, sig=signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            supervisor.step(poll=0.05)
            pids = supervisor.worker_pids()
            if len(pids) == WORKERS and victim_pid not in pids.values():
                break
        assert supervisor.wait_ready(timeout=READY_TIMEOUT)

        status, after = http("GET", f"{base}/v1/population?window={window}")
        assert status == 200
        # The restarted worker recovered its finalized tiles from the
        # artifact store; only a sub-minute open tail could differ, and
        # these timestamps finalize every minute they precede.
        assert [a["tweets"] for a in after["areas"]] == [
            a["tweets"] for a in before["areas"]
        ]
        assert [a["twitter_population"] for a in after["areas"]] == [
            a["twitter_population"] for a in before["areas"]
        ]


class TestDrainFlush:
    def test_sigterm_drain_persists_open_minutes(self, warm_store):
        """The PR's shutdown fix, cluster edition: no lost tail on TERM.

        Tweets land mid-minute (never finalized by watermark) before
        the cluster is stopped; after the drain, per-shard stores
        recovered from the artifact store must hold every tweet.
        """
        config = ClusterConfig(
            workers=WORKERS,
            cache_dir=str(warm_store.root),
            heartbeat_interval=0.2,
            drain_timeout=15.0,
            poll_interval=0.0,
        )
        sup = ClusterSupervisor(config)
        sup.start()
        assert sup.wait_ready(timeout=READY_TIMEOUT)
        base = f"http://127.0.0.1:{sup.port}"
        try:
            # All within one open minute bucket: watermark never passes
            # its end, so only a drain-flush can persist it.
            records = [
                tweet_record(u, 7_000_000.0 + u, u % 3) for u in range(12)
            ]
            status, _ = http("POST", f"{base}/v1/ingest", {"tweets": records})
            assert status in (200, 307)
            if status == 307:
                pytest.skip("single-owner batch; drain covered by serve test")
        finally:
            sup.stop()  # SIGTERM -> drain -> flush

        recovered = 0
        for shard in range(WORKERS):
            store = SummaryStore(
                World.from_scale(Scale.NATIONAL),
                artifacts=warm_store,
                namespace=summary_namespace(
                    Scale.NATIONAL.value, shard, WORKERS
                ),
            )
            store.recover()
            result = store.query(6_999_960, 7_000_080)
            recovered += result.n_tweets
        assert recovered == 12


class TestDrainAfterTwoWayTraffic:
    def test_stop_after_two_way_peer_traffic_drains_without_kills(self, warm_store):
        """Each worker holds a kept-alive connection to the other.

        A mixed ingest and a gather sent to *each* worker's private
        address leave an idle pooled connection in both directions, so
        each worker's private server has a handler thread serving its
        peer.  ``stop()`` must still drain both workers without a
        SIGKILL, and well inside ``drain_timeout``, and the drain must
        flush every mid-minute tweet.
        """
        config = ClusterConfig(
            workers=WORKERS,
            cache_dir=str(warm_store.root),
            heartbeat_interval=0.2,
            drain_timeout=15.0,
            poll_interval=0.0,
        )
        ring = HashRing(WORKERS)
        users = [
            [u for u in range(10_000) if ring.owner(u) == shard][:3]
            for shard in range(WORKERS)
        ]
        t0 = 9_000_000.0
        window = f"{int(t0) - 60}:{int(t0) + 120}"
        sup = ClusterSupervisor(config)
        sup.start()
        try:
            assert sup.wait_ready(timeout=READY_TIMEOUT)
            sent = 0
            for shard, base in sorted(sup.shard_addresses.items()):
                # Users of both shards, all inside one open minute.
                records = [
                    tweet_record(user, t0 + 10 * shard + k, k % 3)
                    for k, user in enumerate(users[0] + users[1])
                ]
                status, payload = http("POST", f"{base}/v1/ingest", {"tweets": records})
                assert status == 200, payload
                assert payload["routing"]["forwarded"], "batch was not mixed"
                sent += len(records)
                status, merged = http("GET", f"{base}/v1/population?window={window}")
                assert status == 200, merged
                assert sum(a["tweets"] for a in merged["areas"]) == sent
            kills = obs.counters_snapshot().get("cluster.drain_kills", 0)
        finally:
            started = time.monotonic()
            sup.stop()
            elapsed = time.monotonic() - started
        assert elapsed < config.drain_timeout / 3, f"stop() took {elapsed:.1f}s"
        assert obs.counters_snapshot().get("cluster.drain_kills", 0) == kills

        recovered = 0
        for shard in range(WORKERS):
            store = SummaryStore(
                World.from_scale(Scale.NATIONAL),
                artifacts=warm_store,
                namespace=summary_namespace(Scale.NATIONAL.value, shard, WORKERS),
            )
            store.recover()
            recovered += store.query(int(t0) - 60, int(t0) + 120).n_tweets
        assert recovered == sent


def _recovered_tweets(store, start: int, end: int) -> int:
    total = 0
    for shard in range(WORKERS):
        summary = SummaryStore(
            World.from_scale(Scale.NATIONAL),
            artifacts=store,
            namespace=summary_namespace(Scale.NATIONAL.value, shard, WORKERS),
        )
        summary.recover()
        total += summary.query(start, end).n_tweets
    return total


class TestDrainWithExternalKeepAlive:
    """An external client's keep-alive connection must not stall a drain.

    A handler waiting for the next request on an idle keep-alive
    connection sits in a blocking read for up to the handler timeout;
    the drain ends such connections before it joins the handlers, and
    still answers a request that is in flight when ``stop()`` begins.
    """

    @staticmethod
    def _config(warm_store) -> ClusterConfig:
        return ClusterConfig(
            workers=WORKERS,
            cache_dir=str(warm_store.root),
            heartbeat_interval=0.2,
            drain_timeout=15.0,
            poll_interval=0.0,
        )

    def test_idle_keep_alive_client_costs_no_kill(self, warm_store):
        config = self._config(warm_store)
        t0 = 9_120_000.0  # a minute boundary: every tweet below stays in one open minute
        records = [tweet_record(user, t0 + user, user % 3) for user in range(1, 13)]
        sup = ClusterSupervisor(config)
        sup.start()
        connection = None
        try:
            assert sup.wait_ready(timeout=READY_TIMEOUT)
            connection = HTTPConnection("127.0.0.1", sup.port, timeout=15)
            connection.request(
                "POST", "/v1/ingest", json.dumps({"tweets": records}),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200, payload
            assert not response.will_close  # the connection stays open, idle
            kills = obs.counters_snapshot().get("cluster.drain_kills", 0)
        finally:
            started = time.monotonic()
            sup.stop()
            elapsed = time.monotonic() - started
            if connection is not None:
                connection.close()
        assert elapsed < config.drain_timeout / 3, f"stop() took {elapsed:.1f}s"
        assert obs.counters_snapshot().get("cluster.drain_kills", 0) == kills
        assert _recovered_tweets(warm_store, int(t0), int(t0) + 60) == len(records)

    def test_request_in_flight_during_stop_is_answered(self, warm_store):
        config = self._config(warm_store)
        t0 = 9_180_000.0
        records = [tweet_record(user, t0 + user, user % 3) for user in range(1, 7)]
        body = json.dumps({"tweets": records}).encode()
        # forwarded=1: whichever worker accepts applies the whole batch
        # itself, so the answer does not depend on a peer mid-drain.
        head = (
            "POST /v1/ingest?forwarded=1 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        sup = ClusterSupervisor(config)
        sup.start()
        stopper = threading.Thread(target=sup.stop)
        try:
            assert sup.wait_ready(timeout=READY_TIMEOUT)
            kills = obs.counters_snapshot().get("cluster.drain_kills", 0)
            with socket.create_connection(("127.0.0.1", sup.port), timeout=15) as sock:
                sock.sendall(head + body[:10])
                time.sleep(0.5)  # the handler has the head and waits for the body
                stopper.start()
                time.sleep(0.5)  # the workers have begun draining
                sock.sendall(body[10:])
                response = HTTPResponse(sock)
                response.begin()
                payload = json.loads(response.read())
            assert response.status == 200, payload
            assert response.will_close
        finally:
            if stopper.ident is None:
                stopper.start()
            stopper.join(timeout=2 * config.drain_timeout)
        assert not stopper.is_alive(), "stop() did not return"
        assert obs.counters_snapshot().get("cluster.drain_kills", 0) == kills
        assert _recovered_tweets(warm_store, int(t0), int(t0) + 60) == len(records)
