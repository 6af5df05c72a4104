"""ShardRouter's kept-alive peer connections over real loopback sockets.

Two :class:`EstimationServer`s stand in for two cluster workers, with
no fork: sequential legs reuse one connection per peer, a peer that
restarts on the same port gets a fresh connection, and a peer that
closes the socket mid-response fails the request without a resend.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro import obs
from repro.cluster import ShardRouter
from repro.pipeline.store import ArtifactStore
from repro.serve import create_app
from repro.serve.app import EstimationServer

from tests.cluster.test_router import N_SHARDS, RING, tweet_record, user_owned_by

T0 = 6_000_000.0
WINDOW = {"window": f"{int(T0) - 60}:{int(T0) + 600}"}


def connects() -> float:
    return obs.counters_snapshot().get("cluster.peer_connects", 0)


def mixed_batch(step: int) -> dict:
    """One tweet for a user on each shard, ``step`` seconds into the stream."""
    return {
        "tweets": [
            tweet_record(user_owned_by(shard), T0 + step, area=shard)
            for shard in range(N_SHARDS)
        ]
    }


class PeerServer(EstimationServer):
    """An estimation server that can drop its open connections, as a
    killed worker's kernel would."""

    def __init__(self, address, app) -> None:
        super().__init__(address, app, flush_on_drain=False)
        self.accepted: list[socket.socket] = []
        self.thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self.thread.start()

    def get_request(self):
        request, address = super().get_request()
        self.accepted.append(request)
        return request, address

    def stop(self) -> None:
        self.shutdown()
        self.thread.join()
        for request in self.accepted:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass
        self.server_close()


@pytest.fixture()
def loopback_pair(warm_store, request):
    """Two shard apps behind two loopback servers, routed over HTTP."""
    servers = [
        PeerServer(
            ("127.0.0.1", 0),
            create_app(
                warm_store, poll_interval=0.0,
                summary_namespace=f"{request.node.name}-s{shard}of{N_SHARDS}",
            ),
        )
        for shard in range(N_SHARDS)
    ]
    peers = {shard: f"http://127.0.0.1:{s.port}" for shard, s in enumerate(servers)}
    for shard, server in enumerate(servers):
        server.app.shard_router = ShardRouter(shard, RING, peers, server.app)
        server.app.cache_shard_key = (shard, N_SHARDS)
    yield servers
    for server in servers:
        server.app.shard_router.close()
    for server in servers:
        server.stop()


def test_sequential_legs_share_one_connection_per_peer(loopback_pair):
    app = loopback_pair[0].app
    before = connects()
    for step in range(5):
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, mixed_batch(step))
        assert status == 200, payload
        assert payload["routing"]["forwarded"] == {"1": 1}
        status, merged, _ = app.handle("GET", "/v1/population", WINDOW, None)
        assert status == 200, merged
        assert sum(area["tweets"] for area in merged["areas"]) == 2 * (step + 1)
    assert connects() - before == 1

    status, metrics, _ = app.handle("GET", "/metrics", {}, None)
    assert status == 200
    counters = obs.counters_snapshot()
    assert metrics["cluster"] == {
        name: counters.get(f"cluster.{name}", 0)
        for name in (
            "peer_connects", "peer_legs", "ingest_forward_failures", "gather_failures",
        )
    }
    assert metrics["cluster"]["peer_legs"] >= 10


def test_single_process_metrics_have_no_cluster_block(tmp_path):
    app = create_app(ArtifactStore(tmp_path), poll_interval=0.0, preload=False)
    status, metrics, _ = app.handle("GET", "/metrics", {}, None)
    assert status == 200
    assert "cluster" not in metrics


def test_restarted_peer_gets_a_fresh_connection(loopback_pair):
    first, peer = loopback_pair
    app = first.app
    status, payload, _ = app.handle("POST", "/v1/ingest", {}, mixed_batch(0))
    assert status == 200, payload

    # Stop the peer, dropping the pooled connection from its side, and
    # bring it back on the same port.
    peer.stop()
    loopback_pair[1] = PeerServer(("127.0.0.1", peer.port), peer.app)

    before = connects()
    status, payload, _ = app.handle("POST", "/v1/ingest", {}, mixed_batch(1))
    assert status == 200, payload
    assert payload["routing"]["forwarded"] == {"1": 1}
    assert connects() - before == 1
    status, merged, _ = app.handle("GET", "/v1/population", WINDOW, None)
    assert status == 200, merged
    assert sum(area["tweets"] for area in merged["areas"]) == 4


class HalfAnswerPeer:
    """Reads each request whole, writes half a response, then closes."""

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.base = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.requests: list[str] = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            with connection, connection.makefile("rb") as reader:
                target = reader.readline().split()[1].decode()
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode().partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                reader.read(length)
                self.requests.append(target)
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n{\"accepted\": "
                )

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.listener.close()
        self.thread.join(timeout=5)


@pytest.fixture()
def half_answer_router(warm_store):
    """Shard 0's app, routed to a shard 1 that dies mid-response."""
    peer = HalfAnswerPeer()
    app = create_app(
        warm_store, poll_interval=0.0, summary_namespace=f"half-s0of{N_SHARDS}"
    )
    app.shard_router = ShardRouter(
        0, RING, {0: "http://127.0.0.1:9", 1: peer.base}, app
    )
    yield app, peer
    app.shard_router.close()
    peer.close()


def test_peer_closing_mid_response_fails_without_resend(half_answer_router):
    app, peer = half_answer_router
    status, payload, _ = app.handle("POST", "/v1/ingest", {}, mixed_batch(0))
    assert status == 502, payload
    assert "local slice of 1 tweets was applied" in payload["error"]["message"]
    assert [target.split("?")[0] for target in peer.requests] == ["/v1/ingest"]

    status, payload, _ = app.handle("GET", "/v1/population", WINDOW, None)
    assert status == 503, payload
    assert [target.split("?")[0] for target in peer.requests] == [
        "/v1/ingest", "/v1/population",
    ]
    assert all("forwarded=1" in target for target in peer.requests)
