"""Per-worker shard routing: ingest split/forward and scatter-gather reads.

Each cluster worker owns one :class:`ShardRouter`, attached to its
:class:`~repro.serve.app.EstimationApp` as the duck-typed
``shard_router`` hook (``serve`` stays below ``cluster`` in the layer
DAG, so the app never imports this module).

Routing contract
----------------
Every routed request carries ``forwarded=1`` in its query string, and
the app answers ``forwarded=1`` requests locally without consulting the
router — a forwarded request can therefore never be forwarded again,
which makes the topology loop-free by construction (at most one hop).

* **Ingest** (``route_ingest``): the batch is grouped by ring owner.
  A batch owned *wholly* by one other shard gets a ``307`` with a
  ``Location`` pointing at that shard's private address — the cheap
  path for clients that already shard their submissions.  A mixed
  batch is split: the local slice applies in-process and each foreign
  slice is re-posted to its owner, with the per-shard outcomes summed
  and a ``routing`` block describing the split.
* **Reads** (``gather_population`` / ``gather_flows``): the windowed
  query fans out to every shard, and the per-shard payloads merge
  exactly via :mod:`repro.cluster.merge`.  Any shard failure fails the
  gather with a ``503`` naming the shards that did not answer — a
  partial merge would silently under-count.
* **Anomalies** (``gather_anomalies``): every shard sends its minute
  tiles' OD cells, and a fresh monitor with this worker's settings runs
  the anomaly kernel over the fleet windows — the shards' cells summed
  per minute, exact because each user's transitions live on one shard.
  A check boundary counts only once every shard's frontier has passed
  it, so the answer is the same whichever worker is asked.

Peer legs
---------
A request runs in the thread that received it, with no handoff: it
sends every foreign leg, runs its own shard's leg in-process, and only
then reads the peers' answers, so the peers work while this worker
does.  Legs travel over :class:`PeerConnections`, kept-alive
``http.client`` connections to the peers' private addresses.  A leg
that fails anywhere closes its connection and fails the request
(``502`` for ingest, after the local slice was applied; ``503`` for a
read); nothing is ever resent, because a peer may already have applied
the slice.  Tests and benchmarks inject an in-process ``transport``
instead, which runs deferred in the calling thread.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from typing import Callable, Mapping
from urllib.parse import urlencode, urlsplit

import numpy as np

from repro import obs
from repro.cluster.hashring import HashRing
from repro.cluster.merge import merge_flows_payloads, merge_population_payloads
from repro.data.schema import TweetBatch
from repro.serve.app import (
    ApiError,
    EstimationApp,
    RequestHandler,
    anomalies_payload,
    check_payload,
    wants_check,
)

#: Seconds a worker waits on one peer leg (connect, or any one read)
#: before failing the request.
PEER_TIMEOUT = 10.0

#: An idle pooled connection is reused only if it has waited less than
#: half the peer handler's read timeout, so the peer never times it out
#: while a request is on its way.
MAX_IDLE_SECONDS = RequestHandler.timeout / 2

#: ``transport(method, url, body_or_None) -> (status, payload)``.
Transport = Callable[[str, str, dict | None], tuple[int, dict]]

#: A leg in flight: calling it returns the peer's ``(status, payload)``.
Leg = Callable[[], tuple[int, dict]]

_JSON_HEADERS = {"Content-Type": "application/json"}


def _failed_leg() -> tuple[int, dict]:
    return 0, {}


def _settle(leg: Leg) -> tuple[int, dict]:
    """Finish a leg; any failure answers ``(0, {})``."""
    try:
        return leg()
    except Exception:  # repro: allow[hygiene] the caller fails the request
        return 0, {}


def _peer_closed(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle connection's socket is readable (or gone).

    An idle keep-alive socket has nothing to read unless the peer
    closed it (EOF) or broke the protocol; either way it is unusable.
    A zero-timeout ``poll`` rather than ``select``, which fails on
    descriptors past ``FD_SETSIZE`` in a worker with many clients.
    """
    if connection.sock is None:
        return True
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    return bool(poller.poll(0))


class PeerConnections:
    """Kept-alive HTTP/1.1 connections to the peers, one LIFO per peer.

    One lock guards the idle stacks.  A leg takes the most recently
    used idle connection that is still fit (idle under
    :data:`MAX_IDLE_SECONDS` and not closed by the peer), or opens a
    new one (``http.client`` sets ``TCP_NODELAY`` on connect), and gives
    it back only after a complete response the peer did not mark
    ``Connection: close``.  Any error closes it instead.
    """

    def __init__(self, peers: Mapping[int, str]) -> None:
        self._addresses = {shard: urlsplit(base) for shard, base in peers.items()}
        self._lock = threading.Lock()
        self._idle: dict[int, list[tuple[http.client.HTTPConnection, float]]] = {
            shard: [] for shard in peers
        }
        self._closed = False

    def _take(self, shard: int) -> http.client.HTTPConnection:
        now = time.monotonic()
        unfit: list[http.client.HTTPConnection] = []
        taken = None
        with self._lock:
            idle = self._idle[shard]
            while idle and taken is None:
                connection, since = idle.pop()
                if now - since < MAX_IDLE_SECONDS and not _peer_closed(connection):
                    taken = connection
                else:
                    unfit.append(connection)
        for connection in unfit:
            connection.close()
        if taken is None:
            address = self._addresses[shard]
            taken = http.client.HTTPConnection(
                address.hostname, address.port, timeout=PEER_TIMEOUT
            )
            obs.counter("cluster.peer_connects")
        return taken

    def _give_back(
        self, shard: int, connection: http.client.HTTPConnection, will_close: bool
    ) -> None:
        if not will_close:
            with self._lock:
                if not self._closed:
                    self._idle[shard].append((connection, time.monotonic()))
                    return
        connection.close()

    def send(self, shard: int, method: str, target: str, body: dict | None) -> Leg:
        """Write one request to ``shard`` now; the returned leg reads it."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        connection = self._take(shard)
        try:
            connection.request(
                method, target, body=data, headers=_JSON_HEADERS if data else {}
            )
        except BaseException:
            connection.close()
            raise

        def receive() -> tuple[int, dict]:
            try:
                response = connection.getresponse()
                payload = json.loads(response.read())
            except BaseException:
                connection.close()
                raise
            self._give_back(shard, connection, response.will_close)
            return response.status, payload

        return receive

    def close(self) -> None:
        """Close every idle connection; later give-backs close instead."""
        with self._lock:
            self._closed = True
            idle = [connection for stack in self._idle.values() for connection, _ in stack]
            for stack in self._idle.values():
                stack.clear()
        for connection in idle:
            connection.close()


def _batch_records(batch: TweetBatch) -> list[dict]:
    """Re-serialise a parsed batch for a peer's ingest endpoint."""
    return [
        {"user_id": user, "timestamp": timestamp, "lat": lat, "lon": lon}
        for user, timestamp, lat, lon in zip(
            batch.user_ids.tolist(),
            batch.timestamps.tolist(),
            batch.lats.tolist(),
            batch.lons.tolist(),
        )
    ]


class ShardRouter:
    """Routes one worker's share of cluster traffic.

    Parameters
    ----------
    shard:
        This worker's shard index.
    ring:
        The cluster-wide :class:`HashRing` (identical in every worker).
    peers:
        Shard index → private base URL (``http://host:port``) for every
        shard, this worker's own included (unused — own-shard calls go
        in-process).
    app:
        The local :class:`EstimationApp`; its ``shard_router`` attribute
        should point back at this router.
    transport:
        Override for the HTTP leg (tests route to in-process apps); it
        runs deferred, in the calling thread, when the leg is read.
    """

    def __init__(
        self,
        shard: int,
        ring: HashRing,
        peers: Mapping[int, str],
        app: EstimationApp,
        transport: Transport | None = None,
    ) -> None:
        if shard not in peers:
            raise ValueError(f"shard {shard} missing from peers {sorted(peers)}")
        self.shard = shard
        self.ring = ring
        self.peers = dict(peers)
        self.app = app
        self.transport = transport
        # Built per worker after the fork, so no lock crosses it.
        self._connections = PeerConnections(self.peers)
        # Always None and never submitted to: it stays only because
        # perfbench's ``LayerProbe.adopt_router`` wraps it, and ROADMAP
        # item 4 removes both.
        self._pool = None

    # -- one leg -------------------------------------------------------

    def _send(
        self,
        shard: int,
        method: str,
        path: str,
        query: Mapping[str, str],
        body: dict | None,
    ) -> Leg:
        """Send one routed leg to a peer; the returned leg reads its answer."""
        obs.counter("cluster.peer_legs")
        target = f"{path}?{urlencode(sorted({**query, 'forwarded': '1'}.items()))}"
        transport = self.transport
        if transport is not None:
            url = f"{self.peers[shard]}{target}"
            return lambda: transport(method, url, body)
        try:
            return self._connections.send(shard, method, target, body)
        except Exception:  # repro: allow[hygiene] the caller fails the request
            return _failed_leg

    # -- ingest --------------------------------------------------------

    def route_ingest(self, batch: TweetBatch) -> tuple[int, dict]:
        """Split a parsed batch by ring owner; apply/forward each slice.

        The ring is consulted once per distinct user, and each slice is
        a boolean mask over the batch, so it stays time-ascending.
        """
        users, inverse = np.unique(batch.user_ids, return_inverse=True)
        owners = np.array(
            [self.ring.owner(user) for user in users.tolist()], dtype=np.intp
        )[inverse]
        shards = np.unique(owners).tolist()
        if len(shards) == 1 and shards[0] != self.shard:
            # Wholly someone else's: tell the client where to go
            # instead of proxying the whole body through this worker.
            (owner,) = shards
            obs.counter("cluster.ingest_redirects")
            return 307, {
                "redirect": {
                    "location": f"{self.peers[owner]}/v1/ingest",
                    "shard": owner,
                }
            }
        slices = {shard: batch.select(owners == shard) for shard in shards}
        local = slices.pop(self.shard, None)
        legs = {
            owner: self._send(
                owner, "POST", "/v1/ingest", {}, {"tweets": _batch_records(slice_)}
            )
            for owner, slice_ in slices.items()
        }
        try:
            payload = (
                self.app.ingest_apply(local)
                if local is not None
                else {"accepted": 0, "dropped_stale": 0, "anomalies_raised": 0}
            )
        finally:
            answers = {owner: _settle(leg) for owner, leg in legs.items()}
        n_local = 0 if local is None else len(local)
        forwarded: dict[str, int] = {}
        failed: list[int] = []
        for owner in sorted(answers):
            status, peer = answers[owner]
            if status != 200:
                failed.append(owner)
                continue
            forwarded[str(owner)] = len(slices[owner])
            payload["accepted"] += peer.get("accepted", 0)
            payload["dropped_stale"] += peer.get("dropped_stale", 0)
            payload["anomalies_raised"] += peer.get("anomalies_raised", 0)
            if "summary" in peer:
                mine = payload.setdefault(
                    "summary", {"accepted": 0, "dropped_late": 0, "version": 0}
                )
                mine["accepted"] += peer["summary"]["accepted"]
                mine["dropped_late"] += peer["summary"]["dropped_late"]
        if failed:
            obs.counter("cluster.ingest_forward_failures", len(failed))
            raise ApiError(
                502,
                f"ingest forward to shard(s) {failed} failed; "
                f"local slice of {n_local} tweets was applied",
            )
        payload["routing"] = {
            "shard": self.shard,
            "local": n_local,
            "forwarded": forwarded,
        }
        obs.counter("cluster.ingest_routed")
        return 200, payload

    # -- scatter-gather reads ------------------------------------------

    def _gather(
        self, path: str, query: Mapping[str, str]
    ) -> list[dict]:
        """Fan a windowed read out to every shard; per-shard payloads.

        Raises ``503`` if any shard fails — a partial merge would
        silently under-count.
        """
        with obs.span("cluster.gather", path=path, shards=self.ring.n_shards):
            legs = {
                shard: self._send(shard, "GET", path, query, None)
                for shard in range(self.ring.n_shards)
                if shard != self.shard
            }

            def own() -> tuple[int, dict]:
                status, payload, _cached = self.app.handle(
                    "GET", path, {**query, "forwarded": "1"}, None
                )
                return status, payload

            answers = {self.shard: _settle(own)}
            answers.update((shard, _settle(leg)) for shard, leg in legs.items())
            payloads: list[dict] = []
            failed: list[int] = []
            for shard in range(self.ring.n_shards):
                status, payload = answers[shard]
                if status != 200:
                    failed.append(shard)
                else:
                    payloads.append(payload)
            if failed:
                obs.counter("cluster.gather_failures", len(failed))
                raise ApiError(
                    503, f"shard(s) {failed} did not answer {path}"
                )
            return payloads

    def gather_population(self, query: Mapping[str, str]) -> tuple[int, dict]:
        """Cluster-wide ``/v1/population?window=``: fan out and merge."""
        return 200, merge_population_payloads(
            self._gather("/v1/population", query)
        )

    def gather_flows(self, query: Mapping[str, str]) -> tuple[int, dict]:
        """Cluster-wide ``/v1/flows?window=``: fan out and merge."""
        return 200, merge_flows_payloads(
            self._gather("/v1/flows", query),
            list(self.app.summary.world.names),
        )

    def gather_anomalies(self, query: Mapping[str, str]) -> tuple[int, dict]:
        """Cluster-wide ``/v1/anomalies``: the kernel over fleet windows.

        Stateless: each call replays the fleet's minutes into a fresh
        monitor up to the fleet frontier (the least shard frontier), so
        concurrent reads share nothing.  ``check=1`` evaluates the fleet's
        open window (up to the newest shard edge) against the fleet
        baseline, folding nothing.
        """
        shard_query = {key: value for key, value in query.items() if key != "check"}
        payloads = self._gather("/v1/anomalies", {**shard_query, "cells": "1"})
        listings = [payload["minutes"] for payload in payloads]
        minutes = sorted(
            (
                (start, np.array(keys, dtype=np.int64), np.array(counts, dtype=np.int64))
                for listing in listings
                for start, keys, counts in listing["cells"]
            ),
            key=lambda minute: minute[0],
        )
        frontiers = [listing["frontier"] for listing in listings]
        monitor = self.app.ingest.monitor.fresh()
        if None not in frontiers:
            frontier = min(frontiers)
            monitor.advance(
                [minute for minute in minutes if minute[0] < frontier], frontier
            )
        view = monitor.view
        edge = max(
            (listing["edge"] for listing in listings if listing["edge"] is not None),
            default=None,
        )
        open_window = (
            np.zeros(0, dtype=np.int64) if edge is None
            else monitor.window_cells(minutes, edge)[1]
        )
        stats = {
            "accepted": sum(p["stats"]["accepted"] for p in payloads),
            "dropped_stale": sum(p["stats"]["dropped_stale"] for p in payloads),
            "window_transitions": int(open_window.sum()),
            "checks_done": view.checks_done,
            "anomalies_total": len(view.anomalies),
            "has_windowed_fit": view.latest_fit is not None,
            "frontier": view.frontier,
        }
        payload = anomalies_payload(view.anomalies, stats)
        if wants_check(query):
            flags = [] if edge is None else monitor.provisional(minutes, edge)
            payload["check"] = check_payload(edge, flags)
        payload["cluster"] = {
            "shards": len(payloads),
            "frontiers": frontiers,
        }
        return 200, payload

    def metrics(self) -> dict:
        """This worker's peer-transport counters, for ``/metrics``."""
        counters = obs.counters_snapshot()
        return {
            name: counters.get(f"cluster.{name}", 0)
            for name in (
                "peer_connects",
                "peer_legs",
                "ingest_forward_failures",
                "gather_failures",
            )
        }

    def close(self) -> None:
        """Close the idle peer connections (worker shutdown)."""
        self._connections.close()
