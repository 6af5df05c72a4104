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
  query fans out to every shard concurrently (the local shard answers
  in-process), and the per-shard payloads merge exactly via
  :mod:`repro.cluster.merge`.  Any shard failure fails the gather with
  a ``503`` naming the shards that did not answer — a partial merge
  would silently under-count.
* **Anomalies** (``gather_anomalies``): every shard sends its minute
  tiles' OD cells, and a fresh monitor with this worker's settings runs
  the anomaly kernel over the fleet windows — the shards' cells summed
  per minute, exact because each user's transitions live on one shard.
  A check boundary counts only once every shard's frontier has passed
  it, so the answer is the same whichever worker is asked.

The HTTP leg uses stdlib ``urllib`` against the peers' private
per-shard addresses; tests inject an in-process ``transport`` instead.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping
from urllib.parse import urlencode

import numpy as np

from repro import obs
from repro.cluster.hashring import HashRing
from repro.cluster.merge import merge_flows_payloads, merge_population_payloads
from repro.data.schema import TweetBatch
from repro.serve.app import (
    ApiError,
    EstimationApp,
    anomalies_payload,
    check_payload,
    wants_check,
)

#: Seconds a worker waits on one peer leg before failing the request.
PEER_TIMEOUT = 10.0

#: ``transport(method, url, body_or_None) -> (status, payload)``.
Transport = Callable[[str, str, dict | None], tuple[int, dict]]


def http_transport(method: str, url: str, body: dict | None) -> tuple[int, dict]:
    """One JSON request/response leg over stdlib urllib."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=PEER_TIMEOUT) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        # Non-2xx with a JSON error body is still an answer.
        try:
            return exc.code, json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            return exc.code, {"error": {"code": exc.code, "message": str(exc)}}


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
        Override for the HTTP leg (tests route to in-process apps).
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
        self.transport: Transport = transport or http_transport
        # Created per-worker after the fork, so no pre-fork threads.
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(peers)),
            thread_name_prefix=f"gather-s{shard}",
        )

    # -- one leg -------------------------------------------------------

    def _call(
        self,
        shard: int,
        method: str,
        path: str,
        query: Mapping[str, str],
        body: dict | None,
    ) -> tuple[int, dict]:
        """One routed leg; own shard dispatches in-process."""
        routed_query = {**query, "forwarded": "1"}
        if shard == self.shard:
            status, payload, _cached = self.app.handle(
                method, path, routed_query, body
            )
            return status, payload
        base = self.peers[shard]
        pairs = urlencode(sorted(routed_query.items()))
        return self.transport(method, f"{base}{path}?{pairs}", body)

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
        futures = {
            owner: self._pool.submit(
                self._call,
                owner,
                "POST",
                "/v1/ingest",
                {},
                {"tweets": _batch_records(slice_)},
            )
            for owner, slice_ in slices.items()
        }
        payload = (
            self.app.ingest_apply(local)
            if local is not None
            else {"accepted": 0, "dropped_stale": 0, "anomalies_raised": 0}
        )
        n_local = 0 if local is None else len(local)
        forwarded: dict[str, int] = {}
        failed: list[int] = []
        for owner in sorted(futures):
            try:
                status, peer = futures[owner].result(timeout=PEER_TIMEOUT * 2)
            except Exception:  # repro: allow[hygiene] leg failure recorded below
                status, peer = 0, {}
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
            futures = {
                shard: self._pool.submit(
                    self._call, shard, "GET", path, query, None
                )
                for shard in range(self.ring.n_shards)
            }
            payloads: list[dict] = []
            failed: list[int] = []
            for shard in range(self.ring.n_shards):
                try:
                    status, payload = futures[shard].result(
                        timeout=PEER_TIMEOUT * 2
                    )
                except Exception:  # repro: allow[hygiene] leg failure recorded below
                    status, payload = 0, {}
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

    def close(self) -> None:
        """Stop the gather pool (worker shutdown)."""
        self._pool.shutdown(wait=False)
