"""The HTTP estimation service (stdlib-only).

Architecture: :class:`EstimationApp` is the transport-free core — a
router mapping ``(method, path)`` to handlers that take parsed query and
body values and return ``(status, payload)`` — so every endpoint is unit
testable without opening a socket.  :class:`RequestHandler` adapts it to
``http.server``: it enforces body limits, parses JSON, serialises
responses and emits one structured JSON access-log line per request.
:class:`EstimationServer` is a :class:`~http.server.ThreadingHTTPServer`
configured to *drain* in-flight requests on shutdown (non-daemon handler
threads joined by ``server_close``).

Every request carries a ``request_id`` — taken from an incoming
``X-Request-Id`` header or generated — which is echoed in the response
header, attached to the structured access-log record, recorded against
the metrics ring buffers and stamped on the request's trace span, so one
id correlates a request across all three surfaces.

Consistency: each handler resolves the registry snapshot exactly once
(via :meth:`EstimationApp._resolve_scale`) and derives *everything* in
the response — scale data, ``run_id``, ``corpus_digest`` — from that one
object, so a concurrent hot-reload can never produce a response mixing
two snapshots.

Endpoints
---------
========  =====================  ==========================================
GET       ``/healthz``           liveness + current snapshot identity
GET       ``/metrics``           per-endpoint counters and latency quantiles
GET       ``/v1/population``     per-area census vs Twitter population;
                                 ``?window=t0:t1`` answers from the summary
                                 store with ``staleness_seconds``
GET       ``/v1/flows``          OD flow matrix entries, filterable;
                                 ``?window=t0:t1`` served from summary tiles
POST      ``/v1/predict``        batch OD predictions from fitted models
POST      ``/v1/ingest``         push a tweet batch into the summary
                                 store's minute tiles
GET       ``/v1/anomalies``      flow anomalies raised at whole-minute
                                 check boundaries over the minute tiles;
                                 ``?check=1`` adds a read-only check of
                                 the open window
POST      ``/v1/reload``         force a registry reload check
==========================================================================

Windowed queries (``window=t0:t1``, Unix seconds, half-open) are
answered from :class:`~repro.summary.store.SummaryStore` rollups in
O(buckets-touched); unwindowed queries keep serving the registry
snapshot.  The response cache is keyed on the registry run id *and* the
summary store's monotonic version, so an ingest immediately invalidates
any windowed answer it could have changed.

Worker mode (``repro.cluster``)
-------------------------------
The app also runs as one shard of a pre-fork cluster.  Two hooks keep
the layering clean (``serve`` never imports ``cluster``):

* ``shard_router`` — an object the cluster layer attaches after
  construction.  When set, un-``forwarded`` ingest batches, windowed
  reads and anomaly reads are delegated to it (consistent-hash split /
  scatter-gather);
  requests carrying ``forwarded=1`` are always handled locally, which
  is what makes forwarding loop-free.  ``/metrics`` adds the router's
  ``metrics()`` as a ``cluster`` block.
* ``cache_shard_key`` — folded into every response-cache key so two
  shards sharing one artifact store can never replay each other's
  answers.  Gathered (cluster-wide) windowed answers bypass the local
  cache entirely: their freshness depends on every shard's summary
  version, which a single worker's key cannot see.  Per-shard
  (``forwarded=1``) answers still cache normally on each worker.

:class:`EstimationServer` can adopt an already-bound, already-listening
socket (``sock=...``) instead of binding one — the pre-fork idiom where
the supervisor binds once and every forked worker accepts on the
inherited socket.  ``server_close`` drains in-flight requests and
then calls :meth:`EstimationApp.drain`, which flushes open summary
buckets to the artifact store — a SIGTERM mid-minute no longer loses
the unfinalized bucket.

Errors are JSON bodies ``{"error": {"code": ..., "message": ...}}`` with
the matching HTTP status.  Redirects (the shard router's 307 for a
batch owned wholly by another shard) carry
``{"redirect": {"location": ..., "shard": ...}}`` and a ``Location``
header.
"""

from __future__ import annotations

import json
import signal
import socket as socket_module
import sys
import threading
import time
import uuid
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro import obs
from repro.core.world import World
from repro.data.gazetteer import Scale, gazetteer_from_spec
from repro.data.schema import BatchSchemaError, TweetBatch
from repro.pipeline.store import ArtifactStore
from repro.serve.cache import LRUCache
from repro.serve.ingest import IngestService, minute_cells
from repro.serve.metrics import MetricsRegistry
from repro.serve.registry import (
    MODEL_KEYS,
    ModelRegistry,
    ScaleSnapshot,
    Snapshot,
)
from repro.stream.monitor import FlowAnomaly
from repro.summary.store import SummaryStore

#: Endpoints whose responses are pure functions of (URL, snapshot,
#: summary version) and therefore safe to serve from the LRU cache.
CACHEABLE = {"GET /v1/population", "GET /v1/flows"}

#: Hard ceiling on request bodies (bytes) unless configured lower.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Largest accepted ``pairs`` list in one predict request.
MAX_PREDICT_PAIRS = 10_000

#: Largest accepted ``tweets`` list in one ingest batch.
MAX_INGEST_TWEETS = 50_000


class ApiError(Exception):
    """An error with a deliberate HTTP status and client-safe message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _error_payload(status: int, message: str) -> dict:
    return {"error": {"code": status, "message": message}}


def _area_filter(world: World, query: dict, key: str) -> int | None:
    """Index of the area named by ``query[key]``; ``None`` when absent."""
    name = query.get(key)
    if name is None:
        return None
    index = world.area_index(name)
    if index < 0:
        raise ApiError(400, f"unknown {key} area {name!r}")
    return index


def render_flows(
    sources: np.ndarray,
    dests: np.ndarray,
    flows: np.ndarray,
    names: Sequence[str],
    distance_km: np.ndarray,
    origin: int | None,
    dest: int | None,
) -> list[dict]:
    """Flow entries for the OD cells ``(sources[k], dests[k])``.

    Cells come in row-major order (as :func:`numpy.nonzero` returns
    them) with ``flows[k]`` the count of cell ``k``; diagonal and
    non-positive cells are skipped, and ``origin``/``dest`` (area
    indices) keep one row/column.  The entries are those of a row-major
    scan of the dense matrix, at O(cells) instead of O(areas²).
    """
    keep = (sources != dests) & (flows > 0)
    if origin is not None:
        keep &= sources == origin
    if dest is not None:
        keep &= dests == dest
    sources, dests, flows = sources[keep], dests[keep], flows[keep]
    distances = distance_km[sources, dests]
    return [
        {
            "origin": names[i],
            "dest": names[j],
            "flow": int(flow),
            "distance_km": round(distance, 3),
        }
        for i, j, flow, distance in zip(
            sources.tolist(), dests.tolist(), flows.tolist(), distances.tolist()
        )
    ]


def wants_check(query: dict) -> bool:
    """Whether an anomalies read asks for the provisional open-window check."""
    return query.get("check") in ("1", "true")


def _anomaly_records(anomalies: Sequence[FlowAnomaly]) -> list[dict]:
    return [
        {
            "source": a.source,
            "dest": a.dest,
            "observed": a.observed,
            "baseline": round(a.baseline, 3),
            "ratio": round(a.ratio, 3),
            "timestamp": a.timestamp,
        }
        for a in anomalies
    ]


def anomalies_payload(anomalies: Sequence[FlowAnomaly], stats: dict) -> dict:
    """The ``/v1/anomalies`` body for a list of raised anomalies."""
    return {
        "count": len(anomalies),
        "anomalies": _anomaly_records(anomalies),
        "stats": stats,
    }


def check_payload(edge: int | None, flags: Sequence[FlowAnomaly]) -> dict:
    """The ``check`` block of ``/v1/anomalies?check=1``: the open window
    ``[edge − W, edge)`` flagged against the current baseline."""
    return {"edge": edge, "count": len(flags), "anomalies": _anomaly_records(flags)}


class EstimationApp:
    """Routing and endpoint logic, independent of the HTTP transport."""

    def __init__(
        self,
        registry: ModelRegistry,
        ingest: IngestService,
        metrics: MetricsRegistry | None = None,
        cache_capacity: int = 256,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        profile_requests: bool = False,
        windowed_reads: bool = True,
        summary_scale: Scale = Scale.NATIONAL,
    ) -> None:
        self.registry = registry
        self.ingest = ingest
        #: The store windowed reads answer from: the ingest service's
        #: own (None when windowed reads are off).
        self.summary = ingest.summary if windowed_reads else None
        self.summary_scale = summary_scale
        #: Cluster hook (duck-typed; see repro.cluster.router.ShardRouter).
        #: The cluster layer assigns it after construction — ``serve``
        #: never imports ``cluster``, keeping the layer DAG acyclic.
        self.shard_router = None
        #: Extra tuple folded into response-cache keys; cluster workers
        #: set ``(shard_index, n_shards)`` so shards sharing one store
        #: cannot replay each other's cached answers.
        self.cache_shard_key: tuple = ()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = LRUCache(cache_capacity)
        self.max_body_bytes = max_body_bytes
        self.profile_requests = profile_requests
        self._profile_reports: deque[dict] = deque(maxlen=16)
        self.started_at = time.time()  # repro: allow[determinism] uptime base
        self._routes: dict[tuple[str, str], Callable] = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/v1/population"): self._handle_population,
            ("GET", "/v1/flows"): self._handle_flows,
            ("POST", "/v1/predict"): self._handle_predict,
            ("POST", "/v1/ingest"): self._handle_ingest,
            ("GET", "/v1/anomalies"): self._handle_anomalies,
            ("POST", "/v1/reload"): self._handle_reload,
        }

    # -- dispatch ------------------------------------------------------

    def route_label(self, method: str, path: str) -> str:
        """The metrics label for a request (known routes only)."""
        if (method, path) in self._routes:
            return f"{method} {path}"
        return "unmatched"

    def handle(
        self,
        method: str,
        path: str,
        query: dict,
        body: dict | None,
        request_id: str = "",
    ) -> tuple[int, dict, bool]:
        """Dispatch one request; returns ``(status, payload, cache_hit)``.

        Never raises: every failure is rendered as a JSON error payload
        with the appropriate status code.  When a tracer is installed the
        whole dispatch runs inside a ``serve.request`` span carrying the
        request_id, so slow requests show up in the trace with their
        correlation id attached.
        """
        with obs.span(
            "serve.request", method=method, path=path, request_id=request_id
        ) as sp:
            status, payload, cache_hit = self._handle_inner(
                method, path, query, body
            )
            sp.set(status=status, cached=cache_hit)
        obs.counter("serve.requests")
        return status, payload, cache_hit

    def _handle_inner(
        self, method: str, path: str, query: dict, body: dict | None
    ) -> tuple[int, dict, bool]:
        handler = self._routes.get((method, path))
        if handler is None:
            if any(p == path for (_m, p) in self._routes):
                allowed = sorted(m for (m, p) in self._routes if p == path)
                return (
                    405,
                    _error_payload(405, f"method {method} not allowed; use {allowed}"),
                    False,
                )
            return 404, _error_payload(404, f"no such endpoint: {path}"), False

        # Serving endpoints see new pipeline runs promptly: a throttled
        # reload check runs ahead of any snapshot read.
        if path.startswith("/v1/") and path != "/v1/reload":
            if self.registry.maybe_reload():
                self.metrics.count_reload()

        label = f"{method} {path}"
        cache_key = None
        if label in CACHEABLE and self._cacheable(query):
            try:
                run_id = self.registry.snapshot.run_id
            except Exception as exc:
                return 503, _error_payload(503, str(exc)), False
            # The summary version makes the key monotone under ingest:
            # a windowed answer cached before a push can never be
            # replayed after it (the version bumped, so the key moved).
            cache_key = (
                path,
                tuple(sorted(query.items())),
                run_id,
                self._summary_version(),
                self.cache_shard_key,
            )
            cached = self.cache.get(cache_key)
            if cached is not None:
                status, payload = cached
                return status, payload, True

        try:
            if self.profile_requests:
                with obs.profiled(label, top_n=10) as prof:
                    status, payload = handler(query, body)
                self._profile_reports.append(prof.report.to_dict())
            else:
                status, payload = handler(query, body)
        except ApiError as exc:
            return exc.status, _error_payload(exc.status, exc.message), False
        except Exception as exc:  # defensive: never leak a traceback
            return 500, _error_payload(500, f"internal error: {exc!r}"), False
        if cache_key is not None and status == 200:
            self.cache.put(cache_key, (status, payload))
        return status, payload, False

    # -- helpers -------------------------------------------------------

    def _resolve_scale(self, query: dict) -> tuple[Snapshot, ScaleSnapshot]:
        """Resolve the snapshot *once* and the scale a request addresses.

        Handlers must derive every response field (run_id, corpus digest,
        scale data) from the returned pair — never re-read
        ``self.registry.snapshot``, which a concurrent hot-reload may
        have swapped between the two reads.
        """
        try:
            snapshot = self.registry.snapshot
        except Exception as exc:
            raise ApiError(503, str(exc)) from exc
        name = query.get("scale", Scale.NATIONAL.value)
        scale = snapshot.scale(name)
        if scale is None:
            known = [s.value for s in Scale]
            raise ApiError(400, f"unknown scale {name!r}; expected one of {known}")
        return snapshot, scale

    @staticmethod
    def _require_body(body: dict | None) -> dict:
        if body is None:
            raise ApiError(400, "request body must be a JSON object")
        return body

    def _summary_version(self) -> int:
        """The summary store's monotonic version (-1 when summaries are off)."""
        return self.summary.version if self.summary is not None else -1

    def _cacheable(self, query: dict) -> bool:
        """Whether this request's answer may be served from the LRU.

        A gathered (cluster-wide) windowed answer depends on every
        shard's summary version; the local cache key cannot see peers,
        so those bypass the cache.  Per-shard (``forwarded=1``) answers
        and every single-process answer cache normally.
        """
        if self.shard_router is None:
            return True
        return "window" not in query or query.get("forwarded") == "1"

    def _shard_routed(self, query: dict) -> bool:
        """Whether the shard router should take this request.

        False for ``forwarded=1`` requests — they were already routed
        by a peer (or by this worker's own gather) and must be answered
        locally, which is what makes forwarding loop-free.
        """
        return self.shard_router is not None and query.get("forwarded") != "1"

    def drain(self) -> dict:
        """Flush state that must survive a shutdown; idempotent.

        Persists every open summary minute bucket through the artifact
        store (so a SIGTERM mid-ingest loses nothing) and clears the
        response cache (a reused app must not serve pre-drain answers).
        Called by :meth:`EstimationServer.server_close` after in-flight
        requests finish.
        """
        flushed = self.ingest.summary.flush()
        self.cache.clear()
        obs.counter("serve.drains")
        return {"summary_tiles_flushed": flushed}

    @staticmethod
    def _parse_window(query: dict) -> tuple[float, float] | None:
        """The ``window=t0:t1`` bounds, or ``None`` when unwindowed."""
        raw = query.get("window")
        if raw is None:
            return None
        head, sep, tail = raw.partition(":")
        if not sep:
            raise ApiError(
                400, f"window must be 't0:t1' in Unix seconds, got {raw!r}"
            )
        try:
            return float(head), float(tail)
        except ValueError:
            raise ApiError(
                400, f"window bounds must be numbers, got {raw!r}"
            ) from None

    def _query_summary(self, query: dict, window: tuple[float, float]):
        """Resolve a windowed query against the summary store, or error.

        503 when no summary store is wired; 400 when the requested scale
        is not the one the store summarises (tiles exist per scale) or
        the window bounds are invalid.
        """
        if self.summary is None:
            raise ApiError(
                503, "windowed queries need a summary store; none is configured"
            )
        name = query.get("scale", self.summary_scale.value)
        if name != self.summary_scale.value:
            raise ApiError(
                400,
                f"windowed queries are summarised at scale "
                f"{self.summary_scale.value!r} only, got {name!r}",
            )
        try:
            return self.summary.query(*window)
        except ValueError as exc:
            raise ApiError(400, str(exc)) from exc

    # -- endpoints -----------------------------------------------------

    def _handle_healthz(self, query: dict, body: dict | None) -> tuple[int, dict]:
        try:
            snapshot = self.registry.snapshot
        except Exception as exc:
            return 503, _error_payload(503, str(exc))
        payload = {
            "status": "ok",
            "run_id": snapshot.run_id,
            "corpus_digest": snapshot.corpus_digest,
            "corpus_tweets": snapshot.n_tweets,
            "corpus_users": snapshot.n_users,
            "uptime_seconds": round(time.time() - self.started_at, 3),  # repro: allow[determinism] uptime report
        }
        if self.summary is not None:
            stats = self.summary.stats()
            payload["summary"] = {
                "version": stats["version"],
                "watermark": stats["watermark"],
                "tiles": stats["tiles"],
                "open_minutes": stats["open_minutes"],
            }
        return 200, payload

    def _handle_metrics(self, query: dict, body: dict | None) -> tuple[int, dict]:
        payload = self.metrics.snapshot()
        payload["response_cache"] = {
            "size": len(self.cache),
            "hits": self.cache.hits,
            "misses": self.cache.misses,
        }
        payload["ingest"] = self.ingest.stats()
        if self.summary is not None:
            payload["summary"] = self.summary.stats()
        if self.shard_router is not None:
            payload["cluster"] = self.shard_router.metrics()
        if self.profile_requests:
            payload["request_profiles"] = list(self._profile_reports)
        return 200, payload

    def _handle_population(self, query: dict, body: dict | None) -> tuple[int, dict]:
        window = self._parse_window(query)
        if window is not None:
            if self._shard_routed(query):
                return self.shard_router.gather_population(query)
            result = self._query_summary(query, window)
            world = self.summary.world
            return 200, {
                "scale": self.summary_scale.value,
                "radius_km": world.radius_km,
                "source": "summary",
                "window": {"t0": result.t0, "t1": result.t1},
                "staleness_seconds": result.staleness_seconds,
                "buckets_touched": result.buckets_touched,
                "tiles_used": result.tiles_used,
                "summary_version": result.version,
                "areas": [
                    {
                        "name": name,
                        "census_population": census,
                        "twitter_population": users,
                        "tweets": tweets,
                    }
                    for name, census, users, tweets in zip(
                        world.names,
                        world.populations.tolist(),
                        result.user_counts.tolist(),
                        result.tweet_counts.tolist(),
                    )
                ],
            }
        snapshot, scale = self._resolve_scale(query)
        areas = [
            {
                "name": observation.area.name,
                "census_population": observation.census_population,
                "twitter_population": observation.n_users,
                "tweets": observation.n_tweets,
            }
            for observation in scale.observations
        ]
        return 200, {
            "scale": scale.scale.value,
            "radius_km": scale.radius_km,
            "run_id": snapshot.run_id,
            "areas": areas,
        }

    def _handle_flows(self, query: dict, body: dict | None) -> tuple[int, dict]:
        window = self._parse_window(query)
        if window is not None:
            if self._shard_routed(query):
                return self.shard_router.gather_flows(query)
            result = self._query_summary(query, window)
            world = self.summary.world
            origin = _area_filter(world, query, "origin")
            dest = _area_filter(world, query, "dest")
            return 200, {
                "scale": self.summary_scale.value,
                "source": "summary",
                "window": {"t0": result.t0, "t1": result.t1},
                "staleness_seconds": result.staleness_seconds,
                "buckets_touched": result.buckets_touched,
                "tiles_used": result.tiles_used,
                "summary_version": result.version,
                "total_trips": result.n_transitions,
                "flows": render_flows(
                    *result.flow_cells(),
                    world.names,
                    world.distance_matrix_km,
                    origin,
                    dest,
                ),
            }
        snapshot, scale = self._resolve_scale(query)
        origin = _area_filter(scale.world, query, "origin")
        dest = _area_filter(scale.world, query, "dest")
        matrix = scale.flows.matrix
        sources, dests = np.nonzero(matrix)
        flows = render_flows(
            sources,
            dests,
            matrix[sources, dests],
            scale.world.names,
            scale.distance_km,
            origin,
            dest,
        )
        return 200, {
            "scale": scale.scale.value,
            "run_id": snapshot.run_id,
            "total_trips": scale.flows.total_trips,
            "flows": flows,
        }

    def _handle_predict(self, query: dict, body: dict | None) -> tuple[int, dict]:
        body = self._require_body(body)
        snapshot, scale = self._resolve_scale(
            {"scale": body.get("scale", Scale.NATIONAL.value)}
        )
        model_key = body.get("model", "gravity2")
        if model_key not in MODEL_KEYS:
            raise ApiError(400, f"unknown model {model_key!r}; expected {list(MODEL_KEYS)}")
        if model_key not in scale.models:
            raise ApiError(
                503,
                f"model {model_key!r} is not fitted at scale "
                f"{scale.scale.value!r} (too few positive flows in this run)",
            )
        raw_pairs = body.get("pairs")
        if not isinstance(raw_pairs, list) or not raw_pairs:
            raise ApiError(400, "body must carry a non-empty 'pairs' list")
        if len(raw_pairs) > MAX_PREDICT_PAIRS:
            raise ApiError(
                413, f"at most {MAX_PREDICT_PAIRS} pairs per request, got {len(raw_pairs)}"
            )
        sources = np.empty(len(raw_pairs), dtype=np.intp)
        dests = np.empty(len(raw_pairs), dtype=np.intp)
        for position, pair in enumerate(raw_pairs):
            if not isinstance(pair, dict) or "origin" not in pair or "dest" not in pair:
                raise ApiError(
                    400, f"pairs[{position}] must be an object with 'origin' and 'dest'"
                )
            i = scale.area_index(str(pair["origin"]))
            if i < 0:
                raise ApiError(400, f"pairs[{position}]: unknown origin {pair['origin']!r}")
            j = scale.area_index(str(pair["dest"]))
            if j < 0:
                raise ApiError(400, f"pairs[{position}]: unknown dest {pair['dest']!r}")
            if i == j:
                raise ApiError(400, f"pairs[{position}]: origin and dest must differ")
            sources[position] = i
            dests[position] = j
        predicted = scale.predict_pairs(model_key, sources, dests)
        obs.counter("serve.predictions", len(raw_pairs))
        return 200, {
            "scale": scale.scale.value,
            "model": model_key,
            "run_id": snapshot.run_id,
            "corpus_digest": snapshot.corpus_digest,
            "predictions": [
                {
                    "origin": scale.areas[int(i)].name,
                    "dest": scale.areas[int(j)].name,
                    "flow": round(float(value), 6),
                }
                for i, j, value in zip(sources, dests, predicted)
            ],
        }

    def _handle_ingest(self, query: dict, body: dict | None) -> tuple[int, dict]:
        body = self._require_body(body)
        raw = body.get("tweets")
        if not isinstance(raw, list) or not raw:
            raise ApiError(400, "body must carry a non-empty 'tweets' list")
        if len(raw) > MAX_INGEST_TWEETS:
            raise ApiError(
                413, f"at most {MAX_INGEST_TWEETS} tweets per batch, got {len(raw)}"
            )
        try:
            batch = TweetBatch.from_records(raw)
        except BatchSchemaError as exc:
            raise ApiError(400, f"tweets[{exc.position}]: {exc}") from exc
        if self._shard_routed(query):
            return self.shard_router.route_ingest(batch)
        return 200, self.ingest_apply(batch)

    def ingest_apply(self, batch: TweetBatch) -> dict:
        """Apply a parsed, time-ascending batch to this process's own state.

        The post-routing half of ingest: the batch is labelled once
        (:func:`~repro.core.label.label_and_contain`), then the summary
        store builds its minute tiles, dropping the stale prefix;
        minutes the batch finalizes run the anomaly monitor's due
        checks.  The shard router calls this directly for the
        locally-owned slice of a split batch.
        """
        result = self.ingest.apply(batch)
        payload = {
            "accepted": result.accepted,
            "dropped_stale": result.dropped_stale,
            "anomalies_raised": result.anomalies_raised,
        }
        if self.summary is not None:
            payload["summary"] = {
                "accepted": result.summary.accepted,
                "dropped_late": result.summary.dropped_late,
                "version": result.summary.version,
            }
        return payload

    def _handle_anomalies(self, query: dict, body: dict | None) -> tuple[int, dict]:
        if self._shard_routed(query):
            return self.shard_router.gather_anomalies(query)
        payload = anomalies_payload(self.ingest.anomalies(), self.ingest.stats())
        if wants_check(query):
            payload["check"] = check_payload(*self.ingest.provisional_check())
        if query.get("cells") == "1":
            # A gather leg: the shard router sums these across shards.
            listing = self.ingest.summary.minutes()
            payload["minutes"] = {
                "frontier": listing.frontier,
                "edge": listing.edge,
                "cells": [
                    [start, keys.tolist(), counts.tolist()]
                    for start, keys, counts in map(minute_cells, listing.tiles)
                ],
            }
        return 200, payload

    def _handle_reload(self, query: dict, body: dict | None) -> tuple[int, dict]:
        reloaded = self.registry.maybe_reload(force=True)
        if reloaded:
            self.metrics.count_reload()
        try:
            run_id = self.registry.snapshot.run_id
        except Exception as exc:
            return 503, _error_payload(503, str(exc))
        return 200, {"reloaded": reloaded, "run_id": run_id}


class RequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP adapter for :class:`EstimationApp`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: Headers and body go out in two sends; with Nagle on, a keep-alive
    #: response's second send waits ~40 ms for the client's delayed ACK.
    #: ``StreamRequestHandler`` sets ``TCP_NODELAY`` on the connection.
    disable_nagle_algorithm = True
    #: Socket read timeout per request — a stalled client cannot pin a
    #: handler thread forever.
    timeout = 30.0

    @property
    def app(self) -> EstimationApp:
        return self.server.app  # type: ignore[attr-defined]

    def handle(self) -> None:
        """Serve requests until the client or a closing server ends the connection.

        Between requests the connection is parked in the server's
        :class:`IdleConnections`, which ends parked connections when the
        server closes; a request whose line has been read is answered
        in full first.
        """
        self.close_connection = False
        while not self.close_connection:
            self.server.idle.park(self.connection)  # type: ignore[attr-defined]
            self.handle_one_request()

    def parse_request(self) -> bool:
        # The request line is in: the connection is busy until answered.
        self.server.idle.unpark(self.connection)  # type: ignore[attr-defined]
        return super().parse_request()

    def finish(self) -> None:
        self.server.idle.unpark(self.connection)  # type: ignore[attr-defined]
        super().finish()

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        request_id = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:16]
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = dict(parse_qsl(split.query))
        try:
            body = self._read_json_body(method)
        except ApiError as exc:
            # The body may be partly unread — drop the connection rather
            # than letting keep-alive resynchronise on request bytes.
            self.close_connection = True
            self._finish(
                method, path, exc.status, _error_payload(exc.status, exc.message),
                started, cached=False, request_id=request_id,
            )
            return
        status, payload, cached = self.app.handle(
            method, path, query, body, request_id=request_id
        )
        self._finish(
            method, path, status, payload, started, cached=cached,
            request_id=request_id,
        )

    def _read_json_body(self, method: str) -> dict | None:
        if method != "POST":
            return None
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise ApiError(411, "POST requires a Content-Length header")
        try:
            length = int(raw_length)
        except ValueError:
            raise ApiError(400, f"invalid Content-Length {raw_length!r}") from None
        if length < 0:
            raise ApiError(400, f"invalid Content-Length {raw_length!r}")
        if length > self.app.max_body_bytes:
            raise ApiError(
                413,
                f"body of {length} bytes exceeds the "
                f"{self.app.max_body_bytes}-byte limit",
            )
        try:
            data = self.rfile.read(length)
        except (TimeoutError, OSError) as exc:
            raise ApiError(408, f"timed out reading request body: {exc}") from exc
        try:
            parsed = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(parsed, dict):
            raise ApiError(400, "JSON body must be an object")
        return parsed

    def _finish(
        self,
        method: str,
        path: str,
        status: int,
        payload: dict,
        started: float,
        cached: bool,
        request_id: str = "",
    ) -> None:
        data = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if self.server.idle.closing:  # type: ignore[attr-defined]
                self.send_header("Connection", "close")
            if request_id:
                self.send_header("X-Request-Id", request_id)
            if 300 <= status < 400:
                location = (payload.get("redirect") or {}).get("location")
                if location:
                    self.send_header("Location", location)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # repro: allow[hygiene] client went away
            pass  # still account for the request below
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.app.metrics.observe(
            self.app.route_label(method, path), status, elapsed_ms,
            cached=cached, request_id=request_id,
        )
        self._access_log(method, path, status, elapsed_ms, cached, request_id)

    def _access_log(
        self,
        method: str,
        path: str,
        status: int,
        ms: float,
        cached: bool,
        request_id: str,
    ) -> None:
        logger = getattr(self.server, "access_logger", None)  # type: ignore[attr-defined]
        if logger is not None:
            logger.info(
                "request",
                request_id=request_id,
                method=method,
                path=path,
                status=status,
                ms=round(ms, 3),
                cached=cached,
                client=self.client_address[0],
            )

    def log_message(self, format: str, *args) -> None:
        """Silence http.server's default stderr lines (we emit JSON)."""


class IdleConnections:
    """Keep-alive connections whose handler waits for the next request.

    A handler waiting for its client's next request line sits in a
    blocking read for up to ``RequestHandler.timeout``, and a closing
    server joins its handler threads.  :meth:`end_all` shuts the read
    side of every parked connection, so that read returns end-of-file
    at once.  A handler mid-request is not parked: it answers with
    ``Connection: close`` and then ends its connection.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._parked: set[socket_module.socket] = set()
        self.closing = False

    def park(self, connection: socket_module.socket) -> None:
        """Record ``connection`` as idle until its next request line arrives.

        Once the server is closing the connection's reads end at once
        instead: a request already sent is still read and answered, and
        a silent client reads as end-of-file.
        """
        with self._lock:
            if not self.closing:
                self._parked.add(connection)
                return
        _end_reads(connection)

    def unpark(self, connection: socket_module.socket) -> None:
        with self._lock:
            self._parked.discard(connection)

    def end_all(self) -> None:
        """Stop keep-alive and end every parked connection's reads."""
        with self._lock:
            self.closing = True
            parked, self._parked = self._parked, set()
        for connection in parked:
            _end_reads(connection)


def _end_reads(connection: socket_module.socket) -> None:
    """Shut ``connection``'s read side: a blocked or later read returns
    end-of-file once the bytes already received are consumed."""
    try:
        connection.shutdown(socket_module.SHUT_RD)
    except OSError:  # repro: allow[hygiene] the client already hung up
        pass


class EstimationServer(ThreadingHTTPServer):
    """Threaded HTTP server that drains in-flight requests on close."""

    #: Handler threads are joined by ``server_close`` — graceful drain.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        app: EstimationApp,
        access_log_file=None,
        sock: socket_module.socket | None = None,
        flush_on_drain: bool = True,
    ):
        if sock is None:
            super().__init__(address, RequestHandler)
        else:
            # Pre-fork adoption: the supervisor already bound and
            # listened on this socket; every worker just accept()s on
            # the inherited fd.  Skip bind_and_activate and graft the
            # socket in, mirroring what server_bind/server_activate
            # would have recorded.
            super().__init__(address, RequestHandler, bind_and_activate=False)
            self.socket.close()
            self.socket = sock
            host, port = sock.getsockname()[:2]
            self.server_address = (host, port)
            self.server_name = socket_module.getfqdn(host)
            self.server_port = port
        self.app = app
        self.flush_on_drain = flush_on_drain
        self.access_log_file = access_log_file
        self.access_logger = (
            obs.StructuredLogger("repro.serve.access", stream=access_log_file)
            if access_log_file is not None
            else None
        )
        self.idle = IdleConnections()

    @property
    def port(self) -> int:
        """The bound port (useful with ephemeral port 0)."""
        return self.server_address[1]

    def server_close(self) -> None:
        """End idle connections, drain in-flight requests, then flush app state (once).

        The base class joins the non-daemon handler threads
        (``block_on_close``); idle keep-alive connections are ended first
        so the join waits only for requests in flight.  By the time
        :meth:`EstimationApp.drain` runs no request is mid-flight: the
        flushed summary tiles are a consistent cut.
        ``flush_on_drain=False`` opts out for servers that share an app
        whose lifecycle someone else owns (a cluster worker drains once,
        explicitly, after closing both listeners).
        """
        self.idle.end_all()
        super().server_close()
        if self.flush_on_drain:
            self.app.drain()
            self.flush_on_drain = False


def create_app(
    store: ArtifactStore,
    monitor_scale: Scale = Scale.NATIONAL,
    window_seconds: float = 3600.0,
    check_interval_seconds: float | None = None,
    poll_interval: float = 2.0,
    cache_capacity: int = 256,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    preload: bool = True,
    profile_requests: bool = False,
    with_summary: bool = True,
    summary_namespace: str | None = None,
    gazetteer: str | None = None,
) -> EstimationApp:
    """Wire registry + ingest + metrics into an app over one store.

    With ``preload`` (the default) the initial snapshot is built before
    the first request, so a misconfigured cache dir fails fast at boot.
    Ingest always lands in a :class:`SummaryStore` over the monitor
    scale, which the anomaly monitor follows (``window_seconds`` and
    ``check_interval_seconds`` set its schedule).  With
    ``with_summary`` (the default) that store persists through the same
    artifact store and is recovered at boot — so windowed queries and
    the anomaly state survive a restart without corpus replay; without
    it the store is in-memory and windowed reads answer 503.  ``summary_namespace`` overrides the
    store's tile namespace (cluster workers use
    ``"<scale>-s<shard>of<n>"`` so shards persist disjoint tile sets
    through one artifact store).  ``gazetteer`` picks the monitored area
    system (``legacy`` or ``synth:<areas>[@<seed>]``); non-legacy
    gazetteers qualify the default summary namespace with the gazetteer
    slug so tiles from different area systems never collide.
    """
    registry = ModelRegistry(store, poll_interval=poll_interval)
    if preload:
        registry.load()
    resolved = gazetteer_from_spec(gazetteer)
    world = World.from_scale(monitor_scale, gazetteer=resolved)
    if with_summary:
        if resolved.is_legacy:
            default_namespace = monitor_scale.value
        else:
            default_namespace = f"{resolved.namespace_slug}-{monitor_scale.value}"
        summary = SummaryStore(
            world,
            artifacts=store,
            namespace=summary_namespace or default_namespace,
        )
        summary.recover()
    else:
        summary = SummaryStore(world)
    ingest = IngestService(
        summary,
        window_seconds=window_seconds,
        check_interval_seconds=check_interval_seconds,
    )
    return EstimationApp(
        registry,
        ingest,
        cache_capacity=cache_capacity,
        max_body_bytes=max_body_bytes,
        profile_requests=profile_requests,
        windowed_reads=with_summary,
        summary_scale=monitor_scale,
    )


def create_server(
    host: str,
    port: int,
    app: EstimationApp,
    access_log_file=sys.stderr,
    sock: socket_module.socket | None = None,
    flush_on_drain: bool = True,
) -> EstimationServer:
    """Bind the service (``port=0`` picks an ephemeral port).

    Pass ``sock`` to adopt an already-listening socket instead of
    binding (the pre-fork path); ``host``/``port`` are then ignored.
    """
    return EstimationServer(
        (host, port),
        app,
        access_log_file=access_log_file,
        sock=sock,
        flush_on_drain=flush_on_drain,
    )


def install_signal_handlers(server: EstimationServer) -> None:
    """Arrange graceful shutdown on SIGTERM/SIGINT.

    ``shutdown`` must not run on the thread inside ``serve_forever``,
    so the handler hands it to a short-lived helper thread; the main
    thread then falls out of ``serve_forever`` and drains via
    ``server_close``.
    """

    def _handle(signum, frame):  # pragma: no cover - exercised via CLI
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
