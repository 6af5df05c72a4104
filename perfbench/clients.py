"""Closed-loop callers: in-process apps, an in-process fleet, and HTTP.

Every caller exposes ``ingest(records)`` and ``read(path, window)``,
returning ``(status, payload)``, so a workload's request schedule does
not care which transport carries it.
"""

from __future__ import annotations

import http.client
import json
import os
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro.cluster import ClusterConfig, ClusterSupervisor, HashRing, ShardRouter
from repro.data.gazetteer import Scale
from repro.pipeline import ArtifactStore
from repro.serve import EstimationApp, create_app

#: Seconds an HTTP call may take before it counts as failed.
HTTP_TIMEOUT = 30.0


def encode_response(payload: dict) -> bytes:
    """Serialise a response body exactly as ``RequestHandler._finish`` does."""
    return json.dumps(payload).encode("utf-8")


class AppClient:
    """Calls :meth:`EstimationApp.handle` directly and encodes the answer.

    ``apps`` maps a base URL to the app serving it; a ``307`` from the
    entry app is followed to the owner named in its ``Location``, as an
    HTTP client would.  A single app needs no map.
    """

    def __init__(self, app: EstimationApp, apps: dict[str, EstimationApp] | None = None):
        self.app = app
        self.apps = apps or {}
        self.redirects = 0

    def _call(self, app: EstimationApp, method: str, path: str, query: dict, body):
        status, payload, _cached = app.handle(method, path, query, body)
        encode_response(payload)
        return status, payload

    def ingest(self, records: list[dict]) -> tuple[int, dict]:
        body = {"tweets": records}
        status, payload = self._call(self.app, "POST", "/v1/ingest", {}, body)
        if status == 307:
            self.redirects += 1
            target = urlsplit(payload["redirect"]["location"])
            owner = self.apps[f"{target.scheme}://{target.netloc}"]
            status, payload = self._call(owner, "POST", target.path, {}, body)
        return status, payload

    def read(self, path: str, window: str) -> tuple[int, dict]:
        return self._call(self.app, "GET", path, {"window": window}, None)


class DirectTransport:
    """A ``ShardRouter`` transport that calls the peer app in-process."""

    def __init__(self) -> None:
        self.apps: dict[str, EstimationApp] = {}

    def __call__(self, method: str, url: str, body: dict | None) -> tuple[int, dict]:
        split = urlsplit(url)
        app = self.apps[f"{split.scheme}://{split.netloc}"]
        status, payload, _cached = app.handle(
            method, split.path, dict(parse_qsl(split.query)), body
        )
        return status, payload


class LocalFleet:
    """``n_shards`` apps wired like cluster workers, peers called directly."""

    def __init__(self, store: ArtifactStore, n_shards: int) -> None:
        ring = HashRing(n_shards)
        peers = {k: f"http://shard{k}" for k in range(n_shards)}
        self.transport = DirectTransport()
        self.apps: list[EstimationApp] = []
        for shard in range(n_shards):
            app = create_app(
                store, summary_namespace=f"{Scale.NATIONAL.value}-s{shard}of{n_shards}"
            )
            app.shard_router = ShardRouter(shard, ring, peers, app, transport=self.transport)
            app.cache_shard_key = (shard, n_shards)
            self.transport.apps[peers[shard]] = app
            self.apps.append(app)

    def client(self) -> AppClient:
        return AppClient(self.apps[0], self.transport.apps)

    def stop(self) -> None:
        for app in self.apps:
            app.shard_router.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """Resident-set high-water mark (``VmHWM``) of process ``pid``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
        clear_refs.write("5")


class HttpClient:
    """One keep-alive HTTP/1.1 connection (plus one per redirect target)."""

    def __init__(self, base: str) -> None:
        self.base = urlsplit(base).netloc
        self.redirects = 0
        self._connections: dict[str, http.client.HTTPConnection] = {}

    def _request(self, netloc: str, method: str, target: str, body: dict | None):
        connection = self._connections.get(netloc)
        if connection is None:
            host, port = netloc.rsplit(":", 1)
            connection = http.client.HTTPConnection(host, int(port), timeout=HTTP_TIMEOUT)
            self._connections[netloc] = connection
        data = None if body is None else encode_response(body)
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            connection.request(method, target, body=data, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            # The next call reconnects; this one counts as failed.
            connection.close()
            del self._connections[netloc]
            raise
        return response.status, response.getheader("Location"), json.loads(raw)

    def ingest(self, records: list[dict]) -> tuple[int, dict]:
        body = {"tweets": records}
        status, location, payload = self._request(self.base, "POST", "/v1/ingest", body)
        if status == 307 and location:
            self.redirects += 1
            target = urlsplit(location)
            status, _, payload = self._request(target.netloc, "POST", target.path, body)
        return status, payload

    def read(self, path: str, window: str) -> tuple[int, dict]:
        status, _, payload = self._request(self.base, "GET", f"{path}?window={window}", None)
        return status, payload

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()


class Fleet:
    """A real pre-fork fleet over one store, its access logs sent to a file."""

    def __init__(self, store_root: Path, workers: int, log_path: Path) -> None:
        self.supervisor = ClusterSupervisor(
            ClusterConfig(workers=workers, cache_dir=str(store_root))
        )
        # Workers inherit fd 2 at fork: point it at the log for the
        # duration of the fork so access-log lines stay out of stderr.
        saved = os.dup(2)
        try:
            with open(log_path, "ab") as log:
                os.dup2(log.fileno(), 2)
            self.supervisor.start()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        if not self.supervisor.wait_ready(timeout=60):
            self.stop()
            raise RuntimeError("fleet did not become ready within 60 s")

    @property
    def base(self) -> str:
        return f"http://127.0.0.1:{self.supervisor.port}"

    def peak_rss_mb(self) -> float:
        """Sum of the workers' resident-set high-water marks."""
        return sum(peak_rss_mb(pid) for pid in self.supervisor.worker_pids().values())

    def stop(self) -> None:
        self.supervisor.stop()
