"""P2 — serving benchmark: threaded load against the estimation service.

Boots the HTTP service in-process over a freshly piped artifact store,
then drives it with a pool of client threads issuing a fixed request
mix (population reads, flow reads, batch predictions, health checks)
and reports throughput plus client-observed p50/p95/p99 latency as
JSON (stdout or ``--out``)::

    python benchmarks/bench_serve.py --out bench-serve.json

The throughput is normalized (requests per calibration unit,
``_ratchet``) and gated against the committed ``BENCH_serve.json``.
The script asserts the serving guarantees while measuring: every
request answers 200, the server's own request counters agree with the
number of requests sent, and the GET response cache absorbs repeated
reads.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import _ratchet
from _ratchet import drive, percentile

from repro.pipeline import ArtifactStore, run_suite
from repro.serve import create_app, create_server
from repro.synth import SynthConfig

WORKLOAD = {"users": 1_000, "seed": 20150413, "workers": 4, "requests": 400}

GATED = {"requests_per_second": "higher"}

#: The request mix, cycled per request index.
PREDICT_BODY = json.dumps(
    {
        "scale": "national",
        "model": "gravity2",
        "pairs": [
            {"origin": "Sydney", "dest": "Melbourne"},
            {"origin": "Melbourne", "dest": "Brisbane"},
            {"origin": "Perth", "dest": "Adelaide"},
            {"origin": "Brisbane", "dest": "Sydney"},
        ],
    }
).encode("utf-8")


def _request(base: str, index: int) -> None:
    """Issue one request from the mix."""
    kind = index % 4
    if kind == 0:
        request = urllib.request.Request(base + "/v1/population?scale=national")
    elif kind == 1:
        request = urllib.request.Request(base + "/v1/flows?scale=national&origin=Sydney")
    elif kind == 2:
        request = urllib.request.Request(
            base + "/v1/predict",
            data=PREDICT_BODY,
            headers={"Content-Type": "application/json"},
        )
    else:
        request = urllib.request.Request(base + "/healthz")
    with urllib.request.urlopen(request, timeout=30) as response:
        response.read()
        if response.status != 200:
            raise AssertionError(f"request {index} answered {response.status}")


def run_benchmark(
    users: int,
    seed: int,
    workers: int,
    requests: int,
    cache_dir: str,
) -> dict:
    """Pipe a corpus, boot the service, hammer it, report latencies."""
    store = ArtifactStore(cache_dir)
    store.clear()
    pipe_start = time.perf_counter()
    run_suite(
        config=SynthConfig(n_users=users, seed=seed),
        store=store,
        targets=("corpus",),
    )
    pipe_seconds = time.perf_counter() - pipe_start

    boot_start = time.perf_counter()
    app = create_app(store, poll_interval=3600.0)
    server = create_server("127.0.0.1", 0, app, access_log_file=None)
    boot_seconds = time.perf_counter() - boot_start
    base = f"http://127.0.0.1:{server.port}"
    threading.Thread(target=server.serve_forever, daemon=True).start()

    try:
        latencies, load_seconds = drive(
            lambda index: _request(base, index), workers, requests
        )
    finally:
        # Drain handler threads before reading counters: a handler
        # records its observation after writing the response bytes the
        # client saw.
        server.shutdown()
        server.server_close()
    metrics = app.metrics.snapshot()

    served = sum(e["requests"] for e in metrics["endpoints"].values())
    assert served == requests, f"server counted {served} of {requests} requests"
    cache = metrics["endpoints"]["GET /v1/population"]
    assert cache["cache_hits"] > 0, "response cache never hit"

    return {
        "pipeline_seconds": round(pipe_seconds, 3),
        "boot_seconds": round(boot_seconds, 3),
        "load_seconds": round(load_seconds, 3),
        "requests_per_second": round(requests / max(load_seconds, 1e-9), 1),
        "p50_ms": round(percentile(latencies, 0.50), 3),
        "p95_ms": round(percentile(latencies, 0.95), 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
        "max_ms": round(latencies[-1], 3),
        "response_cache_hits": sum(
            e["cache_hits"] for e in metrics["endpoints"].values()
        ),
        "server_errors": sum(
            e["errors_4xx"] + e["errors_5xx"] for e in metrics["endpoints"].values()
        ),
    }


def test_serve_load(tmp_path):
    """Harness entry: small-scale load benchmark under pytest."""
    summary = run_benchmark(
        **(WORKLOAD | {"users": 800, "requests": 200}), cache_dir=str(tmp_path)
    )
    print()
    print(json.dumps(summary, indent=2))
    assert summary["server_errors"] == 0
    assert summary["requests_per_second"] > 0
    assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]


if __name__ == "__main__":
    raise SystemExit(
        _ratchet.main("serve", run_benchmark, WORKLOAD, GATED, cache_dir=True)
    )
