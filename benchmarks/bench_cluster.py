"""P2 — cluster benchmark: pre-fork scaling of sharded ingest + scatter-gather.

Boots a real :class:`~repro.cluster.ClusterSupervisor` fleet over a
freshly piped artifact store, drives the shared listening socket with a
mixed ingest/windowed-read workload from client threads, and reports
aggregate throughput at 1 worker and N workers as JSON::

    python benchmarks/bench_cluster.py --out bench-cluster.json

Both throughputs are normalized (requests per calibration unit,
``_ratchet``) and gated against the committed ``BENCH_cluster.json``,
which records the cores of its host.

The script asserts correctness while measuring: every request answers
200, and a windowed scatter-gather answer from the sharded fleet is
bit-identical (areas, flows, ordering included) to a single-process
app fed the identical records.  Scaling assertions (≥0.7× ideal at the
target worker count, ≥2.5× absolute at 4 workers, p99 bound) engage
only when the host actually has that many cores to scale onto.
"""

from __future__ import annotations

import json
import urllib.request

import _ratchet
from _ratchet import cores, drive, percentile

from repro.cluster import ClusterConfig, ClusterSupervisor, HashRing
from repro.data.gazetteer import Scale, areas_for_scale
from repro.pipeline import ArtifactStore, run_suite
from repro.serve import create_app
from repro.synth import SynthConfig

WORKLOAD = {"users": 1_000, "seed": 20150413, "workers": 4, "clients": 8, "requests": 400}

GATED = {"single.requests_per_second": "higher", "fleet.requests_per_second": "higher"}

#: Per-ingest-request batch size (tweets).
BATCH = 20

#: Minimum fraction of ideal (linear) scaling demanded at N workers.
MIN_SCALING_FRACTION = 0.7

#: Absolute aggregate speedup demanded at 4 workers (acceptance bar).
MIN_SPEEDUP_AT_4 = 2.5

#: p99 latency bound under load, engaged with the scaling floors.
MAX_P99_MS = 500.0


def _http(method: str, url: str, body: dict | None = None, timeout: float = 30.0):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode())


def _anchors(n_shards: int) -> list[int]:
    """One user id per shard, so every batch provably spans shards."""
    ring = HashRing(n_shards)
    anchors = []
    for shard in range(n_shards):
        anchors.append(next(u for u in range(100_000) if ring.owner(u) == shard))
    return anchors


def _batch(index: int, anchors: list[int]) -> list[dict]:
    """One mixed ingest batch inside the shared open minute.

    All timestamps land in minute zero so concurrent clients can never
    push a shard's watermark past another client's in-flight tweets.
    """
    records = []
    for j in range(BATCH):
        user = anchors[j % len(anchors)] if j < len(anchors) else index * BATCH + j
        records.append(
            {
                "user_id": user,
                "timestamp": float((index * 7 + j) % 59),
                "lat": -33.87,
                "lon": 151.21,
            }
        )
    return records


def _request(base: str, index: int, anchors: list[int]) -> None:
    """Issue one request from the mix."""
    kind = index % 4
    if kind in (0, 1):
        status, _ = _http("POST", base + "/v1/ingest", {"tweets": _batch(index, anchors)})
    elif kind == 2:
        status, _ = _http("GET", base + "/v1/population?window=0:60")
    else:
        status, _ = _http("GET", base + "/v1/flows?window=0:60")
    if status != 200:
        raise AssertionError(f"request {index} answered {status}")


def _check_consistency(base: str, store: ArtifactStore, n_shards: int) -> None:
    """Sharded scatter-gather must answer bit-identically to one process.

    Disjoint user-id and timestamp ranges from the load phase, so the
    comparison window contains exactly these records on both sides.
    """
    ring = HashRing(max(n_shards, 2))
    users = [
        next(u for u in range(1_000_000, 1_100_000) if ring.owner(u) == shard)
        for shard in range(ring.n_shards)
    ]
    areas = areas_for_scale(Scale.NATIONAL)
    records = []
    for i in range(120):
        center = areas[(i * 5 + i // 7) % len(areas)].center
        records.append(
            {
                "user_id": users[i % len(users)],
                "timestamp": 100_000.0 + i * 13.0,
                "lat": center.lat,
                "lon": center.lon,
            }
        )
    for start in range(0, len(records), 30):
        status, _ = _http("POST", base + "/v1/ingest", {"tweets": records[start : start + 30]})
        assert status == 200, "consistency ingest rejected"

    window = "window=100000:101620"
    status, population = _http("GET", f"{base}/v1/population?{window}")
    assert status == 200
    status, flows = _http("GET", f"{base}/v1/flows?{window}")
    assert status == 200

    reference = create_app(store, poll_interval=0.0, summary_namespace="national-bench-ref")
    status, _, _ = reference.handle("POST", "/v1/ingest", {}, {"tweets": records})
    assert status == 200
    _, single_population, _ = reference.handle(
        "GET", "/v1/population", {"window": "100000:101620"}, None
    )
    _, single_flows, _ = reference.handle(
        "GET", "/v1/flows", {"window": "100000:101620"}, None
    )

    for field in ("tweets", "twitter_population"):
        got = [a[field] for a in population["areas"]]
        want = [a[field] for a in single_population["areas"]]
        assert got == want, f"scatter-gather {field} diverged: {got} != {want}"
    assert flows["flows"] == single_flows["flows"], "scatter-gather flows diverged"
    assert flows["total_trips"] == single_flows["total_trips"]


def run_fleet(
    workers: int, clients: int, requests: int, cache_dir: str, check_consistency: bool
) -> dict:
    """Boot a fleet, hammer it, optionally cross-check answers."""
    config = ClusterConfig(
        workers=workers,
        cache_dir=cache_dir,
        heartbeat_interval=0.5,
        poll_interval=0.0,
    )
    supervisor = ClusterSupervisor(config)
    supervisor.start()
    try:
        assert supervisor.wait_ready(timeout=120), "fleet never warmed up"
        base = f"http://127.0.0.1:{supervisor.port}"
        anchors = _anchors(workers) if workers > 1 else [0, 1]
        latencies, seconds = drive(
            lambda index: _request(base, index, anchors), clients, requests
        )
        if check_consistency:
            _check_consistency(base, ArtifactStore(cache_dir), workers)
    finally:
        supervisor.stop()
    return {
        "workers": workers,
        "clients": clients,
        "requests": requests,
        "load_seconds": round(seconds, 3),
        "requests_per_second": round(requests / max(seconds, 1e-9), 1),
        "p50_ms": round(percentile(latencies, 0.50), 3),
        "p95_ms": round(percentile(latencies, 0.95), 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
        "max_ms": round(latencies[-1], 3),
    }


def run_benchmark(
    users: int,
    seed: int,
    workers: int,
    clients: int,
    requests: int,
    cache_dir: str,
) -> dict:
    """Pipe a corpus, then measure 1 worker vs N workers."""
    store = ArtifactStore(cache_dir)
    store.clear()
    run_suite(
        config=SynthConfig(n_users=users, seed=seed),
        store=store,
        targets=("corpus",),
    )

    single = run_fleet(1, clients, requests, cache_dir, check_consistency=False)
    fleet = run_fleet(workers, clients, requests, cache_dir, check_consistency=True)

    speedup = fleet["requests_per_second"] / max(single["requests_per_second"], 1e-9)
    scaling_fraction = speedup / workers
    summary = {
        "single": single,
        "fleet": fleet,
        "scaling": {
            "speedup": round(speedup, 3),
            "fraction_of_ideal": round(scaling_fraction, 3),
        },
        "consistency": {"scatter_gather_bit_identical": True},
    }

    # Scaling is only a promise the hardware can keep: with fewer
    # cores than workers the fleet time-slices one core and the ratio
    # is meaningless, so the floors arm on capable hosts only.
    if cores() >= workers >= 4:
        assert scaling_fraction >= MIN_SCALING_FRACTION, (
            f"scaling {speedup:.2f}x at {workers} workers is below "
            f"{MIN_SCALING_FRACTION:.0%} of ideal"
        )
        assert speedup >= MIN_SPEEDUP_AT_4, (
            f"aggregate speedup {speedup:.2f}x at {workers} workers "
            f"is below the {MIN_SPEEDUP_AT_4}x acceptance bar"
        )
        assert fleet["p99_ms"] <= MAX_P99_MS, (
            f"p99 {fleet['p99_ms']}ms under load exceeds {MAX_P99_MS}ms"
        )
        summary["scaling"]["floors"] = "enforced"
    else:
        summary["scaling"]["floors"] = f"skipped ({cores()} core(s) for {workers} workers)"
    return summary


def test_cluster_load(tmp_path):
    """Harness entry: small 2-worker fleet benchmark under pytest."""
    summary = run_benchmark(
        **(WORKLOAD | {"users": 400, "workers": 2, "clients": 4, "requests": 80}),
        cache_dir=str(tmp_path),
    )
    print()
    print(json.dumps(summary, indent=2))
    assert summary["consistency"]["scatter_gather_bit_identical"]
    assert summary["single"]["requests_per_second"] > 0
    assert summary["fleet"]["requests_per_second"] > 0
    assert summary["fleet"]["p50_ms"] <= summary["fleet"]["p99_ms"]


if __name__ == "__main__":
    raise SystemExit(
        _ratchet.main("cluster", run_benchmark, WORKLOAD, GATED, cache_dir=True)
    )
