"""P1 — pipeline caching and parallelism benchmark.

Measures three full experiment-suite runs over one configuration:

* **cold**   — empty artifact store, serial (``jobs=1``): every task
  body executes;
* **scenario cold** — then, on the same store, a cold ``run_comparison``
  of ``baseline``, ``lockdown-hard`` and ``vaccination-centrality``:
  the corpus and index are cache hits, the network and the three SEIR
  scenario runs execute;
* **warm**   — same store again: every task must be a cache hit and
  zero bodies may execute;
* **parallel** — fresh store, ``--jobs N``: sharded generation plus
  process-parallel artefact nodes.

Emits a JSON summary (stdout or ``--out``), e.g.::

    python benchmarks/bench_pipeline.py --out bench-pipeline.json

The cold-run and cold-scenario times are normalized (``_ratchet``) and
gated against the committed ``BENCH_pipeline.json``.

The script asserts the acceptance guarantees while measuring: the warm
run executes zero task bodies and is faster than the cold run, the
parallel run's corpus digest equals the serial run's (bit-identical
sharded generation), the default workload's corpus digest equals
``WORKLOAD_CORPUS_DIGEST`` (bit-identical generation across changes),
and the observability hooks cost under 2% of the
cold run when tracing is disabled (``disabled_overhead_pct``).
"""

from __future__ import annotations

import json
import time

import _ratchet

from repro import obs
from repro.pipeline import ArtifactStore, run_suite
from repro.scenario import named_scenario, run_comparison
from repro.synth import SynthConfig

WORKLOAD = {"users": 25_000, "seed": 20150413, "jobs": 4}

GATED = {"cold_seconds": "lower", "scenario_cold_seconds": "lower"}

#: ``corpus_digest`` of the ``WORKLOAD`` corpus.  Generation is held bit
#: for bit: a change that moves one random draw fails the bench here.
WORKLOAD_CORPUS_DIGEST = "106b6018fa132b7a95113865d909ddd8"

#: The comparison timed cold after the suite (the one perfbench's
#: pipeline-cold workload runs).
SCENARIOS = ("baseline", "lockdown-hard", "vaccination-centrality")

#: Acceptance ceiling for the cost of disabled observability hooks.
MAX_DISABLED_OVERHEAD_PCT = 2.0


def _timed_run(config: SynthConfig, store: ArtifactStore, jobs: int):
    start = time.perf_counter()
    _, run = run_suite(config=config, store=store, jobs=jobs)
    return time.perf_counter() - start, run


class _ObsCallCounter:
    """Counts ``obs.span`` / ``obs.counter`` invocations while active.

    The shim adds one integer increment per call — orders of magnitude
    below the cost it is there to tally — so the cold timing it wraps
    stays representative.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._real_span = None
        self._real_counter = None

    def __enter__(self):
        self._real_span = obs.span
        self._real_counter = obs.counter

        def counting_span(name, **attrs):
            self.calls += 1
            return self._real_span(name, **attrs)

        def counting_counter(name, delta=1):
            self.calls += 1
            return self._real_counter(name, delta)

        obs.span = counting_span
        obs.counter = counting_counter
        return self

    def __exit__(self, *exc_info):
        obs.span = self._real_span
        obs.counter = self._real_counter
        return False


def _disabled_call_seconds(iterations: int = 100_000) -> float:
    """Mean cost of one observability call with no tracer installed."""
    previous = obs.install(None)
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("bench.noop"):
                pass
            obs.counter("bench.noop")
        elapsed = time.perf_counter() - start
    finally:
        obs.install(previous)
    return elapsed / (2 * iterations)


def run_benchmark(users: int, seed: int, jobs: int, cache_dir: str) -> dict:
    """Cold vs warm vs parallel timings plus manifest-derived counters."""
    config = SynthConfig(n_users=users, seed=seed)

    cold_store = ArtifactStore(cache_dir + "/cold")
    cold_store.clear()
    with _ObsCallCounter() as obs_calls:
        cold_seconds, cold = _timed_run(config, cold_store, jobs=1)
    scenarios = tuple(
        named_scenario(name).with_overrides(users=users, seed=seed) for name in SCENARIOS
    )
    start = time.perf_counter()
    _, comparison = run_comparison(scenarios, store=cold_store)
    scenario_cold_seconds = time.perf_counter() - start
    warm_seconds, warm = _timed_run(config, cold_store, jobs=1)

    parallel_store = ArtifactStore(cache_dir + "/parallel")
    parallel_store.clear()
    parallel_seconds, parallel = _timed_run(config, parallel_store, jobs=jobs)

    per_call_seconds = _disabled_call_seconds()
    overhead_pct = (
        obs_calls.calls * per_call_seconds / max(cold_seconds, 1e-9) * 100.0
    )

    assert warm.manifest.executed == 0, "warm run executed task bodies"
    ran = {record.name for record in comparison.manifest.records if record.status == "run"}
    assert {f"scenario-{name}" for name in SCENARIOS} <= ran, "scenario runs were not cold"
    assert warm_seconds < cold_seconds, "warm run not faster than cold"
    assert parallel.digests["corpus"] == cold.digests["corpus"], (
        "sharded corpus differs from serial corpus"
    )
    if (users, seed) == (WORKLOAD["users"], WORKLOAD["seed"]):
        assert cold.digests["corpus"] == WORKLOAD_CORPUS_DIGEST, (
            f"corpus digest {cold.digests['corpus']} differs from the committed "
            f"{WORKLOAD_CORPUS_DIGEST}: generation is no longer bit-identical"
        )
    assert overhead_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"disabled observability overhead {overhead_pct:.3f}% exceeds "
        f"{MAX_DISABLED_OVERHEAD_PCT}%"
    )

    return {
        "cold_seconds": round(cold_seconds, 3),
        "scenario_cold_seconds": round(scenario_cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "cold_tasks_executed": cold.manifest.executed,
        "scenario_tasks_executed": comparison.manifest.executed,
        "warm_tasks_executed": warm.manifest.executed,
        "warm_cache_hits": warm.manifest.hits,
        "parallel_tasks_executed": parallel.manifest.executed,
        "warm_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
        "parallel_speedup": round(cold_seconds / max(parallel_seconds, 1e-9), 2),
        "corpus_digest": cold.digests["corpus"],
        "sharded_corpus_identical": True,
        "obs_calls_cold_run": obs_calls.calls,
        "disabled_obs_ns_per_call": round(per_call_seconds * 1e9, 1),
        "disabled_overhead_pct": round(overhead_pct, 4),
    }


def test_pipeline_cold_warm_parallel(tmp_path):
    """Harness entry: small-scale cold/warm/parallel benchmark.

    Uses a corpus an order of magnitude below the CLI default so the
    whole check stays in the seconds range under pytest.
    """
    summary = run_benchmark(
        **(WORKLOAD | {"users": 3_000, "jobs": 2}), cache_dir=str(tmp_path)
    )
    print()
    print(json.dumps(summary, indent=2))
    assert summary["warm_tasks_executed"] == 0
    assert summary["warm_seconds"] < summary["cold_seconds"]
    assert summary["sharded_corpus_identical"]
    assert summary["obs_calls_cold_run"] > 0
    assert summary["disabled_overhead_pct"] < MAX_DISABLED_OVERHEAD_PCT


if __name__ == "__main__":
    raise SystemExit(
        _ratchet.main("pipeline", run_benchmark, WORKLOAD, GATED, cache_dir=True)
    )
