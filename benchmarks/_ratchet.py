"""The ratchet harness shared by the seven system benches.

``bench_check``, ``bench_core``, ``bench_world``, ``bench_cluster``,
``bench_serve``, ``bench_summary`` and ``bench_pipeline`` each declare
their ``WORKLOAD`` defaults and their ``GATED`` metrics, and hand
:func:`main` a ``run_benchmark(**workload)`` that returns raw
measurements.  Everything else lives here, once:

* :func:`calibrate` times a fixed single-threaded hashing loop, so each
  gated metric is also recorded *normalized* (in calibration units) and
  a baseline recorded on one host stays comparable on another;
* :func:`best_of` is min-of-repeats timing, :func:`percentile` a
  nearest-rank latency percentile and :func:`drive` a pool of client
  threads issuing numbered requests;
* :func:`gate` compares each normalized metric with the committed
  ``BENCH_<name>.json``, allowing :data:`SLACK`× regression;
* :func:`main` is the command line: one ``--<key>`` per workload
  default, ``--cache-dir`` for benches that pipe an artifact store, and
  ``--out``.  It exits 1 when the gate fails.

A gated metric is a dotted path into the bench's JSON summary mapped to
the direction that is better: ``"lower"`` for a duration in seconds
(normalized by dividing by the calibration time) or ``"higher"`` for a
rate per second (normalized by multiplying).  The gate compares only
when the run's ``workload`` block equals the baseline's; a run with
other parameters reports ``"not comparable"``.  To re-record a
baseline, run the bench with its defaults and ``--out BENCH_<name>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Allowed regression factor for every gated metric.
SLACK = 2.0

#: Calibration loop: single-threaded blake2b over this many blocks.
CALIBRATION_BLOCKS = 50_000

#: Timing repetitions for :func:`best_of`; the minimum is reported.
REPEATS = 3


def best_of(fn: Callable[[], Any], repeats: int = REPEATS) -> tuple[float, Any]:
    """Minimum wall time of ``fn()`` over ``repeats`` runs, plus its result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _hash_loop() -> bytes:
    payload = b"x" * 4096
    digest = b""
    for _ in range(CALIBRATION_BLOCKS):
        digest = hashlib.blake2b(payload + digest, digest_size=16).digest()
    return digest


def calibrate() -> float:
    """Seconds for a fixed single-threaded hash loop on this machine."""
    return best_of(_hash_loop)[0]


def cores() -> int:
    return len(os.sched_getaffinity(0))


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def drive(
    request: Callable[[int], None], clients: int, requests: int
) -> tuple[list[float], float]:
    """Call ``request(i)`` for every ``i < requests`` from ``clients`` threads.

    Returns the sorted per-request latencies in ms and the wall seconds
    of the whole load.  Any failed request fails the run.
    """
    latencies: list[float] = []
    errors: list[Exception] = []
    lock = threading.Lock()
    counter = iter(range(requests))

    def client() -> None:
        local: list[float] = []
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                break
            start = time.perf_counter()
            try:
                request(index)
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                with lock:
                    errors.append(exc)
                break
            local.append((time.perf_counter() - start) * 1000.0)
        with lock:
            latencies.extend(local)

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    if errors:
        raise AssertionError(
            f"{len(errors)} requests failed; first: {errors[0]!r}"
        ) from errors[0]
    assert len(latencies) == requests, "lost requests"
    return sorted(latencies), seconds


def lookup(summary: dict, path: str) -> float:
    """The number at dotted ``path`` in a bench summary."""
    value: Any = summary
    for key in path.split("."):
        value = value[key]
    return float(value)


def normalize(summary: dict, gated: dict[str, str], calibration_seconds: float) -> dict:
    """Each gated metric in calibration units: durations divide, rates multiply."""
    return {
        path: round(
            lookup(summary, path) / calibration_seconds
            if better == "lower"
            else lookup(summary, path) * calibration_seconds,
            4,
        )
        for path, better in gated.items()
    }


def gate(
    summary: dict, baseline: dict | None, gated: dict[str, str], slack: float = SLACK
) -> dict:
    """The ``gate`` block: each normalized gated metric against the baseline's.

    ``status`` is ``"passed"``, ``"failed"`` (with one message per
    regressed metric under ``failures``), ``"not comparable"`` when the
    workloads differ, or ``"no baseline"``.  A gated metric the baseline
    does not hold yet (the bench added it) is reported with status
    ``"new"`` and no baseline value; the others are still gated.
    """
    if baseline is None:
        return {"status": "no baseline"}
    if baseline.get("workload") != summary["workload"]:
        return {"status": "not comparable", "baseline_workload": baseline.get("workload")}
    metrics = {}
    failures = []
    for path, better in gated.items():
        measured = summary["normalized"][path]
        base = baseline["normalized"].get(path)
        if base is None:
            metrics[path] = {"better": better, "measured": measured, "status": "new"}
            continue
        if better == "lower":
            allowed, ok, side = base * slack, measured <= base * slack, "above"
        else:
            allowed, ok, side = base / slack, measured >= base / slack, "below"
        metrics[path] = {
            "better": better,
            "baseline": base,
            "measured": measured,
            "allowed": round(allowed, 4),
        }
        if not ok:
            failures.append(
                f"{path} measured {measured} is {side} the allowed {allowed:.4f} "
                f"(normalized; baseline {base}, slack {slack}x)"
            )
    block: dict = {"status": "failed" if failures else "passed", "slack": slack}
    if failures:
        block["failures"] = failures
    block["metrics"] = metrics
    return block


def main(
    name: str,
    run_benchmark: Callable[..., dict],
    workload: dict,
    gated: dict[str, str],
    argv: list[str] | None = None,
    *,
    cache_dir: bool = False,
) -> int:
    """Run one system bench from the command line and gate it."""
    doc = sys.modules[run_benchmark.__module__].__doc__ or name
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    for key, default in workload.items():
        parser.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    if cache_dir:
        parser.add_argument("--cache-dir", help="benchmark cache root (default: a temp dir)")
    parser.add_argument("--out", help="write the JSON summary here (else stdout)")
    args = parser.parse_args(argv)

    params = {key: getattr(args, key) for key in workload}
    # Calibrating on both sides of the run and keeping the faster one
    # stops a stall on a shared host from skewing every normalized
    # figure of the run.
    calibration_seconds = calibrate()
    with contextlib.ExitStack() as stack:
        options = {}
        if cache_dir:
            options["cache_dir"] = args.cache_dir or stack.enter_context(
                tempfile.TemporaryDirectory(prefix=f"repro-bench-{name}-")
            )
        body = run_benchmark(**params, **options)
    calibration_seconds = min(calibration_seconds, calibrate())

    summary = {
        "machine": {"cores": cores(), "calibration_seconds": round(calibration_seconds, 4)},
        "workload": params,
        **body,
    }
    summary["normalized"] = normalize(summary, gated, calibration_seconds)
    baseline_path = REPO_ROOT / f"BENCH_{name}.json"
    baseline = (
        json.loads(baseline_path.read_text(encoding="utf-8"))
        if baseline_path.exists()
        else None
    )
    summary["gate"] = gate(summary, baseline, gated)
    text = json.dumps(summary, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    for failure in summary["gate"].get("failures", ()):
        print(f"{baseline_path.name} gate failed: {failure}", file=sys.stderr)
    return 1 if summary["gate"]["status"] == "failed" else 0
