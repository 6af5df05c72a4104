"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload ingest-paper --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no tracing over the workload's replicas of a fixed amount
of work (``--seconds`` only caps the run); ``--trace 1`` runs three
replicas — untraced, traced through :class:`perfbench.layers.LayerProbe`,
untraced — and reports per-layer metrics, the unattributed remainder
and the tracing overhead, and writes a Chrome trace to
``.perfbench/traces/``.  The last stdout line is the result object; the
line before it is a run record (host, tails, failures).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 20_260_101

END_TO_END = {
    "setup_s": "s",
    "ingest_tweets_per_s": "tweets/s",
    "ingest_batch_p50_ms": "ms",
    "ingest_batch_tail_ms": "ms",
    "population_read_p50_ms": "ms",
    "population_read_tail_ms": "ms",
    "flows_read_p50_ms": "ms",
    "flows_read_tail_ms": "ms",
    "pipeline_cold_s": "s",
    "scenario_cold_s": "s",
    "peak_rss_mb": "MB",
}

PIPELINE_TASKS = (
    "corpus", "index", "table1", "fig1", "fig2", "fig3", "fig4", "table2",
    "network", "scenario-baseline", "scenario-lockdown-hard",
    "scenario-vaccination-centrality", "compare",
)

COUNTS = (
    "stream.checks", "models.fits", "core.points_labelled", "summary.tiles_finalized",
    "pipeline.store_writes", "pipeline.store_bytes", "cluster.forwarded_tweets",
    "cluster.redirects", "serve.cache_hits", "pipeline.warm_executed", "trace.spans",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from perfbench.layers import SELF_METRICS, TOTAL_METRICS

    units = {name: "s" for name in (*SELF_METRICS.values(), *TOTAL_METRICS.values())}
    units.update({f"pipeline.task.{task}_s": "s" for task in PIPELINE_TASKS})
    units.update({name: "count" for name in COUNTS})
    units.update({
        "serve.cache_hit_ratio": "ratio",
        "summary.tiles_per_query": "tiles",
        "cluster.shard_skew": "ratio",
        "cluster.transport_share": "ratio",
        "pipeline.warm_s": "s",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


def nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """``(value, samples beyond it)`` at ``percentile`` by nearest rank."""
    ordered = sorted(values)
    index = max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
    return ordered[index], len(ordered) - index - 1


def host_record(store_path: Path) -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    real = os.path.realpath(store_path)
    mount = ("?", "?")
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            _, point, fstype = line.split()[:3]
            inside = real == point or real.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(mount[0]):
                mount = (point, fstype)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "store_filesystem": mount[1],
        "store_mount": mount[0],
        "store_fsync": False,
        "held_out_seed": HELD_OUT_SEED,
    }


def end_to_end(workload, out, tails: dict) -> dict:
    """Every end-to-end metric from one untraced run's replicas."""
    from perfbench.workloads import combine

    reps = out.replicas
    samples = {
        op: combine([rep.scaled(op) for rep in reps])
        for op in ("ingest", "population", "flows")
    }
    values = {
        "setup_s": statistics.median(s for rep in reps for s in rep.setup_s),
        "ingest_tweets_per_s": reps[0].tweets / max(sum(samples["ingest"]) / 1000.0, 1e-9),
        "pipeline_cold_s": statistics.median(rep.pipeline_s for rep in reps),
        "scenario_cold_s": statistics.median(rep.scenario_s for rep in reps),
        "peak_rss_mb": statistics.median(rep.peak_rss_mb for rep in reps),
    }
    prefix = {"ingest": "ingest_batch", "population": "population_read", "flows": "flows_read"}
    for op, series in samples.items():
        percentile = workload.tails[op]
        if not series:
            out.op(False, f"no {op} samples")
            series = [0.0]
        value, beyond = nearest_rank(series, percentile)
        out.op(beyond >= 10, f"{op} p{percentile} has {beyond} samples beyond it, needs 10")
        tails[op] = {"percentile": percentile, "samples": len(series), "beyond": beyond}
        values[f"{prefix[op]}_p50_ms"] = statistics.median(series)
        values[f"{prefix[op]}_tail_ms"] = value
    return values


def traced(workload, out, trace_path: Path) -> dict:
    """Three replicas, untraced, traced, untraced; returns per-layer metrics."""
    from perfbench import layers, workloads

    fleet = isinstance(workload, workloads.ServeFleet)
    if fleet:
        # The workers are forked, out of the probe's reach: time one HTTP
        # replica for the transport share, then replay the mix in-process.
        workload.replica(out, -1)
        http = out.replica
        workload.in_process = True

    # Untraced replicas before and after the traced one, so warm-up and
    # drift during the run do not land on the tracing overhead.
    probe = layers.LayerProbe()
    workload.replica(out, 0)
    workload.replica(out, 1, probe)
    workload.replica(out, 2)
    before, rep, after = out.replicas[-3:]
    wall_untraced = (before.wall_s + after.wall_s) / 2

    spans = probe.spans()
    from repro.obs import write_chrome_trace

    write_chrome_trace(spans, trace_path, run_id=f"perfbench-{workload.name}")
    self_s, total_s, unattributed = layers.layer_times(spans, rep.phase)
    metrics = {name: 0.0 for name in per_layer_units()}
    for span, name in layers.SELF_METRICS.items():
        metrics[name] = self_s.get(span, 0.0)
    for span, name in layers.TOTAL_METRICS.items():
        metrics[name] = total_s.get(span, 0.0)
    if workload.TRACE_PIPELINE:
        for task, task_seconds in rep.task_s.items():
            metrics[f"pipeline.task.{task}_s"] = task_seconds
    names = [span["name"] for span in spans]
    stats = rep.stats
    metrics.update({
        "models.fits": probe.counts["models.fits"],
        "core.points_labelled": probe.counts["core.points_labelled"],
        "pipeline.store_bytes": probe.counts["pipeline.store_bytes"],
        "pipeline.store_writes": names.count("pipeline.store_put") + names.count("pipeline.store_record_key"),
        "cluster.forwarded_tweets": probe.counts["cluster.forwarded_tweets"],
        "cluster.redirects": stats["redirects"],
        "cluster.shard_skew": stats["shard_skew"],
        "summary.tiles_per_query": probe.counts["summary.tiles_queried"] / max(names.count("summary.query"), 1),
        "summary.tiles_finalized": stats["tiles_finalized"],
        "stream.checks": stats["checks"],
        "serve.cache_hits": stats["cache_hits"],
        "serve.cache_hit_ratio": stats["cache_hits"] / max(stats["cache_lookups"], 1),
        "pipeline.warm_s": rep.warm_s,
        "pipeline.warm_executed": rep.warm_executed,
        "trace.spans": len(spans),
        "trace.wall_s": rep.wall_s,
        "trace.untraced_wall_s": wall_untraced,
        "trace.overhead_s": rep.wall_s - wall_untraced,
        "trace.unattributed_s": unattributed,
    })
    if fleet:
        ops = ("ingest_ms", "population_ms", "flows_ms")
        http_p50 = sum(statistics.median(ms for _, ms in getattr(http, op)) for op in ops)
        local_p50 = sum(statistics.median(ms for _, ms in getattr(before, op)) for op in ops)
        metrics["cluster.transport_share"] = 1.0 - local_p50 / http_p50
    print_layer_table(workload.name, self_s, metrics, rep.wall_s)
    return metrics


def print_layer_table(name: str, self_s: dict, metrics: dict, wall: float) -> None:
    lines = [f"{name}: self time per layer over a {wall:.3f} s traced pass"]
    for span, seconds in sorted(self_s.items(), key=lambda item: -item[1]):
        lines.append(f"  {span:<28s} {seconds:9.4f} s  {100 * seconds / wall:5.1f}%")
    lines.append(f"  {'(unattributed)':<28s} {metrics['trace.unattributed_s']:9.4f} s")
    lines.append(
        f"  tracing overhead: {metrics['trace.overhead_s']:+.4f} s "
        f"(untraced {metrics['trace.untraced_wall_s']:.3f} s)"
    )
    print("\n".join(lines), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")

    bench_dir = ROOT / ".perfbench"
    work_dir = bench_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    out = workloads.Outcome()
    tails: dict = {}
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            trace_path = bench_dir / "traces" / f"{args.workload}.json"
            metrics = traced(workload, out, trace_path)
            units = per_layer_units()
        else:
            workload.measure(out, args.seconds)
            metrics = end_to_end(workload, out, tails)
            units = END_TO_END
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host_record(work_dir),
            "tails": tails,
            "failures": out.failures[:10],
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
