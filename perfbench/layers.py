"""Per-layer tracing from outside the program.

:class:`LayerProbe` wraps each layer's public entry point *where its
caller looks it up* (``repro.summary.store.label_points``, a class
attribute such as ``SummaryStore.query``, ...) with a span on a private
:class:`repro.obs.Tracer`, and counts work at the same boundaries.
Nothing in ``src/`` is edited; leaving the probe restores every
original.  Spans stay in memory and are written once, as a Chrome
trace, when the run ends.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover; a layer's *total* time sums its
outermost spans.  Time inside the measured phase that no span covers is
the unattributed remainder (the benchmark's own request loop).
"""

from __future__ import annotations

import functools
import os
import threading
from collections import Counter
from dataclasses import dataclass

from repro import obs
from repro.cluster import ShardRouter
from repro.cluster import router as cluster_router
from repro.core.accumulate import PopulationAccumulator
from repro.epidemic import interventions
from repro.experiments import scales
from repro.extraction import mobility, od_time, population
from repro.models.gravity import GravityModel
from repro.pipeline import graphs
from repro.pipeline.store import ArtifactStore
from repro.serve import EstimationApp
from repro.serve import ingest as serve_ingest
from repro.stream import online
from repro.stream.monitor import MobilityMonitor
from repro.stream.online import OnlineMobilityCounter
from repro.summary import store as summary_store
from repro.summary.store import SummaryStore
from repro.summary.tiers import SummaryBucket

from perfbench import clients


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: where it is looked up and what it measures."""

    owner: object
    attr: str
    span: str
    count: str | None = None  # counter bumped per call (see _count)


#: Span name → per-layer metric reported as the span's *self* time.
SELF_METRICS = {
    "serve.handle": "serve.handle_self_s",
    "stream.monitor": "stream.monitor_self_s",
    "summary.ingest": "summary.ingest_self_s",
    "cluster.route_ingest": "cluster.route_ingest_s",
    "cluster.gather": "cluster.gather_s",
}

#: Span name → per-layer metric reported as the span's *total* time.
TOTAL_METRICS = {
    "data.parse": "data.parse_s",
    "serve.encode": "serve.encode_s",
    "stream.counter_push": "stream.counter_push_s",
    "models.gravity_fit": "models.gravity_fit_s",
    "geo.pairwise_distance": "geo.pairwise_distance_s",
    "core.label_points": "core.label_points_s",
    "core.membership_points": "core.membership_points_s",
    "core.accumulate_merge": "core.accumulate_merge_s",
    "summary.rollup": "summary.rollup_s",
    "summary.query": "summary.query_s",
    "pipeline.store_put": "pipeline.store_put_s",
    "pipeline.store_record_key": "pipeline.store_record_key_s",
    "cluster.merge": "cluster.merge_s",
    "synth.generate": "synth.generate_s",
    "core.label_corpus": "core.label_corpus_s",
    "core.count_population": "core.count_population_s",
    "extraction.od_flows": "extraction.od_flows_s",
    "epidemic.simulate": "epidemic.simulate_s",
}

LAYERS = (
    Layer(serve_ingest, "parse_tweet_record", "data.parse"),
    Layer(EstimationApp, "handle", "serve.handle"),
    Layer(clients, "encode_response", "serve.encode"),
    Layer(MobilityMonitor, "push_batch", "stream.monitor"),
    Layer(OnlineMobilityCounter, "push_batch", "stream.counter_push"),
    Layer(GravityModel, "fit", "models.gravity_fit", count="models.fits"),
    Layer(mobility, "pairwise_distance_matrix", "geo.pairwise_distance"),
    Layer(online, "label_points", "core.label_points", count="core.points_labelled"),
    Layer(online, "membership_points", "core.membership_points", count="core.points_labelled"),
    Layer(summary_store, "label_points", "core.label_points", count="core.points_labelled"),
    Layer(summary_store, "membership_points", "core.membership_points", count="core.points_labelled"),
    Layer(PopulationAccumulator, "merge", "core.accumulate_merge"),
    Layer(SummaryStore, "ingest_labelled", "summary.ingest"),
    Layer(SummaryBucket, "rolled_up", "summary.rollup"),
    Layer(SummaryStore, "query", "summary.query", count="summary.tiles_queried"),
    Layer(ArtifactStore, "put", "pipeline.store_put", count="pipeline.store_bytes"),
    Layer(ArtifactStore, "record_key", "pipeline.store_record_key"),
    Layer(ShardRouter, "route_ingest", "cluster.route_ingest", count="cluster.forwarded_tweets"),
    Layer(ShardRouter, "gather_population", "cluster.gather"),
    Layer(ShardRouter, "gather_flows", "cluster.gather"),
    Layer(cluster_router, "merge_population_payloads", "cluster.merge"),
    Layer(cluster_router, "merge_flows_payloads", "cluster.merge"),
    Layer(graphs, "generate_corpus", "synth.generate"),
    Layer(population, "label_corpus", "core.label_corpus"),
    Layer(population, "count_population", "core.count_population"),
    Layer(scales, "extract_od_flows", "extraction.od_flows"),
    Layer(od_time, "extract_od_flows", "extraction.od_flows"),
    Layer(interventions, "simulate_seir", "epidemic.simulate"),
    Layer(interventions, "simulate_with_immunity", "epidemic.simulate"),
)


def _count(name: str, args: tuple, result) -> float:
    """Work units one call contributes to counter ``name``."""
    if name == "core.points_labelled":
        return len(args[1])  # (world, lats, lons)
    if name == "summary.tiles_queried":
        return result.buckets_touched
    if name == "pipeline.store_bytes":
        store = args[0]
        return os.path.getsize(store.objects_dir / f"{result}.pkl")
    if name == "cluster.forwarded_tweets":
        status, payload = result
        return sum(payload.get("routing", {}).get("forwarded", {}).values()) if status == 200 else 0
    return 1


class _ParentingPool:
    """Executor proxy: tasks open their spans under the submitter's span.

    The router fans peer legs out on its own thread pool; without this
    the spans those threads open would be roots, and the gather or
    route span would wrongly keep their time as its own.
    """

    def __init__(self, pool, tracer: obs.Tracer) -> None:
        self._pool = pool
        self._tracer = tracer

    def submit(self, fn, *args, **kwargs):
        parent = self._tracer.current_span_id()

        def run():
            self._tracer.set_thread_parent(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                self._tracer.set_thread_parent(None)

        return self._pool.submit(run)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


class LayerProbe:
    """Context manager installing every :data:`LAYERS` wrapper."""

    def __init__(self) -> None:
        self.tracer = obs.Tracer(run_id="perfbench")
        self.counts: Counter = Counter()
        # Router fan-out threads count concurrently with the caller.
        self._counts_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn):
        tracer, counts, lock = self.tracer, self.counts, self._counts_lock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with tracer.span(layer.span):
                result = fn(*args, **kwargs)
            if layer.count is not None:
                work = _count(layer.count, args, result)
                with lock:
                    counts[layer.count] += work
            return result

        return timed

    def __enter__(self) -> LayerProbe:
        for layer in LAYERS:
            if isinstance(layer.owner, type):
                original = layer.owner.__dict__[layer.attr]
            else:
                original = getattr(layer.owner, layer.attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(layer, original.__func__))
            else:
                wrapped = self._wrap(layer, original)
            self._restore.append((layer.owner, layer.attr, original))
            setattr(layer.owner, layer.attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def adopt_router(self, router: ShardRouter) -> None:
        """Parent the spans of ``router``'s fan-out threads correctly."""
        router._pool = _ParentingPool(router._pool, self.tracer)

    def spans(self) -> list[dict]:
        return self.tracer.to_dicts()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_times(spans: list[dict], phase: tuple[float, float]) -> tuple[dict, dict, float]:
    """``(self_s, total_s, unattributed_s)`` per span name over ``phase``.

    ``phase`` is the ``(start, end)`` epoch interval of the measured
    work; the remainder is the part of it no root span covers.
    """
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent_id"] in by_id:
            children.setdefault(span["parent_id"], []).append(span)

    def interval(span: dict) -> tuple[float, float]:
        return span["start_wall"], span["start_wall"] + span["wall_s"]

    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for span in spans:
        start, end = interval(span)
        kids = [
            (max(start, a), min(end, b))
            for a, b in map(interval, children.get(span["span_id"], []))
            if b > start and a < end
        ]
        self_s[span["name"]] += max(0.0, span["wall_s"] - _covered(kids))
        ancestor = by_id.get(span["parent_id"])
        while ancestor is not None and ancestor["name"] != span["name"]:
            ancestor = by_id.get(ancestor["parent_id"])
        if ancestor is None:
            total_s[span["name"]] += span["wall_s"]
    roots = [interval(s) for s in spans if s["parent_id"] not in by_id]
    unattributed = max(0.0, (phase[1] - phase[0]) - _covered(roots))
    return dict(self_s), dict(total_s), unattributed
