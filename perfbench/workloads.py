"""The four workloads: replicas of a fixed amount of work, and checks.

A run is a few *replicas* of the same fixed work, one after another:

1. **Prepare**, on an empty artifact store: a cold ``run_suite`` and a
   cold ``run_comparison`` (the serving registry needs a pipeline run —
   windowed reads answer 503 without one), then the service bring-ups
   that ``setup_s`` times.
2. **Traffic**: the workload's fixed sequence of ingest batches and
   reads, so the state every read sees is the same in every run and on
   every commit.
3. **Checks**: answers against from-scratch recomputes.

The shared host this was tuned on runs the same code up to twice as
slowly for seconds at a time.  Two things take that out of the
figures.  Every time taken in the benchmark process is scaled to the
reference host's speed by :class:`HostSpeed`, a fixed loop timed next
to it.  And every replica sends the same operations against the same
state, so operation *i* has one latency per replica and the run reports,
per operation, the median over the replicas (likewise the median cold
pipeline run), which drops a replica caught in a spell the scaling
missed.  Workloads differ in world, transport and where the time goes.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.label import label_corpus, membership_points
from repro.data.gazetteer import Scale
from repro.pipeline import ArtifactStore, run_suite
from repro.scenario import named_scenario, run_comparison
from repro.serve import EstimationApp, create_app
from repro.synth import SynthConfig

from perfbench.clients import (
    AppClient, Fleet, HttpClient, LocalFleet, peak_rss_mb, reset_peak_rss,
)
from perfbench.inputs import DAY0, Stream, WindowMix

POPULATION = "/v1/population"
FLOWS = "/v1/flows"

#: Corpus users behind every pipeline run (at 2000 users the state-scale
#: fits succeeded on 30 of 30 seeds tried; below ~800 some seeds fail).
PIPE_USERS = 2_500

#: Corpus seeds for pipeline runs; ``--seed`` picks one.  A corpus's
#: size is heavy-tailed in its seed (15k to 49k tweets at 2500 users),
#: which would swamp any code change, so the pool holds the seeds in
#: 1..160 whose corpora lie within 3 % of the median (~30k tweets).
PIPE_SEEDS = (13, 26, 32, 33, 44, 62, 83, 86, 97, 103, 113, 133, 142)

#: Scenarios of every comparison run.
SCENARIOS = ("baseline", "lockdown-hard", "vaccination-centrality")

#: Service bring-ups per replica; all but the last are retired at once.
BRING_UPS = 3

#: A run starts no further replica once it has spent this many times
#: ``--seconds``, and counts that as a failure.
OVERRUN = 3.0

#: Fleet size: one worker per core of the 2-core reference host.
FLEET_WORKERS = 2

#: Time of :func:`speed_loop` on the reference host; times taken in the
#: benchmark process are scaled by this over the loop's local time.
REFERENCE_LOOP_S = 0.001

#: In-process traffic samples the host's speed at most this often.
SPEED_EVERY_S = 0.05


def speed_loop() -> float:
    """A fixed ~1 ms mix of interpreter, NumPy and JSON work."""
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += (i * 1.5) % 7
    values = np.arange(4096.0)
    for _ in range(16):
        values = np.sqrt(values * values + 1.0)
    json.dumps(counts)
    return total


class HostSpeed:
    """Times :func:`speed_loop` now and then, to scale nearby timings.

    On a shared host the same code runs up to twice as slowly for
    seconds at a time.  A timing taken at ``at`` is scaled by
    :data:`REFERENCE_LOOP_S` over the median loop time of the four
    samples around ``at``, which takes most of that swing out.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.loop_s: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            speed_loop()
            ended = time.perf_counter()
            self.at.append((started + ended) / 2)
            self.loop_s.append(ended - started)

    def tick(self) -> None:
        """Sample unless the last sample is recent."""
        if not self.at or time.perf_counter() - self.at[-1] >= SPEED_EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        index = bisect.bisect(self.at, at)
        near = self.loop_s[max(0, index - 2) : index + 2]
        return REFERENCE_LOOP_S / statistics.median(near) if near else 1.0

    def timed(self, fn, *args, **kwargs):
        """``(result, scaled seconds)`` of one call, sampled around it."""
        self.sample(2)
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        self.sample(2)
        return result, elapsed * self.scale(started + elapsed / 2)


def combine(series: list[list[float]]) -> list[float]:
    """Per operation, the median of its replicas' scaled latencies."""
    return [statistics.median(latencies) for latencies in zip(*series)]


@dataclass
class Replica:
    """What one replica measured.

    Operation samples are ``(perf_counter at start, milliseconds)``.
    """

    ingest_ms: list[tuple[float, float]] = field(default_factory=list)
    population_ms: list[tuple[float, float]] = field(default_factory=list)
    flows_ms: list[tuple[float, float]] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    tweets: int = 0
    setup_s: list[float] = field(default_factory=list)
    pipeline_s: float = 0.0
    scenario_s: float = 0.0
    task_s: dict[str, float] = field(default_factory=dict)
    warm_s: float = 0.0
    warm_executed: int = 0
    peak_rss_mb: float = 0.0
    #: Wall and epoch interval of the part a traced pass traces.
    wall_s: float = 0.0
    phase: tuple[float, float] = (0.0, 0.0)
    #: Work counts read off the in-process apps afterwards.
    stats: dict = field(default_factory=dict)

    #: False where operation latencies are kept as measured: an HTTP
    #: call waits on the server's processes and on timers, not on the
    #: benchmark process's share of the host.
    scale_ops: bool = True

    def scaled(self, op: str) -> list[float]:
        """Latencies of ``op`` in milliseconds at the reference host's speed."""
        samples = getattr(self, f"{op}_ms")
        if not self.scale_ops:
            return [ms for _, ms in samples]
        return [ms * self.speed.scale(at) for at, ms in samples]


@dataclass
class Outcome:
    """Replicas and failures gathered by one run."""

    replicas: list[Replica] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def replica(self) -> Replica:
        return self.replicas[-1]

    def op(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; record it when it failed."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        return ok


def pipe_seed(seed: int) -> int:
    return PIPE_SEEDS[seed % len(PIPE_SEEDS)]


def _scenario_configs(seed: int):
    return tuple(
        named_scenario(name).with_overrides(users=PIPE_USERS, seed=pipe_seed(seed))
        for name in SCENARIOS
    )


def recompute_window(world, users, lats, lons) -> dict:
    """From-scratch whole-window answer over the records sent."""
    membership = membership_points(world, lats, lons)
    rows, cols = np.nonzero(membership)
    stride = int(users.max()) + 1 if users.size else 1
    area_user = np.unique(cols.astype(np.int64) * stride + users[rows])
    labels = label_corpus(world, lats, lons)
    order = np.lexsort((np.arange(users.size), users))
    u, lab = users[order], labels[order]
    src, dst = lab[:-1], lab[1:]
    valid = (u[1:] == u[:-1]) & (src >= 0) & (dst >= 0) & (src != dst)
    matrix = np.zeros((world.n_areas, world.n_areas), dtype=np.int64)
    np.add.at(matrix, (src[valid], dst[valid]), 1)
    names = world.names
    return {
        "tweets": membership.sum(axis=0).tolist(),
        "twitter_population": np.bincount(
            area_user // stride, minlength=world.n_areas
        ).tolist(),
        "flows": [
            (names[i], names[j], int(matrix[i, j])) for i, j in zip(*np.nonzero(matrix))
        ],
        "total_trips": int(matrix.sum()),
    }


def window_answer(population: dict, flows: dict) -> dict:
    """The comparable fields of a windowed population + flows answer."""
    return {
        "tweets": [a["tweets"] for a in population["areas"]],
        "twitter_population": [a["twitter_population"] for a in population["areas"]],
        "flows": [(f["origin"], f["dest"], f["flow"]) for f in flows["flows"]],
        "total_trips": flows["total_trips"],
    }


def app_stats(apps: list[EstimationApp], client) -> dict:
    """Work counts of a replica's in-process apps (none for a real fleet)."""
    if not apps:
        return {}
    summaries = [app.summary.stats() for app in apps]
    accepted = [summary["accepted"] for summary in summaries]
    hits = sum(app.cache.hits for app in apps)
    return {
        "cache_hits": hits,
        "cache_lookups": hits + sum(app.cache.misses for app in apps),
        "tiles_finalized": sum(summary["tiles"]["minute"] for summary in summaries),
        "checks": sum(app.ingest.stats()["checks_done"] for app in apps),
        "redirects": client.redirects,
        "shard_skew": max(accepted) / statistics.mean(accepted) if len(apps) > 1 else 0.0,
    }


class Workload:
    """Replicas, shared traffic helpers and checks; subclasses add traffic."""

    name = ""
    why = ""
    gazetteer = "legacy"
    scale = Scale.NATIONAL
    #: Tail percentile per operation kind (fixed per workload).
    tails = {"ingest": 99, "population": 95, "flows": 95}
    #: Replicas in an end-to-end run.
    REPLICAS = 3
    #: Whether a traced pass also traces the pipeline runs.
    TRACE_PIPELINE = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.stream = Stream.generate(seed, self.gazetteer)
        self.corpus_digest: str | None = None
        self._expected: dict[int, dict] = {}
        self.begin_pass()

    def begin_pass(self) -> None:
        """Restart the stream and the window mix (each pass sees the same ops)."""
        self.sent = 0
        self.last_ts = float(DAY0)
        self.windows = WindowMix(self.seed)

    # -- one replica ---------------------------------------------------

    def measure(self, out: Outcome, seconds: float) -> None:
        """The end-to-end run: :attr:`REPLICAS` replicas of the same work."""
        started = time.perf_counter()
        for index in range(self.REPLICAS):
            if index and time.perf_counter() - started > OVERRUN * seconds:
                out.op(False, f"stopped after {index} replicas, past {OVERRUN:g} x --seconds")
                break
            self.replica(out, index)

    def replica(self, out: Outcome, index: int, probe=None) -> None:
        """Prepare a fresh store and service, send the traffic, check it.

        ``probe`` (a :class:`perfbench.layers.LayerProbe`) traces the
        traffic, and the pipeline runs too where :attr:`TRACE_PIPELINE`.
        """
        root = self.work_dir / f"replica{index}"
        out.replicas.append(Replica())
        rep = out.replica
        service = None
        try:
            if not self.TRACE_PIPELINE:
                store, service = self.prepare(out, root)
                gc.collect()
            reset_peak_rss()
            phase_start, started = time.time(), time.perf_counter()
            with probe if probe is not None else contextlib.nullcontext():
                if self.TRACE_PIPELINE:
                    store, service = self.prepare(out, root)
                client = self.traffic(out, service, probe)
            rep.wall_s = time.perf_counter() - started
            rep.phase = (phase_start, time.time())
            rep.peak_rss_mb = self.peak_rss_mb(service)
            rep.stats = app_stats(self.apps(service), client)
            self.check(out, store, service, client)
        finally:
            if service is not None:
                self.retire(service)
            shutil.rmtree(root, ignore_errors=True)

    # -- prepare -------------------------------------------------------

    def pipe(self, out: Outcome, root: Path) -> ArtifactStore:
        """A fresh store holding one cold suite run and one comparison."""
        rep = out.replica
        store = ArtifactStore(root)
        config = SynthConfig(n_users=PIPE_USERS, seed=pipe_seed(self.seed))
        (_, run), rep.pipeline_s = rep.speed.timed(run_suite, config=config, store=store)
        (_, comparison), rep.scenario_s = rep.speed.timed(
            run_comparison, _scenario_configs(self.seed), store=store
        )
        for manifest in (run.manifest, comparison.manifest):
            for record in manifest.records:
                if record.status == "run":
                    task = "network" if record.name.startswith("network-") else record.name
                    rep.task_s[task] = rep.task_s.get(task, 0.0) + record.seconds
        digest = run.digests["corpus"]
        if self.corpus_digest is None:
            self.corpus_digest = digest
        out.op(digest == self.corpus_digest, "corpus digest changed for a fixed seed")
        return store

    def prepare(self, out: Outcome, root: Path):
        store = self.pipe(out, root)
        service = None
        for _ in range(BRING_UPS):
            if service is not None:
                self.retire(service)
            service, seconds = out.replica.speed.timed(self.bring_up, store)
            out.replica.setup_s.append(seconds)
        return store, service

    def bring_up(self, store: ArtifactStore):
        return create_app(store, monitor_scale=self.scale, gazetteer=self.gazetteer)

    def retire(self, service) -> None:
        """Release a service."""

    def apps(self, service) -> list[EstimationApp]:
        return [service]

    def peak_rss_mb(self, service) -> float:
        return peak_rss_mb()

    # -- traffic -------------------------------------------------------

    def traffic(self, out: Outcome, service, probe=None):
        raise NotImplementedError

    def ingest(self, client, records: list[dict], out: Outcome) -> None:
        started = time.perf_counter()
        try:
            status, payload = client.ingest(records)
        except Exception as exc:  # noqa: BLE001 - a failed call is a failed op
            status, payload = 0, {"error": repr(exc)}
        out.replica.ingest_ms.append((started, (time.perf_counter() - started) * 1000.0))
        self.sent += len(records)
        self.last_ts = records[-1]["timestamp"]
        summary = payload.get("summary", {})
        ok = (
            status == 200
            and payload.get("accepted") == len(records)
            and payload.get("dropped_stale") == 0
            and summary.get("accepted") == len(records)
            and summary.get("dropped_late") == 0
        )
        if out.op(ok, f"ingest answered {status}: {str(payload)[:200]}"):
            out.replica.tweets += len(records)

    def read(self, client, path: str, out: Outcome, window: str | None = None) -> None:
        window = window or self.windows.next(DAY0, self.last_ts)
        started = time.perf_counter()
        try:
            status, payload = client.read(path, window)
        except Exception as exc:  # noqa: BLE001 - a failed call is a failed op
            status, payload = 0, {"error": repr(exc)}
        sample = (started, (time.perf_counter() - started) * 1000.0)
        rep = out.replica
        (rep.population_ms if path == POPULATION else rep.flows_ms).append(sample)
        out.op(status == 200, f"{path}?window={window} answered {status}: {str(payload)[:200]}")

    # -- checks --------------------------------------------------------

    def whole_window(self, client) -> tuple[str, dict | None]:
        window = f"{DAY0}:{int(self.last_ts) + 1}"
        population = client.read(POPULATION, window)
        flows = client.read(FLOWS, window)
        if population[0] != 200 or flows[0] != 200:
            return window, None
        return window, window_answer(population[1], flows[1])

    def check(self, out: Outcome, store: ArtifactStore, service, client) -> None:
        self.check_against_recompute(client, self.apps(service)[0].summary.world, out)

    def check_against_recompute(self, client, world, out: Outcome) -> dict | None:
        """Whole-stream windowed answer ≡ batch recompute, bit for bit."""
        window, answer = self.whole_window(client)
        if self.sent not in self._expected:
            users, _, lats, lons = self.stream.sent(self.sent)
            self._expected[self.sent] = recompute_window(world, users, lats, lons)
        out.op(
            answer == self._expected[self.sent],
            f"whole-stream window {window} differs from the batch recompute",
        )
        return answer


class IngestPaper(Workload):
    name = "ingest-paper"
    why = (
        "dense one-day stream in one-minute batches on the 20-area world, a read pair "
        "per 6 batches: per-tweet work and per-minute tile persistence dominate"
    )
    tails = {"ingest": 99, "population": 95, "flows": 95}
    #: Ingest batches per replica.
    BATCHES = 1200
    #: One population read and one flows read of the same window after
    #: every k-th batch.  Each read follows an ingest, so it never
    #: replays a cached answer.
    READ_EVERY = 6

    def traffic(self, out: Outcome, app, probe=None) -> AppClient:
        self.begin_pass()
        client = AppClient(app)
        batches = self.stream.replay()
        speed = out.replica.speed
        for done in range(1, self.BATCHES + 1):
            speed.tick()
            self.ingest(client, next(batches), out)
            if done % self.READ_EVERY == 0:
                window = self.windows.next(DAY0, self.last_ts)
                for path in (POPULATION, FLOWS):
                    speed.tick()
                    self.read(client, path, out, window)
        return client


class CountryMixed(IngestPaper):
    name = "country-mixed"
    why = (
        "300-area metropolitan world with a read pair after every 2nd batch: "
        "per-area and per-pair work and shared write/read state dominate"
    )
    gazetteer = "synth:300"
    scale = Scale.METROPOLITAN
    tails = {"ingest": 95, "population": 90, "flows": 90}
    BATCHES = 200
    READ_EVERY = 2


class PipelineCold(IngestPaper):
    name = "pipeline-cold"
    why = (
        "cold run_suite and run_comparison on empty stores, warm re-runs, then a "
        "short serve burst: synth, labelling, extraction, fits and SEIR"
    )
    tails = {"ingest": 95, "population": 90, "flows": 90}
    REPLICAS = 6
    TRACE_PIPELINE = True
    BATCHES = 400
    READ_EVERY = 4

    def pipe(self, out: Outcome, root: Path) -> ArtifactStore:
        """Cold pipeline runs, then the same runs warm: nothing may execute."""
        store = super().pipe(out, root)
        started = time.perf_counter()
        config = SynthConfig(n_users=PIPE_USERS, seed=pipe_seed(self.seed))
        _, run = run_suite(config=config, store=store)
        _, comparison = run_comparison(_scenario_configs(self.seed), store=store)
        rep = out.replica
        rep.warm_s = time.perf_counter() - started
        rep.warm_executed = run.manifest.executed + comparison.manifest.executed
        out.op(rep.warm_executed == 0, f"warm re-run executed {rep.warm_executed} tasks")
        return store


class ServeFleet(Workload):
    name = "serve-fleet"
    why = (
        "HTTP to a 2-worker fleet, one writer and one reader connection: "
        "transport, shard split/forward, scatter-gather and merge"
    )
    tails = {"ingest": 90, "population": 90, "flows": 90}
    REPLICAS = 2
    #: Writer batches and reader calls per replica (reads alternate
    #: population and flows).
    BATCHES = 160
    READS = 200

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        #: Replay the mix in-process (the traced passes) instead of over HTTP.
        self.in_process = False
        self._single: dict[int, dict | None] = {}

    def bring_up(self, store: ArtifactStore):
        if self.in_process:
            return LocalFleet(store, FLEET_WORKERS)
        return Fleet(store.root, FLEET_WORKERS, self.work_dir / "fleet.log")

    def retire(self, fleet) -> None:
        fleet.stop()

    def apps(self, fleet) -> list[EstimationApp]:
        return fleet.apps if self.in_process else []

    def peak_rss_mb(self, fleet) -> float:
        return peak_rss_mb() if self.in_process else fleet.peak_rss_mb()

    def traffic(self, out: Outcome, fleet, probe=None):
        self.begin_pass()
        if self.in_process:
            return self.local_traffic(out, fleet, probe)
        out.replica.scale_ops = False
        writer, reader = HttpClient(fleet.base), HttpClient(fleet.base)
        batches = self.stream.replay()

        def write() -> None:
            for _ in range(self.BATCHES):
                self.ingest(writer, next(batches), out)

        def read() -> None:
            for done in range(self.READS):
                self.read(reader, (POPULATION, FLOWS)[done % 2], out)

        threads = [threading.Thread(target=write), threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        writer.close()
        return reader

    def local_traffic(self, out: Outcome, fleet: LocalFleet, probe=None) -> AppClient:
        """The same request mix in one thread: two shards, peers called directly."""
        if probe is not None:
            for app in fleet.apps:
                probe.adopt_router(app.shard_router)
        client = fleet.client()
        batches = self.stream.replay()
        speed = out.replica.speed
        for done in range(max(self.BATCHES, self.READS)):
            if done < self.BATCHES:
                speed.tick()
                self.ingest(client, next(batches), out)
            if done < self.READS:
                speed.tick()
                self.read(client, (POPULATION, FLOWS)[done % 2], out)
        return client

    def check(self, out: Outcome, store: ArtifactStore, fleet, client) -> None:
        if self.in_process:
            super().check(out, store, fleet, client)
            return
        try:
            self.check_fleet(out, store, client)
        finally:
            client.close()

    def check_fleet(self, out: Outcome, store: ArtifactStore, client) -> None:
        """Gathered window ≡ one process fed the same records ≡ recompute."""
        window, gathered = self.whole_window(client)
        if self.sent not in self._single:
            reference = create_app(store, summary_namespace="perfbench-reference")
            users, timestamps, lats, lons = self.stream.sent(self.sent)
            records = [
                {"user_id": u, "timestamp": t, "lat": a, "lon": o}
                for u, t, a, o in zip(
                    users.tolist(), timestamps.tolist(), lats.tolist(), lons.tolist()
                )
            ]
            reference.handle("POST", "/v1/ingest", {}, {"tweets": records})
            self._single[self.sent] = self.check_against_recompute(
                AppClient(reference), reference.summary.world, out
            )
        out.op(
            gathered is not None and gathered == self._single[self.sent],
            f"gathered window {window} differs from the single-process answer",
        )


WORKLOADS = {
    workload.name: workload
    for workload in (IngestPaper, CountryMixed, ServeFleet, PipelineCold)
}
