"""``/v1/anomalies`` reads the summary store's minute tiles.

The serving anomaly monitor follows the store: checks fire at
whole-minute boundaries ``B`` (multiples of the check interval after the
first minute of data) over the transitions whose arriving tweet lies in
``[B − W, B)``, then the EMA-and-threshold rule.  These tests pin:

* the served list equals a from-scratch dense recompute over the
  records sent (shuffled, partly stale batches; dense and grid worlds);
* ``?check=1`` is read-only;
* a restarted process re-derives the same state from the journal,
  which holds nothing but tiles;
* no area × area array is built on the serving ingest or check path,
  and a 5,000-area world stays small and fast.
"""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from repro.core import world as core_world
from repro.core.label import label_points_dense
from repro.core.world import World
from repro.data.gazetteer import Scale, gazetteer_from_spec
from repro.extraction import mobility
from repro.extraction.mobility import ODFlows
from repro.pipeline.journal import scan_frames
from repro.pipeline.store import ArtifactStore
from repro.serve import EstimationApp, IngestService, ModelRegistry, create_app
from repro.stream.monitor import FlowAnomaly
from repro.stream.online import OnlineMobilityCounter
from repro.summary.store import SummaryStore
from repro.summary.tiers import SummaryBucket
from repro.synth import SynthConfig, generate_corpus

from tests.serve.test_single_pass import _records, _shuffled_batches

#: A short replay checks often, refits and flags.
MONITOR = dict(
    window_seconds=2 * 86400.0,
    check_interval_seconds=4 * 3600.0,
    warmup_checks=1,
    anomaly_ratio=1.5,
    min_flow=1.0,
)

WORLDS = pytest.mark.parametrize(
    "gazetteer, scale",
    [("legacy", Scale.NATIONAL), ("synth:300", Scale.METROPOLITAN)],
    ids=["legacy", "synth300"],
)


def _replay(gazetteer: str, scale: Scale) -> tuple[World, list[list[dict]]]:
    """The world and the shuffled, partly stale record batches."""
    world = World.from_scale(scale, gazetteer=gazetteer)
    corpus = generate_corpus(
        SynthConfig(n_users=250, seed=17, gazetteer=gazetteer)
    ).corpus
    tweets = sorted(corpus.iter_tweets(), key=lambda t: t.timestamp)[:3000]
    batches = _shuffled_batches(tweets, np.random.default_rng(3))
    return world, [_records(batch) for batch in batches]


def _app(tmp_path, world: World, artifacts: ArtifactStore | None = None) -> EstimationApp:
    registry = ModelRegistry(ArtifactStore(tmp_path / "registry"), poll_interval=0.0)
    summary = SummaryStore(world, artifacts=artifacts, namespace="t")
    summary.recover()
    return EstimationApp(registry, IngestService(summary, **MONITOR))


def _post(app: EstimationApp, records: list[dict]) -> dict:
    status, payload, _ = app.handle("POST", "/v1/ingest", {}, {"tweets": records})
    assert status == 200, payload
    return payload


def _anomalies(app: EstimationApp, **query) -> dict:
    status, payload, _ = app.handle("GET", "/v1/anomalies", query, None)
    assert status == 200, payload
    return payload


def _recompute(world: World, batches: list[list[dict]]) -> tuple[list[FlowAnomaly], int]:
    """Dense from-scratch anomalies and check count over the records sent.

    The door drops each batch's records behind the running watermark;
    accepted records give per-user consecutive transitions stamped with
    the arriving tweet's time; a check at ``B`` counts those in
    ``[B − W, B)`` and applies the EMA-and-threshold rule on full
    area × area matrices.
    """
    accepted: list[dict] = []
    watermark = -math.inf
    for batch in batches:
        for record in sorted(batch, key=lambda r: r["timestamp"]):
            if record["timestamp"] >= watermark:
                accepted.append(record)
                watermark = record["timestamp"]
    labels = label_points_dense(
        world,
        np.array([r["lat"] for r in accepted]),
        np.array([r["lon"] for r in accepted]),
    ).tolist()
    last: dict[int, int] = {}
    moves: list[tuple[float, int, int]] = []
    for record, label in zip(accepted, labels):
        previous = last.get(record["user_id"], -1)
        last[record["user_id"]] = label
        if previous >= 0 and label >= 0 and previous != label:
            moves.append((record["timestamp"], previous, label))
    times = np.array([t for t, _s, _d in moves])
    window = MONITOR["window_seconds"]
    interval = MONITOR["check_interval_seconds"]
    alpha, ratio_bound = 0.3, MONITOR["anomaly_ratio"]
    n = world.n_areas
    frontier = math.floor(watermark / 60) * 60
    boundary = (math.floor(accepted[0]["timestamp"] / 60) * 60 // interval + 1) * interval
    baseline = np.zeros((n, n))
    flagged: list[FlowAnomaly] = []
    checks = 0
    while boundary <= frontier:
        current = np.zeros((n, n))
        lo, hi = times.searchsorted([boundary - window, boundary])
        for _t, source, dest in moves[lo:hi]:
            current[source, dest] += 1
        if checks >= MONITOR["warmup_checks"]:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = np.where(baseline > 0, current / baseline, np.nan)
            rows, cols = np.nonzero(
                (np.maximum(current, baseline) >= MONITOR["min_flow"])
                & np.isfinite(ratio)
                & ((ratio >= ratio_bound) | (ratio <= 1.0 / ratio_bound))
            )
            flagged += [
                FlowAnomaly(
                    world.names[i], world.names[j], float(current[i, j]),
                    float(baseline[i, j]), float(ratio[i, j]), float(boundary),
                )
                for i, j in zip(rows, cols)
            ]
        baseline = (1 - alpha) * baseline + alpha * current
        checks += 1
        boundary += interval
    return flagged, checks


@WORLDS
def test_served_anomalies_equal_dense_recompute(tmp_path, gazetteer, scale):
    world, batches = _replay(gazetteer, scale)
    app = _app(tmp_path, world)
    raised = sum(_post(app, batch)["anomalies_raised"] for batch in batches)

    expected, checks = _recompute(world, batches)
    assert expected, "the fixture should raise anomalies"
    assert app.ingest.anomalies() == expected
    payload = _anomalies(app)
    assert payload["count"] == raised == len(expected)
    assert payload["stats"]["checks_done"] == checks
    assert payload["stats"]["dropped_stale"] > 0


@WORLDS
def test_check_polls_are_read_only(tmp_path, gazetteer, scale):
    world, batches = _replay(gazetteer, scale)
    quiet = _app(tmp_path / "quiet", world)
    polled = _app(tmp_path / "polled", world)
    polls = []
    for k, batch in enumerate(batches):
        _post(quiet, batch)
        _post(polled, batch)
        if k in (len(batches) // 3, 2 * len(batches) // 3):
            polls.append(_anomalies(polled, check="1"))
    for poll in polls:
        assert poll["check"]["edge"] is not None
        assert poll["check"]["count"] == len(poll["check"]["anomalies"])
    assert _anomalies(polled) == _anomalies(quiet)


@WORLDS
def test_restart_rederives_anomaly_state_from_tiles(tmp_path, gazetteer, scale):
    world, batches = _replay(gazetteer, scale)
    artifacts = ArtifactStore(tmp_path / "store")
    first = _app(tmp_path, world, artifacts)
    # Stop at the first batch after the midpoint whose frontier is the
    # end of a finalized minute: a restart resumes exactly there.
    for cut, batch in enumerate(batches):
        _post(first, batch)
        listing = first.ingest.summary.minutes()
        finalized = [tile.end for tile in listing.tiles if tile.end <= listing.frontier]
        if cut >= len(batches) // 2 and finalized and finalized[-1] == listing.frontier:
            break
    else:
        pytest.fail("no batch ends on a finalized minute")
    before = _anomalies(first)
    assert before["count"] > 0

    reborn = _app(tmp_path, world, ArtifactStore(tmp_path / "store"))
    after = _anomalies(reborn)
    assert after["anomalies"] == before["anomalies"]
    for key in ("checks_done", "anomalies_total", "has_windowed_fit", "frontier"):
        assert after["stats"][key] == before["stats"][key], key

    journal = (artifacts.journals_dir / "summary-t.log").read_bytes()
    payloads, good = scan_frames(journal)
    assert good == len(journal)
    # Every frame decodes as a tile (decode raises on anything else).
    assert payloads and all(SummaryBucket.decode(p).n_areas == world.n_areas for p in payloads)


def test_serving_path_builds_no_area_square_arrays(tmp_path, monkeypatch):
    world, batches = _replay("legacy", Scale.NATIONAL)
    app = _app(tmp_path, world)

    def refuse(*args, **kwargs):
        raise AssertionError("dense OD path on the serving path")

    monkeypatch.setattr(OnlineMobilityCounter, "push_batch", refuse)
    monkeypatch.setattr(ODFlows, "pairs", refuse)
    monkeypatch.setattr(mobility, "pairwise_distance_matrix", refuse)
    monkeypatch.setattr(core_world, "pairwise_distance_matrix", refuse)
    for batch in batches:
        _post(app, batch)
    payload = _anomalies(app, check="1")
    assert payload["stats"]["has_windowed_fit"]


def test_country_scale_ingest_stays_small_and_fast(tmp_path):
    """400 tweets over 20 minutes on synth:5000, 1 h window, 60 s checks."""
    World.from_scale(Scale.METROPOLITAN, gazetteer=gazetteer_from_spec("synth:5000"))
    rng = np.random.default_rng(5)
    t0 = 1_380_000_000.0
    stamps = np.sort(t0 + rng.uniform(0.0, 1200.0, 400))
    tracemalloc.start()
    try:
        started = time.perf_counter()
        app = create_app(
            ArtifactStore(tmp_path),
            monitor_scale=Scale.METROPOLITAN,
            gazetteer="synth:5000",
            preload=False,
            window_seconds=3600.0,
            check_interval_seconds=60.0,
        )
        world = app.ingest.world
        areas = rng.integers(0, world.n_areas, stamps.size)
        users = rng.integers(0, 60, stamps.size)
        for minute in range(20):
            edge_lo, edge_hi = stamps.searchsorted([t0 + 60 * minute, t0 + 60 * (minute + 1)])
            batch = [
                {
                    "user_id": int(users[k]),
                    "timestamp": float(stamps[k]),
                    "lat": float(world.centers_lat[areas[k]]),
                    "lon": float(world.centers_lon[areas[k]]),
                }
                for k in range(edge_lo, edge_hi)
            ]
            _post(app, batch)
        payload = _anomalies(app, check="1")
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["stats"]["accepted"] == 400
    assert payload["stats"]["checks_done"] == 19
    assert payload["stats"]["has_windowed_fit"]
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 10.0, f"{elapsed:.1f} s"
