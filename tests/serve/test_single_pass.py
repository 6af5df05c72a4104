"""Live ingest labels each batch once and feeds both consumers from it.

``EstimationApp.ingest_apply`` sorts a batch, labels it with
:func:`repro.core.label.label_and_contain` and hands the one result to
the monitor (``IngestService``) and the summary store.  These tests pin
that contract:

* one ``POST /v1/ingest`` of n tweets labels exactly n points;
* ``create_app`` wires one shared :class:`World` into both consumers,
  and an app whose consumers disagree on the world is refused;
* a shuffled, partly stale batch stream through ``ingest_apply`` gives
  the same monitor stats, anomalies, windowed answers and persisted
  tile digests as consumers fed labels from the reference kernels
  (``label_points_dense`` + ``membership_points``), on a dense-path and
  a grid-path world.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.label import PointLabels, label_points_dense, membership_points
from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.pipeline.store import ArtifactStore
from repro.serve import EstimationApp, IngestService, ModelRegistry, create_app
from repro.summary.store import SummaryStore
from repro.synth import SynthConfig, generate_corpus

#: Monitor settings that make a short stream check, refit and flag often.
MONITOR = dict(
    window_seconds=3 * 3600.0,
    check_interval_seconds=1800.0,
    warmup_checks=1,
    anomaly_ratio=1.5,
    min_flow=1.0,
)


def _records(tweets) -> list[dict]:
    return [
        {"user_id": t.user_id, "timestamp": t.timestamp, "lat": t.lat, "lon": t.lon}
        for t in tweets
    ]


class TestLabelledOnce:
    def test_one_ingest_labels_each_tweet_exactly_once(self, tmp_path):
        app = create_app(ArtifactStore(tmp_path), preload=False)
        assert app.summary is not None
        world = app.ingest.world
        tweets = [
            {
                "user_id": i % 7,
                "timestamp": 1_000.0 + 13.0 * i,
                "lat": float(world.centers_lat[i % world.n_areas]),
                "lon": float(world.centers_lon[i % world.n_areas]),
            }
            for i in range(57)
        ]
        before = obs.counters_snapshot().get("core.points_labelled", 0)
        status, payload, _ = app.handle("POST", "/v1/ingest", {}, {"tweets": tweets})
        after = obs.counters_snapshot().get("core.points_labelled", 0)
        assert status == 200
        assert payload["accepted"] == payload["summary"]["accepted"] == 57
        assert after - before == 57

    def test_create_app_shares_one_world(self, tmp_path):
        app = create_app(ArtifactStore(tmp_path), preload=False, gazetteer="synth:300")
        assert app.summary.world is app.ingest.world

    def test_app_refuses_consumers_on_different_worlds(self, tmp_path):
        registry = ModelRegistry(ArtifactStore(tmp_path), poll_interval=0.0)
        national = World.from_scale(Scale.NATIONAL)
        ingest = IngestService(national, radius_km=national.radius_km)
        summary = SummaryStore(national.with_radius(10.0))
        with pytest.raises(ValueError, match="different worlds"):
            EstimationApp(registry, ingest, summary=summary)


def _reference_labels(world: World, ordered) -> PointLabels:
    """The batch labelled by the reference kernels, in CSR form."""
    lats = np.array([t.lat for t in ordered], dtype=np.float64)
    lons = np.array([t.lon for t in ordered], dtype=np.float64)
    rows, cols = np.nonzero(membership_points(world, lats, lons))
    indptr = np.zeros(len(ordered) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(ordered)), out=indptr[1:])
    return PointLabels(
        labels=label_points_dense(world, lats, lons),
        indptr=indptr,
        indices=cols.astype(np.int64),
    )


def _shuffled_batches(tweets, rng) -> list[list]:
    """Time-ordered tweets cut into batches, shuffled within each batch,
    with some neighbouring batches swapped so stale prefixes occur."""
    cuts = np.sort(rng.choice(np.arange(1, len(tweets)), size=len(tweets) // 25, replace=False))
    batches = [list(part) for part in np.split(np.array(tweets, dtype=object), cuts)]
    for batch in batches:
        rng.shuffle(batch)
    for i in range(0, len(batches) - 1, 7):
        batches[i], batches[i + 1] = batches[i + 1], batches[i]
    return batches


def _tile_digests(store: ArtifactStore, namespace: str) -> dict[str, str]:
    prefix = f"summary/{namespace}/"
    return {key: store.lookup(key) for key in store.keys_with_prefix(prefix)}


@pytest.mark.parametrize(
    "gazetteer, scale",
    [("legacy", Scale.NATIONAL), ("synth:300", Scale.METROPOLITAN)],
    ids=["dense-legacy", "grid-synth300"],
)
def test_single_pass_equals_reference_kernels(tmp_path, gazetteer, scale):
    world = World.from_scale(scale, gazetteer=gazetteer)
    corpus = generate_corpus(
        SynthConfig(n_users=250, seed=17, gazetteer=gazetteer)
    ).corpus
    tweets = sorted(corpus.iter_tweets(), key=lambda t: t.timestamp)[:3000]
    batches = _shuffled_batches(tweets, np.random.default_rng(3))

    registry = ModelRegistry(ArtifactStore(tmp_path / "registry"), poll_interval=0.0)
    live_store = ArtifactStore(tmp_path / "live")
    app = EstimationApp(
        registry,
        IngestService(world, radius_km=world.radius_km, **MONITOR),
        summary=SummaryStore(world, artifacts=live_store, namespace="t"),
    )
    ref_store = ArtifactStore(tmp_path / "reference")
    ref_ingest = IngestService(world, radius_km=world.radius_km, **MONITOR)
    ref_summary = SummaryStore(world, artifacts=ref_store, namespace="t")

    for batch in batches:
        # Through the service's own door: parse → route-free apply.
        parsed = [IngestService.parse_tweet(r) for r in _records(batch)]
        payload = app.ingest_apply(parsed)
        ordered = sorted(parsed, key=lambda t: t.timestamp)
        reference = _reference_labels(world, ordered)
        expected = ref_ingest.ingest_labelled(ordered, reference)
        outcome = ref_summary.ingest_labelled(ordered, reference)
        assert payload["accepted"] == expected.accepted
        assert payload["dropped_stale"] == expected.dropped_stale
        assert payload["anomalies_raised"] == expected.anomalies_raised
        assert payload["summary"]["accepted"] == outcome.accepted
        assert payload["summary"]["dropped_late"] == outcome.dropped_late

    stats = app.ingest.stats()
    assert stats == ref_ingest.stats()
    assert stats["dropped_stale"] > 0  # stale prefixes were exercised
    assert stats["checks_done"] > 1
    assert app.ingest.anomalies() == ref_ingest.anomalies()

    first, last = tweets[0].timestamp, tweets[-1].timestamp
    for t0, t1 in [(first, last + 1), (first, first + 3600), (first + 1800, last - 900)]:
        got, want = app.summary.query(t0, t1), ref_summary.query(t0, t1)
        assert np.array_equal(got.tweet_counts, want.tweet_counts)
        assert np.array_equal(got.user_counts, want.user_counts)
        assert np.array_equal(got.flow_matrix, want.flow_matrix)
        assert (got.n_tweets, got.n_transitions) == (want.n_tweets, want.n_transitions)
    assert got.n_tweets > 0

    assert app.summary.flush() == ref_summary.flush()
    digests = _tile_digests(live_store, "t")
    assert digests and digests == _tile_digests(ref_store, "t")
