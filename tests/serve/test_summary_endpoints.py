"""Windowed endpoints: summary answers, staleness, cache invalidation."""

import numpy as np
import pytest

from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.pipeline.store import ArtifactStore
from repro.serve import EstimationApp, IngestService
from repro.summary.store import SummaryStore

WORLD = World.from_scale(Scale.NATIONAL)


def _tweet(user, ts, area=0):
    a = WORLD.areas[area]
    return {"user_id": user, "timestamp": float(ts), "lat": a.center.lat, "lon": a.center.lon}


def make_app(registry, artifacts=None) -> EstimationApp:
    summary = SummaryStore(WORLD, artifacts=artifacts, namespace="national")
    if artifacts is not None:
        summary.recover()
    ingest = IngestService(summary, window_seconds=3600.0)
    return EstimationApp(registry, ingest, summary_scale=Scale.NATIONAL)


@pytest.fixture()
def summary_app(registry) -> EstimationApp:
    return make_app(registry)


class TestWindowedPopulation:
    def test_empty_store_answers_with_full_staleness(self, summary_app):
        status, payload, _ = summary_app.handle(
            "GET", "/v1/population", {"window": "0:600"}, None
        )
        assert status == 200
        assert payload["source"] == "summary"
        assert payload["window"] == {"t0": 0, "t1": 600}
        assert payload["staleness_seconds"] == 600.0
        assert all(a["tweets"] == 0 for a in payload["areas"])

    def test_ingest_feeds_summary_and_window_reflects_it(self, summary_app):
        status, payload, _ = summary_app.handle(
            "POST", "/v1/ingest", {},
            {"tweets": [_tweet(1, 100.0 + i) for i in range(5)]},
        )
        assert status == 200
        assert payload["summary"]["accepted"] == 5
        status, payload, _ = summary_app.handle(
            "GET", "/v1/population", {"window": "60:180"}, None
        )
        assert status == 200
        assert payload["areas"][0]["tweets"] == 5
        assert payload["areas"][0]["twitter_population"] == 1
        assert payload["staleness_seconds"] == 76.0  # q1=180, watermark=104

    def test_window_snaps_outward(self, summary_app):
        status, payload, _ = summary_app.handle(
            "GET", "/v1/population", {"window": "61:119"}, None
        )
        assert status == 200
        assert payload["window"] == {"t0": 60, "t1": 120}

    def test_unwindowed_still_served_from_registry(self, summary_app):
        status, payload, _ = summary_app.handle("GET", "/v1/population", {}, None)
        assert status == 200
        assert "source" not in payload
        assert "run_id" in payload


class TestWindowedFlows:
    def test_flows_window_with_filters(self, summary_app):
        batch = [_tweet(1, 100.0, 0), _tweet(1, 200.0, 1), _tweet(2, 250.0, 2)]
        summary_app.handle("POST", "/v1/ingest", {}, {"tweets": batch})
        status, payload, _ = summary_app.handle(
            "GET", "/v1/flows", {"window": "0:600"}, None
        )
        assert status == 200
        assert payload["total_trips"] == 1
        [flow] = payload["flows"]
        assert flow["origin"] == WORLD.names[0]
        assert flow["dest"] == WORLD.names[1]
        assert flow["flow"] == 1
        assert flow["distance_km"] > 0
        status, filtered, _ = summary_app.handle(
            "GET", "/v1/flows",
            {"window": "0:600", "origin": WORLD.names[2]}, None,
        )
        assert status == 200
        assert filtered["flows"] == []

    def test_unknown_filter_area_rejected(self, summary_app):
        status, payload, _ = summary_app.handle(
            "GET", "/v1/flows", {"window": "0:600", "origin": "Atlantis"}, None
        )
        assert status == 400
        assert "unknown origin" in payload["error"]["message"]


class TestWindowValidation:
    @pytest.mark.parametrize("window", ["junk", "12", "1:2:3", "a:b", ":"])
    def test_malformed_window_is_400(self, summary_app, window):
        status, payload, _ = summary_app.handle(
            "GET", "/v1/population", {"window": window}, None
        )
        assert status == 400

    def test_inverted_window_is_400(self, summary_app):
        status, payload, _ = summary_app.handle(
            "GET", "/v1/population", {"window": "600:0"}, None
        )
        assert status == 400
        assert "t0 < t1" in payload["error"]["message"]

    def test_window_at_other_scale_is_400(self, summary_app):
        status, payload, _ = summary_app.handle(
            "GET", "/v1/population",
            {"window": "0:600", "scale": "metropolitan"}, None,
        )
        assert status == 400

    def test_windowed_query_without_summary_store_is_503(self, app):
        status, payload, _ = app.handle(
            "GET", "/v1/population", {"window": "0:600"}, None
        )
        assert status == 503
        assert "summary store" in payload["error"]["message"]


class TestCacheInvalidation:
    def test_ingest_invalidates_cached_windowed_answer(self, summary_app):
        """Regression: the LRU key carries the summary version, so a
        windowed answer cached before an ingest is never replayed after."""
        query = {"window": "60:240"}
        summary_app.handle(
            "POST", "/v1/ingest", {}, {"tweets": [_tweet(1, 100.0)]}
        )
        _, before, hit0 = summary_app.handle("GET", "/v1/population", query, None)
        assert not hit0
        _, _, hit1 = summary_app.handle("GET", "/v1/population", query, None)
        assert hit1  # stable between ingests
        summary_app.handle(
            "POST", "/v1/ingest", {}, {"tweets": [_tweet(2, 180.0)]}
        )
        _, after, hit2 = summary_app.handle("GET", "/v1/population", query, None)
        assert not hit2  # version moved the key: recomputed, not replayed
        assert after["areas"][0]["tweets"] == before["areas"][0]["tweets"] + 1

    def test_unwindowed_answers_still_cache(self, summary_app):
        summary_app.handle("GET", "/v1/population", {}, None)
        _, _, hit = summary_app.handle("GET", "/v1/population", {}, None)
        assert hit


class TestRestartRecovery:
    def test_new_app_over_same_artifacts_serves_finalized_tiles(
        self, registry, tmp_path
    ):
        artifacts = ArtifactStore(tmp_path / "tiles")
        app1 = make_app(registry, artifacts)
        batch = [_tweet(1, 60.0 + i, i % 3) for i in range(30)]
        batch.append(_tweet(1, 600.0))  # pushes the watermark: finalizes
        app1.handle("POST", "/v1/ingest", {}, {"tweets": batch})
        _, before, _ = app1.handle(
            "GET", "/v1/population", {"window": "60:120"}, None
        )

        app2 = make_app(registry, artifacts)  # simulated restart
        status, after, _ = app2.handle(
            "GET", "/v1/population", {"window": "60:120"}, None
        )
        assert status == 200
        assert after["areas"] == before["areas"]


class TestObservability:
    def test_healthz_and_metrics_report_summary(self, summary_app):
        summary_app.handle(
            "POST", "/v1/ingest", {}, {"tweets": [_tweet(1, 100.0)]}
        )
        _, health, _ = summary_app.handle("GET", "/healthz", {}, None)
        assert health["summary"]["version"] >= 1
        assert health["summary"]["watermark"] == 100.0
        _, metrics, _ = summary_app.handle("GET", "/metrics", {}, None)
        assert metrics["summary"]["accepted"] == 1
