"""Endpoint logic: happy paths, error paths, caching, concurrency.

These tests exercise :meth:`EstimationApp.handle` directly — the full
routing, validation and serialisation stack minus the socket — so the
whole matrix of 4xx/5xx cases stays fast.  The socket layer is covered
by ``test_smoke.py``.
"""

from __future__ import annotations

import threading

from repro.serve import EstimationApp, IngestService, ModelRegistry


def get(app: EstimationApp, path: str, query: dict | None = None):
    return app.handle("GET", path, query or {}, None)


def post(app: EstimationApp, path: str, body):
    return app.handle("POST", path, {}, body)


class TestHealthAndRouting:
    def test_healthz(self, app):
        status, payload, _ = get(app, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["run_id"] == app.registry.snapshot.run_id
        assert payload["corpus_users"] == 1_500

    def test_unknown_path_404(self, app):
        status, payload, _ = get(app, "/nope")
        assert status == 404
        assert payload["error"]["code"] == 404

    def test_wrong_method_405(self, app):
        status, payload, _ = post(app, "/healthz", {})
        assert status == 405
        assert "GET" in payload["error"]["message"]

    def test_empty_store_is_503(self, tmp_path):
        from repro.core.world import World
        from repro.data.gazetteer import Scale, areas_for_scale, search_radius_km
        from repro.pipeline import ArtifactStore
        from repro.summary.store import SummaryStore

        registry = ModelRegistry(ArtifactStore(tmp_path), poll_interval=0.0)
        world = World.from_areas(
            areas_for_scale(Scale.NATIONAL), search_radius_km(Scale.NATIONAL)
        )
        ingest = IngestService(SummaryStore(world))
        app = EstimationApp(registry, ingest, windowed_reads=False)
        status, payload, _ = get(app, "/healthz")
        assert status == 503
        assert "pipeline run" in payload["error"]["message"]


class TestPopulation:
    def test_happy_path_all_scales(self, app):
        for scale in ("national", "state", "metropolitan"):
            status, payload, _ = get(app, "/v1/population", {"scale": scale})
            assert status == 200
            assert payload["scale"] == scale
            assert len(payload["areas"]) == 20
            sydneyish = payload["areas"][0]
            assert sydneyish["census_population"] > 0
            assert sydneyish["twitter_population"] >= 0

    def test_defaults_to_national(self, app):
        status, payload, _ = get(app, "/v1/population")
        assert status == 200
        assert payload["scale"] == "national"

    def test_unknown_scale_400(self, app):
        status, payload, _ = get(app, "/v1/population", {"scale": "galactic"})
        assert status == 400
        assert "galactic" in payload["error"]["message"]

    def test_response_cache_hits_second_read(self, app):
        _, first, cached_first = get(app, "/v1/population", {"scale": "state"})
        _, second, cached_second = get(app, "/v1/population", {"scale": "state"})
        assert cached_first is False
        assert cached_second is True
        assert first == second
        assert app.cache.hits == 1


class TestFlows:
    def test_filter_by_origin_and_dest(self, app):
        status, payload, _ = get(
            app, "/v1/flows", {"scale": "national", "origin": "Sydney"}
        )
        assert status == 200
        assert all(f["origin"] == "Sydney" for f in payload["flows"])
        status, payload, _ = get(
            app,
            "/v1/flows",
            {"scale": "national", "origin": "Sydney", "dest": "Melbourne"},
        )
        assert status == 200
        assert len(payload["flows"]) <= 1

    def test_unfiltered_lists_positive_entries(self, app):
        status, payload, _ = get(app, "/v1/flows", {"scale": "national"})
        assert status == 200
        assert payload["total_trips"] > 0
        assert sum(f["flow"] for f in payload["flows"]) == payload["total_trips"]

    def test_unknown_area_400(self, app):
        status, payload, _ = get(app, "/v1/flows", {"origin": "Atlantis"})
        assert status == 400
        assert "Atlantis" in payload["error"]["message"]


class TestPredict:
    def test_batch_predictions(self, app):
        body = {
            "scale": "national",
            "model": "gravity2",
            "pairs": [
                {"origin": "Sydney", "dest": "Melbourne"},
                {"origin": "Melbourne", "dest": "Brisbane"},
            ],
        }
        status, payload, _ = post(app, "/v1/predict", body)
        assert status == 200
        assert len(payload["predictions"]) == 2
        assert all(p["flow"] > 0 for p in payload["predictions"])

    def test_all_models_predict(self, app):
        for model in ("gravity2", "gravity4", "radiation"):
            status, payload, _ = post(
                app,
                "/v1/predict",
                {"model": model, "pairs": [{"origin": "Sydney", "dest": "Perth"}]},
            )
            assert status == 200, payload
            assert payload["model"] == model

    def test_missing_body_400(self, app):
        status, payload, _ = post(app, "/v1/predict", None)
        assert status == 400

    def test_unknown_model_400(self, app):
        status, payload, _ = post(
            app,
            "/v1/predict",
            {"model": "teleport", "pairs": [{"origin": "Sydney", "dest": "Perth"}]},
        )
        assert status == 400
        assert "teleport" in payload["error"]["message"]

    def test_unknown_area_400(self, app):
        status, payload, _ = post(
            app, "/v1/predict", {"pairs": [{"origin": "Gotham", "dest": "Sydney"}]}
        )
        assert status == 400
        assert "Gotham" in payload["error"]["message"]

    def test_self_pair_400(self, app):
        status, payload, _ = post(
            app, "/v1/predict", {"pairs": [{"origin": "Sydney", "dest": "Sydney"}]}
        )
        assert status == 400

    def test_oversized_batch_413(self, app):
        pairs = [{"origin": "Sydney", "dest": "Perth"}] * 10_001
        status, payload, _ = post(app, "/v1/predict", {"pairs": pairs})
        assert status == 413


class TestIngestAndAnomalies:
    @staticmethod
    def tweet(user: int, ts: float, lat=-33.8688, lon=151.2093) -> dict:
        return {"user_id": user, "timestamp": ts, "lat": lat, "lon": lon}

    def test_ingest_counts_transitions(self, app):
        melbourne = (-37.8136, 144.9631)
        batch = [
            self.tweet(1, 1000.0),
            self.tweet(1, 2000.0, *melbourne),
        ]
        status, payload, _ = post(app, "/v1/ingest", {"tweets": batch})
        assert status == 200
        assert payload["accepted"] == 2
        status, payload, _ = get(app, "/v1/anomalies")
        assert status == 200
        assert payload["stats"]["window_transitions"] == 1

    def test_stale_tweets_dropped_not_erroring(self, app):
        post(app, "/v1/ingest", {"tweets": [self.tweet(1, 5000.0)]})
        status, payload, _ = post(app, "/v1/ingest", {"tweets": [self.tweet(2, 10.0)]})
        assert status == 200
        assert payload["accepted"] == 0
        assert payload["dropped_stale"] == 1

    def test_out_of_order_batch_sorted(self, app):
        batch = [self.tweet(1, 2000.0), self.tweet(1, 1000.0)]
        status, payload, _ = post(app, "/v1/ingest", {"tweets": batch})
        assert status == 200
        assert payload["accepted"] == 2

    def test_malformed_tweet_400(self, app):
        status, payload, _ = post(
            app, "/v1/ingest", {"tweets": [{"user_id": 1, "timestamp": 0.0}]}
        )
        assert status == 400
        assert "tweets[0]" in payload["error"]["message"]

    def test_bad_coordinates_400(self, app):
        status, payload, _ = post(
            app,
            "/v1/ingest",
            {"tweets": [{"user_id": 1, "timestamp": 0.0, "lat": 95.0, "lon": 0.0}]},
        )
        assert status == 400

    def test_empty_batch_400(self, app):
        status, _, _ = post(app, "/v1/ingest", {"tweets": []})
        assert status == 400


class TestMetricsEndpoint:
    def test_metrics_reflect_traffic(self, app):
        get(app, "/v1/population")
        get(app, "/v1/population")  # cache hit
        get(app, "/nope")
        post(app, "/v1/predict", None)  # 400

        # The transport layer normally records observations; emulate it
        # for the direct-dispatch calls above.
        app.metrics.observe("GET /v1/population", 200, 1.0)
        app.metrics.observe("GET /v1/population", 200, 0.1, cached=True)
        app.metrics.observe("unmatched", 404, 0.1)
        app.metrics.observe("POST /v1/predict", 400, 0.2)

        status, payload, _ = get(app, "/metrics")
        assert status == 200
        pop = payload["endpoints"]["GET /v1/population"]
        assert pop["requests"] == 2
        assert pop["cache_hits"] == 1
        assert payload["endpoints"]["POST /v1/predict"]["errors_4xx"] == 1
        assert payload["response_cache"]["hits"] == 1
        assert payload["ingest"]["accepted"] == 0


class TestConcurrency:
    def test_concurrent_ingest_and_predict(self, app):
        """Parallel writers (ingest) and readers (predict) stay consistent."""
        errors: list = []
        barrier = threading.Barrier(8)

        def ingest_worker(worker: int) -> None:
            barrier.wait()
            for i in range(20):
                ts = float(worker * 100_000 + i)
                batch = [
                    {"user_id": worker, "timestamp": ts, "lat": -33.8688, "lon": 151.2093}
                ]
                status, payload, _ = post(app, "/v1/ingest", {"tweets": batch})
                if status != 200:
                    errors.append((status, payload))

        def predict_worker() -> None:
            barrier.wait()
            for _ in range(20):
                status, payload, _ = post(
                    app,
                    "/v1/predict",
                    {"pairs": [{"origin": "Sydney", "dest": "Melbourne"}]},
                )
                if status != 200:
                    errors.append((status, payload))
                status, payload, _ = get(app, "/v1/anomalies")
                if status != 200:
                    errors.append((status, payload))

        threads = [
            threading.Thread(target=ingest_worker, args=(worker,)) for worker in range(4)
        ] + [threading.Thread(target=predict_worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = app.ingest.stats()
        # Every pushed tweet is either accepted or counted as stale.
        assert stats["accepted"] + stats["dropped_stale"] == 4 * 20
