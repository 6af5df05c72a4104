"""Tests for repro.stream: window, online counters, monitor."""

import numpy as np
import pytest

from repro.data.gazetteer import Scale, areas_for_scale, search_radius_km
from repro.data.schema import Tweet
from repro.extraction import (
    assign_tweets_to_areas,
    extract_area_observations,
    extract_od_flows,
)
from repro.stream import (
    MobilityMonitor,
    OnlineMobilityCounter,
    OnlinePopulationCounter,
    SlidingWindow,
)
from repro.stream.window import StreamOrderError

AREAS = areas_for_scale(Scale.NATIONAL)
RADIUS = search_radius_km(Scale.NATIONAL)
SYDNEY = AREAS[0].center
MELBOURNE = AREAS[1].center


def _tweet(user, ts, lat=None, lon=None):
    lat = SYDNEY.lat if lat is None else lat
    lon = SYDNEY.lon if lon is None else lon
    return Tweet(user_id=user, timestamp=float(ts), lat=lat, lon=lon)


class TestSlidingWindow:
    def test_retains_within_span(self):
        window = SlidingWindow(100.0)
        window.push(_tweet(1, 0.0))
        expired = window.push(_tweet(1, 50.0))
        assert expired == []
        assert len(window) == 2

    def test_expires_old_tweets(self):
        window = SlidingWindow(100.0)
        first = _tweet(1, 0.0)
        window.push(first)
        expired = window.push(_tweet(1, 150.0))
        assert expired == [first]
        assert len(window) == 1

    def test_boundary_exclusive(self):
        window = SlidingWindow(100.0)
        first = _tweet(1, 0.0)
        window.push(first)
        # Exactly at span age: expired (timestamp <= now - span).
        expired = window.push(_tweet(1, 100.0))
        assert expired == [first]

    def test_out_of_order_raises(self):
        window = SlidingWindow(100.0)
        window.push(_tweet(1, 10.0))
        with pytest.raises(StreamOrderError):
            window.push(_tweet(1, 5.0))

    def test_advance_to(self):
        window = SlidingWindow(100.0)
        window.push(_tweet(1, 0.0))
        assert len(window.advance_to(500.0)) == 1
        assert len(window) == 0
        with pytest.raises(StreamOrderError):
            window.advance_to(400.0)

    def test_invalid_span_raises(self):
        with pytest.raises(ValueError):
            SlidingWindow(0.0)

    def test_timestamps_tracked(self):
        window = SlidingWindow(1000.0)
        window.push(_tweet(1, 5.0))
        window.push(_tweet(1, 9.0))
        assert window.oldest_timestamp == 5.0
        assert window.latest_timestamp == 9.0


class TestBatchEquivalence:
    """Infinite-window streaming must reproduce the batch extractors."""

    def test_population_counter_matches_batch(self, small_corpus):
        counter = OnlinePopulationCounter(AREAS, RADIUS)
        tweets = list(small_corpus.iter_tweets())
        for i in np.argsort(small_corpus.timestamps, kind="stable"):
            counter.push(tweets[i])
        observations = extract_area_observations(small_corpus, AREAS, RADIUS)
        assert np.array_equal(
            counter.tweet_counts(), np.array([o.n_tweets for o in observations])
        )
        assert np.array_equal(
            counter.user_counts(), np.array([o.n_users for o in observations])
        )

    def test_mobility_counter_matches_batch(self, small_corpus):
        counter = OnlineMobilityCounter(AREAS, RADIUS)
        tweets = list(small_corpus.iter_tweets())
        for i in np.argsort(small_corpus.timestamps, kind="stable"):
            counter.push(tweets[i])
        labels = assign_tweets_to_areas(small_corpus, AREAS, RADIUS)
        flows = extract_od_flows(small_corpus, labels, AREAS)
        assert np.array_equal(counter.flow_matrix(), flows.matrix)

    def test_state_scale_equivalence(self, small_corpus):
        areas = areas_for_scale(Scale.STATE)
        radius = search_radius_km(Scale.STATE)
        counter = OnlineMobilityCounter(areas, radius)
        tweets = list(small_corpus.iter_tweets())
        for i in np.argsort(small_corpus.timestamps, kind="stable"):
            counter.push(tweets[i])
        labels = assign_tweets_to_areas(small_corpus, areas, radius)
        flows = extract_od_flows(small_corpus, labels, areas)
        assert np.array_equal(counter.flow_matrix(), flows.matrix)


class TestPushBatchEquivalence:
    """Micro-batched ingestion must equal per-tweet pushes exactly."""

    def _ordered_tweets(self, corpus, limit=2000):
        tweets = list(corpus.iter_tweets())
        order = np.argsort(corpus.timestamps, kind="stable")[:limit]
        return [tweets[i] for i in order]

    @pytest.mark.parametrize("window", [float("inf"), 86400.0])
    def test_population_push_batch_matches_push(self, small_corpus, window):
        ordered = self._ordered_tweets(small_corpus)
        scalar = OnlinePopulationCounter(AREAS, RADIUS, window_seconds=window)
        batched = OnlinePopulationCounter(AREAS, RADIUS, window_seconds=window)
        for tweet in ordered:
            scalar.push(tweet)
        for start in range(0, len(ordered), 97):
            batched.push_batch(ordered[start : start + 97])
        assert np.array_equal(scalar.tweet_counts(), batched.tweet_counts())
        assert np.array_equal(scalar.user_counts(), batched.user_counts())

    @pytest.mark.parametrize("window", [float("inf"), 86400.0])
    def test_mobility_push_batch_matches_push(self, small_corpus, window):
        ordered = self._ordered_tweets(small_corpus)
        scalar = OnlineMobilityCounter(AREAS, RADIUS, window_seconds=window)
        batched = OnlineMobilityCounter(AREAS, RADIUS, window_seconds=window)
        for tweet in ordered:
            scalar.push(tweet)
        for start in range(0, len(ordered), 97):
            batched.push_batch(ordered[start : start + 97])
        assert np.array_equal(scalar.flow_matrix(), batched.flow_matrix())
        assert scalar.total_transitions == batched.total_transitions

    def test_push_batch_rejects_out_of_order(self):
        counter = OnlineMobilityCounter(AREAS, RADIUS)
        with pytest.raises(StreamOrderError):
            counter.push_batch([_tweet(1, 10.0), _tweet(1, 5.0)])

    def test_empty_batch_is_noop(self):
        counter = OnlineMobilityCounter(AREAS, RADIUS)
        counter.push_batch([])
        assert counter.total_transitions == 0

    def test_counters_accept_world(self):
        from repro.core.world import World

        world = World.from_scale(Scale.NATIONAL)
        counter = OnlineMobilityCounter(world)
        assert counter.world is world
        assert counter.radius_km == RADIUS
        population = OnlinePopulationCounter(world)
        assert population.world is world

    def test_monitor_push_batch_matches_push(self, small_corpus):
        ordered = self._ordered_tweets(small_corpus, limit=1500)
        kwargs = dict(
            window_seconds=86400.0 * 30, check_interval_seconds=86400.0 * 5
        )
        scalar = MobilityMonitor(AREAS, RADIUS, **kwargs)
        batched = MobilityMonitor(AREAS, RADIUS, **kwargs)
        scalar_anomalies = []
        for tweet in ordered:
            scalar_anomalies.extend(scalar.push(tweet))
        batched_anomalies = []
        for start in range(0, len(ordered), 211):
            batched_anomalies.extend(batched.push_batch(ordered[start : start + 211]))
        assert scalar_anomalies == batched_anomalies
        assert scalar.checks_done == batched.checks_done
        assert np.array_equal(
            scalar.counter.flow_matrix(), batched.counter.flow_matrix()
        )
        assert scalar.kernel.baseline.checks == batched.kernel.baseline.checks
        assert np.array_equal(scalar.kernel.baseline.keys, batched.kernel.baseline.keys)
        assert np.array_equal(scalar.kernel.baseline.values, batched.kernel.baseline.values)
        assert scalar.gamma_history() == batched.gamma_history()


class TestWindowedCounters:
    def test_population_window_decrements(self):
        counter = OnlinePopulationCounter(AREAS, RADIUS, window_seconds=100.0)
        counter.push(_tweet(1, 0.0))
        counter.push(_tweet(2, 10.0))
        assert counter.tweet_counts()[0] == 2
        counter.push(_tweet(3, 500.0))
        assert counter.tweet_counts()[0] == 1
        assert counter.user_counts()[0] == 1

    def test_user_counted_once_while_active(self):
        counter = OnlinePopulationCounter(AREAS, RADIUS, window_seconds=1000.0)
        counter.push(_tweet(1, 0.0))
        counter.push(_tweet(1, 10.0))
        assert counter.user_counts()[0] == 1
        # One of the two tweets expires; the user remains present.
        counter.push(_tweet(2, 1005.0))
        assert counter.user_counts()[0] == 2

    def test_mobility_window_expires_transitions(self):
        counter = OnlineMobilityCounter(AREAS, RADIUS, window_seconds=100.0)
        counter.push(_tweet(1, 0.0))
        counter.push(_tweet(1, 10.0, lat=MELBOURNE.lat, lon=MELBOURNE.lon))
        assert counter.total_transitions == 1
        counter.advance_to(500.0)
        assert counter.total_transitions == 0

    def test_unlabelled_tweet_breaks_adjacency(self):
        counter = OnlineMobilityCounter(AREAS, RADIUS)
        counter.push(_tweet(1, 0.0))
        counter.push(_tweet(1, 1.0, lat=-25.0, lon=125.0))  # outback, no area
        counter.push(_tweet(1, 2.0, lat=MELBOURNE.lat, lon=MELBOURNE.lon))
        assert counter.total_transitions == 0

    def test_out_of_order_mobility_raises(self):
        counter = OnlineMobilityCounter(AREAS, RADIUS)
        counter.push(_tweet(1, 10.0))
        with pytest.raises(StreamOrderError):
            counter.push(_tweet(1, 5.0))

    def test_invalid_radius_raises(self):
        with pytest.raises(ValueError):
            OnlinePopulationCounter(AREAS, 0.0)
        with pytest.raises(ValueError):
            OnlineMobilityCounter(AREAS, -1.0)


class TestMobilityMonitor:
    def _commuters(self, n_users, start_ts, period=100.0):
        """Users bouncing Sydney <-> Melbourne, one hop per period."""
        tweets = []
        for step in range(8):
            place = SYDNEY if step % 2 == 0 else MELBOURNE
            for user in range(n_users):
                tweets.append(
                    _tweet(user, start_ts + step * period + user * 0.001,
                           lat=place.lat, lon=place.lon)
                )
        return tweets

    def test_no_anomaly_on_steady_flow(self):
        monitor = MobilityMonitor(
            AREAS, RADIUS, window_seconds=400.0, anomaly_ratio=3.0, min_flow=3.0
        )
        anomalies = []
        for tweet in self._commuters(10, 0.0):
            anomalies.extend(monitor.push(tweet))
        assert anomalies == []

    def test_flow_surge_detected(self):
        monitor = MobilityMonitor(
            AREAS, RADIUS, window_seconds=400.0, anomaly_ratio=3.0, min_flow=3.0,
            check_interval_seconds=100.0,
        )
        for tweet in self._commuters(4, 0.0):
            monitor.push(tweet)
        # Sudden mass movement: 60 new users leave Sydney for Melbourne.
        surge = []
        base = 900.0
        for user in range(100, 160):
            surge.append(_tweet(user, base + user * 0.01))
            surge.append(
                _tweet(user, base + 50 + user * 0.01, lat=MELBOURNE.lat, lon=MELBOURNE.lon)
            )
        surge.sort(key=lambda t: t.timestamp)
        raised = []
        for tweet in surge:
            raised.extend(monitor.push(tweet))
        raised.extend(monitor.check_now())
        surges = [a for a in raised if a.ratio > 1]
        assert any(a.source == "Sydney" and a.dest == "Melbourne" for a in surges)

    def test_refit_produces_gamma_history(self, small_corpus):
        monitor = MobilityMonitor(
            AREAS, RADIUS, window_seconds=86400.0 * 60,
            check_interval_seconds=86400.0 * 7,
        )
        tweets = list(small_corpus.iter_tweets())
        for i in np.argsort(small_corpus.timestamps, kind="stable"):
            monitor.push(tweets[i])
        history = monitor.gamma_history()
        assert len(history) >= 3
        assert monitor.latest_fit is not None
        gammas = [gamma for _ts, gamma in history]
        # Windowed fits should hover around the generator's gamma.
        assert 0.3 < np.median(gammas) < 3.0

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            MobilityMonitor(AREAS, RADIUS, 100.0, baseline_alpha=0.0)
        with pytest.raises(ValueError):
            MobilityMonitor(AREAS, RADIUS, 100.0, anomaly_ratio=1.0)
