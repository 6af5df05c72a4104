"""Tests for repro.synth.scenarios and their effect on the monitor."""

import numpy as np
import pytest

from repro.data.gazetteer import Scale, areas_for_scale, search_radius_km
from repro.synth.scenarios import (
    EVENT_USER_BASE,
    evacuation_event,
    gathering_event,
)

AREAS = areas_for_scale(Scale.NATIONAL)
SYDNEY, MELBOURNE, BRISBANE = AREAS[0], AREAS[1], AREAS[2]


class TestEvacuationEvent:
    def test_two_tweets_per_user_in_time_order(self):
        tweets = evacuation_event(
            SYDNEY, MELBOURNE, n_users=25, start_ts=0.0, rng=np.random.default_rng(0)
        )
        assert len(tweets) == 50
        timestamps = [t.timestamp for t in tweets]
        assert timestamps == sorted(timestamps)

    def test_origin_then_destination_per_user(self):
        tweets = evacuation_event(
            SYDNEY, MELBOURNE, n_users=10, start_ts=0.0, rng=np.random.default_rng(1)
        )
        by_user: dict[int, list] = {}
        for tweet in tweets:
            by_user.setdefault(tweet.user_id, []).append(tweet)
        for user_tweets in by_user.values():
            first, second = sorted(user_tweets, key=lambda t: t.timestamp)
            assert first.lat == pytest.approx(SYDNEY.center.lat)
            assert second.lat == pytest.approx(MELBOURNE.center.lat)

    def test_user_ids_above_base(self):
        tweets = evacuation_event(
            SYDNEY, MELBOURNE, n_users=5, start_ts=0.0, rng=np.random.default_rng(2)
        )
        assert min(t.user_id for t in tweets) >= EVENT_USER_BASE

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            evacuation_event(SYDNEY, MELBOURNE, n_users=0, start_ts=0.0)
        with pytest.raises(ValueError):
            evacuation_event(
                SYDNEY, MELBOURNE, n_users=1, start_ts=0.0, travel_seconds=(10.0, 5.0)
            )


class TestGatheringEvent:
    def test_three_tweets_per_user(self):
        tweets = gathering_event(
            BRISBANE, [SYDNEY, MELBOURNE], n_users_per_area=4, start_ts=0.0,
            rng=np.random.default_rng(3),
        )
        assert len(tweets) == 2 * 4 * 3
        timestamps = [t.timestamp for t in tweets]
        assert timestamps == sorted(timestamps)

    def test_venue_visited_between_home_tweets(self):
        tweets = gathering_event(
            BRISBANE, [SYDNEY], n_users_per_area=3, start_ts=0.0,
            rng=np.random.default_rng(4),
        )
        by_user: dict[int, list] = {}
        for tweet in tweets:
            by_user.setdefault(tweet.user_id, []).append(tweet)
        for user_tweets in by_user.values():
            ordered = sorted(user_tweets, key=lambda t: t.timestamp)
            assert ordered[1].lat == pytest.approx(BRISBANE.center.lat)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gathering_event(BRISBANE, [SYDNEY], n_users_per_area=0, start_ts=0.0)
        with pytest.raises(ValueError):
            gathering_event(
                BRISBANE, [SYDNEY], n_users_per_area=1, start_ts=0.0,
                duration_seconds=0.0,
            )


class TestMonitorIntegration:
    def test_monitor_flags_injected_evacuation(self, small_corpus):
        """End to end: replay + merge + monitor catches the event."""
        from repro.stream import MobilityMonitor
        from repro.stream.replay import corpus_stream, merge_streams

        start = float(np.quantile(small_corpus.timestamps, 0.7))
        event = evacuation_event(
            SYDNEY, MELBOURNE, n_users=300, start_ts=start,
            rng=np.random.default_rng(5),
        )
        monitor = MobilityMonitor(
            AREAS,
            search_radius_km(Scale.NATIONAL),
            window_seconds=30 * 86_400.0,
            check_interval_seconds=5 * 86_400.0,
            anomaly_ratio=2.5,
            min_flow=10.0,
        )
        raised = []
        for tweet in merge_streams(corpus_stream(small_corpus), event):
            raised.extend(monitor.push(tweet))
        raised.extend(monitor.check_now())
        assert any(
            a.source == "Sydney" and a.dest == "Melbourne" and a.ratio > 1
            for a in raised
        )

