"""Tests for repro.stream.replay."""

import pytest

from repro.data.schema import Tweet
from repro.stream.replay import corpus_stream, merge_streams, stream_in_windows


def _tweet(user, ts):
    return Tweet(user_id=user, timestamp=float(ts), lat=-33.0, lon=151.0)


class TestCorpusStream:
    def test_globally_time_ordered(self, small_corpus):
        previous = float("-inf")
        for tweet in corpus_stream(small_corpus):
            assert tweet.timestamp >= previous
            previous = tweet.timestamp

    def test_yields_every_tweet(self, small_corpus):
        assert sum(1 for _ in corpus_stream(small_corpus)) == len(small_corpus)


class TestMergeStreams:
    def test_interleaves_in_order(self):
        a = [_tweet(1, 1.0), _tweet(1, 5.0)]
        b = [_tweet(2, 2.0), _tweet(2, 3.0)]
        merged = list(merge_streams(a, b))
        assert [t.timestamp for t in merged] == [1.0, 2.0, 3.0, 5.0]

    def test_empty_streams_ok(self):
        a = [_tweet(1, 1.0)]
        assert [t.timestamp for t in merge_streams([], a, [])] == [1.0]

    def test_three_way_merge(self):
        streams = [[_tweet(i, float(i + 3 * k)) for k in range(3)] for i in range(3)]
        merged = [t.timestamp for t in merge_streams(*streams)]
        assert merged == sorted(merged)
        assert len(merged) == 9


class TestStreamInWindows:
    def test_batches_by_time(self):
        tweets = [_tweet(1, t) for t in (0.0, 5.0, 12.0, 13.0, 29.0)]
        batches = list(stream_in_windows(tweets, 10.0))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert batches[2][0].timestamp == 29.0

    def test_no_empty_batches(self):
        tweets = [_tweet(1, 0.0), _tweet(1, 100.0)]
        batches = list(stream_in_windows(tweets, 10.0))
        assert len(batches) == 2

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            list(stream_in_windows([], 0.0))

    def test_empty_stream(self):
        assert list(stream_in_windows([], 10.0)) == []

