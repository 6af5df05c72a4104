"""Tests for repro.data.corpus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.corpus import TweetCorpus
from repro.data.schema import Tweet
from repro.geo.bbox import BoundingBox


def _tweet(user, ts, lat=-33.0, lon=151.0, tid=-1):
    return Tweet(user_id=user, timestamp=float(ts), lat=lat, lon=lon, tweet_id=tid)


@pytest.fixture
def tiny_corpus():
    """Two users; user 1 has 3 tweets 1 h apart, user 2 has 2 tweets."""
    tweets = [
        _tweet(1, 3600.0, lat=-33.0),
        _tweet(1, 0.0, lat=-33.0),
        _tweet(1, 7200.0, lat=-34.0),
        _tweet(2, 100.0, lat=-35.0),
        _tweet(2, 200.0, lat=-35.0),
    ]
    return TweetCorpus.from_tweets(tweets)


class TestConstruction:
    def test_sorted_by_user_then_time(self, tiny_corpus):
        assert tiny_corpus.user_ids.tolist() == [1, 1, 1, 2, 2]
        assert tiny_corpus.timestamps.tolist() == [0.0, 3600.0, 7200.0, 100.0, 200.0]

    def test_len_and_users(self, tiny_corpus):
        assert len(tiny_corpus) == 5
        assert tiny_corpus.n_users == 2
        assert tiny_corpus.unique_users.tolist() == [1, 2]

    def test_empty_corpus(self):
        corpus = TweetCorpus.from_tweets([])
        assert len(corpus) == 0
        assert corpus.n_users == 0
        assert corpus.stats().n_tweets == 0

    def test_from_arrays_default_ids(self):
        corpus = TweetCorpus.from_arrays(
            user_ids=np.array([2, 1]),
            timestamps=np.array([1.0, 2.0]),
            lats=np.zeros(2),
            lons=np.zeros(2),
        )
        assert len(corpus) == 2
        assert corpus.user_ids.tolist() == [1, 2]

    def test_mismatched_columns_raise(self):
        with pytest.raises(ValueError):
            TweetCorpus(
                tweet_ids=np.zeros(2, dtype=np.int64),
                user_ids=np.zeros(3, dtype=np.int64),
                timestamps=np.zeros(3),
                lats=np.zeros(3),
                lons=np.zeros(3),
            )

    def test_iter_tweets_roundtrip(self, tiny_corpus):
        back = TweetCorpus.from_tweets(tiny_corpus.iter_tweets())
        assert np.array_equal(back.timestamps, tiny_corpus.timestamps)
        assert np.array_equal(back.user_ids, tiny_corpus.user_ids)


class TestUserAccess:
    def test_user_slice(self, tiny_corpus):
        sl = tiny_corpus.user_slice(1)
        assert tiny_corpus.timestamps[sl].tolist() == [0.0, 3600.0, 7200.0]

    def test_user_slice_missing_raises(self, tiny_corpus):
        with pytest.raises(KeyError):
            tiny_corpus.user_slice(99)

    def test_tweets_per_user(self, tiny_corpus):
        assert tiny_corpus.tweets_per_user().tolist() == [3, 2]

    def test_users_with_at_least(self, tiny_corpus):
        assert tiny_corpus.users_with_at_least(3) == 1
        assert tiny_corpus.users_with_at_least(2) == 2
        assert tiny_corpus.users_with_at_least(4) == 0


class TestWaitingTimes:
    def test_waiting_times_exclude_cross_user_gaps(self, tiny_corpus):
        waits = tiny_corpus.waiting_times_seconds()
        assert sorted(waits.tolist()) == [100.0, 3600.0, 3600.0]

    def test_single_tweet_corpus_has_no_waits(self):
        corpus = TweetCorpus.from_tweets([_tweet(1, 0.0)])
        assert corpus.waiting_times_seconds().size == 0


class TestLocations:
    def test_distinct_locations_rounding(self, tiny_corpus):
        # User 1 has two distinct rounded positions, user 2 has one.
        locations = tiny_corpus.distinct_locations_per_user()
        assert locations.tolist() == [2, 1]


def _per_user_unique_locations(corpus, round_decimals=4):
    """The per-user ``np.unique(axis=0)`` loop the one-sort count replaced."""
    lats = np.round(corpus.lats, round_decimals)
    lons = np.round(corpus.lons, round_decimals)
    counts = np.empty(corpus.n_users, dtype=np.int64)
    starts = np.searchsorted(corpus.user_ids, corpus.unique_users)
    for i, (start, count) in enumerate(zip(starts, corpus.tweets_per_user())):
        stop = start + count
        pairs = np.stack([lats[start:stop], lons[start:stop]], axis=1)
        counts[i] = np.unique(pairs, axis=0).shape[0]
    return counts


# A small pool makes exact repeats common; the tiny values round to
# -0.0 or 0.0 at every tested precision.
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 4e-7, -4e-7, -3e-5, 3e-5, -33.86785, 151.20732]),
    st.floats(-90.0, 90.0, allow_nan=False),
)


@st.composite
def _corpora(draw):
    n = draw(st.integers(0, 40))
    users = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    lats = draw(st.lists(_COORDS, min_size=n, max_size=n))
    lons = draw(st.lists(_COORDS, min_size=n, max_size=n))
    return TweetCorpus.from_arrays(users, np.arange(n, dtype=np.float64), lats, lons)


class TestDistinctLocationsMatchPerUserUnique:
    @given(_corpora(), st.sampled_from([0, 1, 2, 4, 6]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_user_unique(self, corpus, round_decimals):
        got = corpus.distinct_locations_per_user(round_decimals)
        expected = _per_user_unique_locations(corpus, round_decimals)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_empty_corpus(self):
        corpus = TweetCorpus.from_arrays([], [], [], [])
        assert corpus.distinct_locations_per_user().shape == (0,)

    def test_single_tweet_users(self):
        corpus = TweetCorpus.from_arrays([3, 1, 2], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0] * 3)
        assert corpus.distinct_locations_per_user().tolist() == [1, 1, 1]

    def test_signed_zero_is_one_location(self):
        corpus = TweetCorpus.from_arrays(
            [1, 1, 1, 1], [0.0, 1.0, 2.0, 3.0], [-0.0, 0.0, -3e-5, 3e-5], [0.0, -0.0, 0.0, 0.0]
        )
        assert corpus.distinct_locations_per_user().tolist() == [1]
        assert _per_user_unique_locations(corpus).tolist() == [1]


class TestStatsAndSubset:
    def test_stats_values(self, tiny_corpus):
        stats = tiny_corpus.stats()
        assert stats.n_tweets == 5
        assert stats.n_users == 2
        assert stats.avg_tweets_per_user == pytest.approx(2.5)
        assert stats.avg_waiting_time_hours == pytest.approx(
            (3600 + 3600 + 100) / 3 / 3600
        )
        assert stats.min_lat == -35.0

    def test_subset_mask(self, tiny_corpus):
        subset = tiny_corpus.subset(tiny_corpus.user_ids == 1)
        assert len(subset) == 3
        assert subset.n_users == 1

    def test_subset_bad_mask_raises(self, tiny_corpus):
        with pytest.raises(ValueError):
            tiny_corpus.subset(np.ones(3, dtype=bool))

    def test_filter_bbox(self, tiny_corpus):
        box = BoundingBox(min_lat=-33.5, max_lat=-30.0, min_lon=150.0, max_lon=152.0)
        kept = tiny_corpus.subset(box.contains_mask(tiny_corpus.lats, tiny_corpus.lons))
        assert len(kept) == 2  # only the two -33.0 tweets


class TestGeneratedCorpus:
    def test_generated_corpus_is_sorted(self, small_corpus):
        same_user = small_corpus.user_ids[1:] == small_corpus.user_ids[:-1]
        deltas = np.diff(small_corpus.timestamps)
        assert np.all(deltas[same_user] >= 0)

    def test_counts_consistent(self, small_corpus):
        assert small_corpus.tweets_per_user().sum() == len(small_corpus)
        assert small_corpus.n_users == 2_000
