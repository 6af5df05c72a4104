"""Property: interned user ids never show at the store's seams.

A :class:`SummaryStore` numbers raw user ids (anything in
``[0, 2**63)``) with dense ids of its own.  Hypothesis drives streams of
raw ids — ids above ``2**53`` and ``2**63 - 1`` among them — through
every place where ids cross into a store:

1. ``install_minutes`` of a backfilled prefix, with its ``last_label``
   seed;
2. live ingest that reuses the prefix's users;
3. ``flush()`` (the drain hook), then ``recover()`` into a fresh store;
4. more live ingest.

After steps 2 and 4 every queried window must equal a recompute over
the raw ids: per-area tweets, distinct users (a user seen on both sides
of a seam counts once) and flows.  A restart forgets OD positions
(documented), so the recompute's flows reset there too.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import label_points, membership_points
from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Scale, areas_for_scale
from repro.data.schema import Tweet
from repro.pipeline.store import ArtifactStore
from repro.summary import store as store_module
from repro.summary.backfill import build_minute_buckets
from repro.summary.store import SummaryStore
from repro.summary.tiers import window_align

AREAS = areas_for_scale(Scale.NATIONAL)[:5]
WORLD = World.from_areas(AREAS, radius_km=50.0)
OUTBACK = (-25.0, 125.0)

raw_ids = st.one_of(
    st.integers(0, 2**63 - 1),
    st.sampled_from([0, 2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 2, 2**63 - 1]),
)


@st.composite
def seamed_streams(draw):
    """``(prefix, live, after, live_cut)``: a time-ordered stream in three
    parts over one pool of raw user ids; ``after`` starts a minute past
    the others, so a recovered store accepts it."""
    pool = draw(st.lists(raw_ids, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(2, 50))
    rows = draw(
        st.lists(
            st.tuples(
                st.floats(0.5, 300.0),
                st.integers(0, len(pool) - 1),
                st.integers(0, len(AREAS)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    first_cut = draw(st.integers(1, n))
    second_cut = draw(st.integers(first_cut, n))
    timestamps = np.cumsum([gap for gap, _, _ in rows])
    timestamps[second_cut:] += 60.0
    tweets = []
    for ts, (_, user, place) in zip(timestamps.tolist(), rows):
        lat, lon = OUTBACK if place == len(AREAS) else (
            AREAS[place].center.lat, AREAS[place].center.lon
        )
        tweets.append(Tweet(user_id=pool[user], timestamp=ts, lat=lat, lon=lon))
    live = tweets[first_cut:second_cut]
    live_cut = draw(st.integers(0, len(live)))
    return tweets[:first_cut], live, tweets[second_cut:], live_cut


def recompute(tweets: list[Tweet], restart: int, t0: float, t1: float):
    """Per-area tweets and distinct raw users over the effective window,
    and the flows of a full replay whose positions reset before row
    ``restart``."""
    q0, q1 = window_align(t0, t1)
    lats = np.array([t.lat for t in tweets])
    lons = np.array([t.lon for t in tweets])
    labels = label_points(WORLD, lats, lons).tolist()
    membership = membership_points(WORLD, lats, lons)
    tweet_counts = np.zeros(WORLD.n_areas, dtype=np.int64)
    users: list[set[int]] = [set() for _ in range(WORLD.n_areas)]
    flows = np.zeros((WORLD.n_areas, WORLD.n_areas), dtype=np.int64)
    last: dict[int, int] = {}
    for row, tweet in enumerate(tweets):
        inside = q0 <= tweet.timestamp < q1
        if inside:
            for area in np.flatnonzero(membership[row]).tolist():
                tweet_counts[area] += 1
                users[area].add(tweet.user_id)
        if row == restart:
            last.clear()
        previous, label = last.get(tweet.user_id, -1), labels[row]
        last[tweet.user_id] = label
        if inside and previous >= 0 and label >= 0 and previous != label:
            flows[previous, label] += 1
    return tweet_counts, np.array([len(s) for s in users], dtype=np.int64), flows


def assert_windows(store: SummaryStore, tweets: list[Tweet], restart: int, spans) -> None:
    horizon = tweets[-1].timestamp
    for t0, t1 in [(tweets[0].timestamp, horizon + 1.0), *spans]:
        tweet_counts, user_counts, flows = recompute(tweets, restart, t0, t1)
        result = store.query(t0, t1)
        assert np.array_equal(result.tweet_counts, tweet_counts)
        assert np.array_equal(result.user_counts, user_counts)
        assert np.array_equal(result.flow_matrix, flows)


def inside_a_disc(tweets: list[Tweet]) -> set[int]:
    """Users of ``tweets`` with a tweet inside some area's disc."""
    lats = np.array([t.lat for t in tweets])
    lons = np.array([t.lon for t in tweets])
    member = membership_points(WORLD, lats, lons).any(axis=1)
    return {t.user_id for t, inside in zip(tweets, member.tolist()) if inside}


@settings(max_examples=40, deadline=None)
@given(
    seamed_streams(),
    st.lists(
        st.tuples(st.floats(0.0, 15000.0), st.floats(1.0, 8000.0)).map(
            lambda w: (w[0], w[0] + w[1])
        ),
        max_size=4,
    ),
)
def test_windows_equal_raw_id_recompute_across_seams(case, spans):
    prefix, live, after, live_cut = case
    tiles = build_minute_buckets(WORLD, TweetCorpus.from_tweets(prefix))
    with tempfile.TemporaryDirectory() as root:
        first = SummaryStore(WORLD, artifacts=ArtifactStore(root), namespace="seam")
        first.install_minutes(tiles.minutes, tiles.watermark, last_label=tiles.last_label)
        first.ingest(live[:live_cut])
        first.ingest(live[live_cut:])
        before = prefix + live
        assert_windows(first, before, len(before), spans)
        assert first.stats()["tracked_users"] == len({t.user_id for t in before})

        first.flush()
        second = SummaryStore(WORLD, artifacts=ArtifactStore(root), namespace="seam")
        second.recover()
        second.ingest(after)
        assert_windows(second, before + after, len(before), spans)

    stats = second.stats()
    assert stats["tracked_users"] == len({t.user_id for t in after})
    assert stats["interned_users"] == len(inside_a_disc(before) | {t.user_id for t in after})


def test_interned_users_differ_from_tracked_users():
    """Backfilled tiles without a seed intern users with no OD position;
    live ingest over overlapping users interns each user once."""
    centre = [(area.center.lat, area.center.lon) for area in AREAS]
    big = 2**63 - 1
    prefix = [Tweet(u, 10.0 * k, *centre[k % 5]) for k, u in enumerate((1, 2**60, big, 7))]
    tiles = build_minute_buckets(WORLD, TweetCorpus.from_tweets(prefix))
    store = SummaryStore(WORLD)
    store.install_minutes(tiles.minutes, tiles.watermark)
    assert store.stats()["interned_users"] == 4
    assert store.stats()["tracked_users"] == 0
    store.ingest(
        [Tweet(big, 100.0, *centre[2]), Tweet(7, 101.0, *centre[0]), Tweet(99, 102.0, *centre[0])]
    )
    stats = store.stats()
    assert (stats["interned_users"], stats["tracked_users"]) == (5, 3)
    whole = store.query(0.0, 200.0)
    assert whole.tweet_counts.tolist() == [3, 1, 2, 1, 0]
    assert whole.user_counts.tolist() == [3, 1, 1, 1, 0]


def test_intern_table_refuses_ids_that_would_not_pack(monkeypatch):
    monkeypatch.setattr(store_module, "_MAX_USERS", 3)
    store = SummaryStore(WORLD)
    centre = AREAS[0].center
    store.ingest([Tweet(u, 1.0 + u, centre.lat, centre.lon) for u in range(3)])
    with pytest.raises(OverflowError, match="at most 3 user ids"):
        store.ingest([Tweet(u, 10.0 + u, centre.lat, centre.lon) for u in (1, 5, 6)])
    assert store.stats()["interned_users"] == 3
    store.ingest([Tweet(2, 20.0, centre.lat, centre.lon)])
    assert store.query(0.0, 60.0).user_counts[0] == 3
