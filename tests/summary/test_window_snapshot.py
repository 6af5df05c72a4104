"""A windowed answer is a snapshot, merged when read, outside the lock.

``SummaryStore.query`` plans under the store lock and hands back the
covering tiles; their merge runs when the answer is first read.  These
tests pin what that promises: ingest, finalization and rollup after the
query cannot change a held answer, and reading it never waits for the
store lock.
"""

import threading

import numpy as np

from repro.data.schema import Tweet
from repro.summary.store import SummaryStore
from tests.summary.test_equivalence import AREAS, WORLD, reference


def tweet(user: int, ts: float, area: int) -> Tweet:
    center = AREAS[area].center
    return Tweet(user_id=user, timestamp=float(ts), lat=center.lat, lon=center.lon)


def first_hour() -> list[Tweet]:
    """Two users hopping between areas; the last tweet leaves the hour's
    last minute (3540) open."""
    return [tweet(k % 2, 30.0 * k + 7, k % len(AREAS)) for k in range(119)]


def test_held_answer_keeps_the_state_at_query_time():
    tweets = first_hour()
    store = SummaryStore(WORLD)
    store.ingest(tweets)
    held = store.query(0, 3600)
    assert held.tiles_used == {"minute": 60}

    # More tweets into the held open minute, then one past the hour:
    # that finalizes the minute and rolls the hour up.
    store.ingest([tweet(2, 3550, 1), tweet(0, 3555, 3), tweet(2, 3590, 4)])
    store.ingest([tweet(1, 3605, 2)])
    assert store.stats()["tiles"]["hour"] == 1
    now = store.query(0, 3600)
    assert now.tiles_used == {"hour": 1}
    assert now.n_tweets == held.n_tweets + 3

    tweet_counts, user_counts, flow, n_tweets = reference(tweets, 0, 3600)
    assert np.array_equal(held.tweet_counts, tweet_counts)
    assert np.array_equal(held.user_counts, user_counts)
    assert np.array_equal(held.flow_matrix, flow)
    assert held.n_tweets == n_tweets
    assert held.n_transitions == flow.sum() > 0
    assert not np.array_equal(now.flow_matrix, held.flow_matrix)


def test_reading_an_answer_does_not_wait_for_the_store_lock():
    store = SummaryStore(WORLD)
    store.ingest(first_hour())
    result = store.query(0, 3600)
    held, release = threading.Event(), threading.Event()

    def hold_lock() -> None:
        with store._lock:
            held.set()
            release.wait(30)

    read: dict = {}

    def read_answer() -> None:
        read["tweets"] = result.tweet_counts
        read["users"] = result.user_counts
        read["cells"] = result.flow_cells()

    holder = threading.Thread(target=hold_lock)
    reader = threading.Thread(target=read_answer)
    holder.start()
    try:
        assert held.wait(10)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "reading the answer waited for the store lock"
    finally:
        release.set()
        holder.join()
        if reader.ident is not None:  # started
            reader.join()
    assert read["tweets"].sum() > 0
    assert read["users"].sum() > 0
    assert read["cells"][2].sum() == result.n_transitions > 0
