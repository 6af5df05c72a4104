"""The query planner: bisected cover ≡ the minute-walk cover it replaced.

``minute_walk_cover`` is the planner ``SummaryStore.query`` used to run:
walk the window minute by minute, take the coarsest aligned tile that
fits, else step one minute.  Its cost grows with the window's length;
the store's planner jumps between tile starts instead.  Both must pick
the same tiles in the same order for every inventory and window, and
the stitched answer must equal merging those tiles.
"""

import math
import tempfile
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulate import PopulationAccumulator
from repro.core.world import World
from repro.data.gazetteer import Scale, areas_for_scale
from repro.data.schema import Tweet
from repro.pipeline.store import ArtifactStore
from repro.summary.store import SummaryStore
from repro.summary.tiers import (
    COARSE_FIRST,
    SummaryBucket,
    TimeTier,
    build_tiles,
    window_align,
)

AREAS = areas_for_scale(Scale.NATIONAL)[:4]
WORLD = World.from_areas(AREAS, radius_km=50.0)
DAY = TimeTier.DAY.span_seconds
HORIZON_DAYS = 3


def minute_walk_cover(store: SummaryStore, q0: int, q1: int) -> list[SummaryBucket]:
    """The reference planner: one step per minute of ``[q0, q1)``."""
    covering = []
    t = q0
    while t < q1:
        step = TimeTier.MINUTE.span_seconds
        bucket = None
        for tier in COARSE_FIRST:
            span = tier.span_seconds
            if t % span or t + span > q1:
                continue
            bucket = store._tiles[tier].get(t)
            if bucket is None and tier is TimeTier.MINUTE:
                bucket = store._minute_open.get(t)
            if bucket is not None:
                step = span
                break
        if bucket is not None:
            covering.append(bucket)
        t += step
    return covering


def assert_answer_matches(store: SummaryStore, t0: float, t1: float) -> None:
    """``store.query`` ≡ merging the minute-walk cover's tiles."""
    q0, q1 = window_align(t0, t1)
    covering = minute_walk_cover(store, q0, q1)
    def keys(tiles):
        return [(tile.tier, tile.start) for tile in tiles]

    assert keys(store._cover(q0, q1)) == keys(covering)
    # Replay each tile's columns into one accumulator: the merged
    # accumulator's counts are what the stitched answer must equal.
    merged = PopulationAccumulator(WORLD.n_areas)
    od: Counter = Counter()
    for bucket in covering:
        part = PopulationAccumulator(WORLD.n_areas)
        for area, user, tweets in zip(
            bucket.areas.tolist(), bucket.users.tolist(), bucket.tweets.tolist()
        ):
            for _ in range(tweets):
                part.add([area], user)
        merged.merge(part)
        for source, dest, count in zip(
            bucket.sources.tolist(), bucket.dests.tolist(), bucket.counts.tolist()
        ):
            od[source, dest] += count
    flows = np.zeros((WORLD.n_areas, WORLD.n_areas), dtype=np.int64)
    for (source, dest), count in od.items():
        flows[source, dest] = count
    result = store.query(t0, t1)
    assert (result.t0, result.t1) == (q0, q1)
    assert np.array_equal(result.tweet_counts, merged.tweet_counts())
    assert np.array_equal(result.user_counts, merged.user_counts())
    assert np.array_equal(result.flow_matrix, flows)
    assert result.n_tweets == sum(b.n_tweets for b in covering)
    assert result.n_transitions == sum(od.values())
    assert result.buckets_touched == len(covering)
    used = Counter(b.tier.name.lower() for b in covering)
    assert list(result.tiles_used.items()) == list(used.items())


def filled_tile(tier: TimeTier, start: int, seed: int) -> SummaryBucket:
    """A tile with a few deterministic users and transitions."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(0, 4))
    rows = [
        sorted(set(rng.integers(0, WORLD.n_areas, size=2).tolist()))
        for _ in range(n_rows)
    ]
    users = [int(rng.integers(0, 6)) for _ in range(n_rows)]
    source, dest = rng.choice(WORLD.n_areas, size=2, replace=False).tolist()
    moves = int(rng.integers(1, 3))
    # A row-less tile still carries its transitions: give them a row
    # that lies in no disc.
    if not rows:
        rows, users = [[]], [0]
    (tile,) = build_tiles(
        tier,
        WORLD.n_areas,
        np.full(len(rows), start, dtype=np.int64),
        np.array(users, dtype=np.int64),
        np.cumsum([0] + [len(areas) for areas in rows]),
        np.array([area for areas in rows for area in areas], dtype=np.int64),
        (
            np.full(moves, start, dtype=np.int64),
            np.full(moves, source, dtype=np.int64),
            np.full(moves, dest, dtype=np.int64),
        ),
    )
    return tile


@st.composite
def inventories(draw):
    """A store holding an arbitrary mix of day, hour, minute and open tiles."""
    days = draw(st.sets(st.integers(0, HORIZON_DAYS - 1)))
    hours = draw(st.sets(st.integers(0, 24 * HORIZON_DAYS - 1), max_size=20))
    minutes = draw(st.sets(st.integers(0, 1440 * HORIZON_DAYS - 1), max_size=40))
    open_minutes = draw(
        st.sets(st.integers(0, 1440 * HORIZON_DAYS - 1), max_size=3)
    ) - minutes
    store = SummaryStore(WORLD, namespace="plan")
    seed = 0
    for tier, indices in (
        (TimeTier.DAY, days),
        (TimeTier.HOUR, hours),
        (TimeTier.MINUTE, minutes),
    ):
        for index in sorted(indices, key=lambda i: (i * 7919) % 101):
            seed += 1
            store._install_tile(filled_tile(tier, index * tier.span_seconds, seed))
    for index in open_minutes:
        seed += 1
        start = index * TimeTier.MINUTE.span_seconds
        store._minute_open[start] = filled_tile(TimeTier.MINUTE, start, seed)
    return store


windows = st.tuples(
    st.floats(-2 * 3600.0, (HORIZON_DAYS + 0.1) * DAY),
    st.floats(1.0, (HORIZON_DAYS + 1) * DAY),
)


class TestCoverEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(inventories(), st.lists(windows, min_size=1, max_size=4))
    def test_random_inventories_and_unaligned_windows(self, store, spans):
        for t0, length in spans:
            assert_answer_matches(store, t0, t0 + length)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 2.5 * DAY),
                st.integers(0, 5),
                st.integers(0, WORLD.n_areas - 1),
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(windows, min_size=1, max_size=6),
    )
    def test_recovered_tiles_plus_live_ingest(self, stream, spans):
        """Tiles recovered from disk, rolled up live, and open minutes."""
        stream.sort()
        cut = len(stream) // 2
        tweets = [
            Tweet(
                user_id=user,
                timestamp=ts,
                lat=AREAS[area].center.lat,
                lon=AREAS[area].center.lon,
            )
            for ts, user, area in stream
        ]
        with tempfile.TemporaryDirectory() as root:
            artifacts = ArtifactStore(root)
            first = SummaryStore(WORLD, artifacts=artifacts, namespace="plan")
            first.ingest(tweets[:cut])
            store = SummaryStore(WORLD, artifacts=artifacts, namespace="plan")
            store.recover()
            store.ingest(tweets[cut:])
            for t0, length in spans:
                assert_answer_matches(store, t0, t0 + length)


class CountingDict(dict):
    """A dict that counts key lookups in ``lookups[0]``."""

    def __init__(self, data, lookups):
        super().__init__(data)
        self.lookups = lookups

    def __getitem__(self, key):
        self.lookups[0] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups[0] += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups[0] += 1
        return super().__contains__(key)


class TestPlanningCost:
    def test_ten_year_window_touches_only_present_tiles(self):
        store = SummaryStore(WORLD, namespace="plan")
        centre = [(a.center.lat, a.center.lon) for a in AREAS]
        store.ingest(
            [
                Tweet(1, 10.0, *centre[0]),
                Tweet(1, 70.0, *centre[1]),  # 0 -> 1
                Tweet(2, 3700.0, *centre[2]),
                Tweet(1, 90000.0, *centre[0]),  # 1 -> 0, day 1
                Tweet(3, 200000.0, *centre[3]),
                Tweet(3, 200100.0, *centre[3]),  # stays open
            ]
        )
        inventory = sum(len(tiles) for tiles in store._tiles.values())
        inventory += len(store._minute_open)
        lookups = [0]
        store._tiles = {
            tier: CountingDict(tiles, lookups)
            for tier, tiles in store._tiles.items()
        }
        store._minute_open = CountingDict(store._minute_open, lookups)
        years = 10 * 365 * DAY
        result = store.query(-years / 2, years / 2)
        # The minute walk would make ~3 lookups for each of 5.3M minutes.
        assert lookups[0] <= inventory
        assert result.tiles_used == {"day": 2, "minute": 2}
        assert result.n_tweets == 6
        assert result.n_transitions == 2
        assert result.tweet_counts.sum() == 6
        assert math.isclose(result.staleness_seconds, years / 2 - 200100.0)
        lookups[0] = 0
        # The same tiles answer the tight window the reference walks.
        assert_answer_matches(store, 0, 200160)
        whole = store.query(0, 200160)
        assert np.array_equal(result.tweet_counts, whole.tweet_counts)
        assert np.array_equal(result.user_counts, whole.user_counts)
        assert np.array_equal(result.flow_matrix, whole.flow_matrix)
        assert result.buckets_touched == whole.buckets_touched
