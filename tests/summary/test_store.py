"""SummaryStore behaviour: ingest, rollup, persistence, queries."""

import numpy as np
import pytest

from repro.core.world import World
from repro.data.gazetteer import Scale, areas_for_scale
from repro.data.schema import Tweet
from repro.pipeline.store import ArtifactStore
from repro.summary.store import SummaryStore
from repro.summary.tiers import SummaryBucket, TimeTier, build_tiles

AREAS = areas_for_scale(Scale.NATIONAL)[:5]
WORLD = World.from_areas(AREAS, radius_km=50.0)
OUTBACK = (-25.0, 125.0)


def tweet(user: int, ts: float, area: int | None = 0) -> Tweet:
    if area is None:
        lat, lon = OUTBACK
    else:
        lat, lon = AREAS[area].center.lat, AREAS[area].center.lon
    return Tweet(user_id=user, timestamp=float(ts), lat=lat, lon=lon)


def fresh_store(artifacts=None, namespace="test") -> SummaryStore:
    return SummaryStore(WORLD, artifacts=artifacts, namespace=namespace)


class TestIngest:
    def test_boundary_tweet_lands_in_later_bucket(self):
        store = fresh_store()
        store.ingest([tweet(1, 59.0), tweet(2, 60.0), tweet(3, 3600.0)])
        first = store.query(0, 60)
        second = store.query(60, 120)
        assert first.n_tweets == 1
        assert second.n_tweets == 1

    def test_out_of_order_batch_sorted_internally(self):
        shuffled = fresh_store()
        shuffled.ingest([tweet(1, 90.0, 1), tweet(1, 30.0, 0), tweet(1, 60.0, 2)])
        ordered = fresh_store()
        ordered.ingest([tweet(1, 30.0, 0), tweet(1, 60.0, 2), tweet(1, 90.0, 1)])
        a = shuffled.query(0, 120)
        b = ordered.query(0, 120)
        assert np.array_equal(a.tweet_counts, b.tweet_counts)
        assert np.array_equal(a.flow_matrix, b.flow_matrix)
        assert a.n_transitions == b.n_transitions == 2

    def test_late_tweets_dropped_and_counted(self):
        store = fresh_store()
        store.ingest([tweet(1, 100.0)])
        outcome = store.ingest([tweet(2, 50.0), tweet(3, 150.0)])
        assert outcome.accepted == 1
        assert outcome.dropped_late == 1
        assert store.stats()["dropped_late"] == 1

    def test_empty_batch_does_not_bump_version(self):
        store = fresh_store()
        before = store.version
        outcome = store.ingest([])
        assert outcome.accepted == 0
        assert store.version == before

    def test_version_bumps_on_ingest(self):
        store = fresh_store()
        v0 = store.version
        store.ingest([tweet(1, 10.0)])
        assert store.version > v0

    def test_unlabelled_tweet_counts_nowhere_but_moves_user(self):
        store = fresh_store()
        store.ingest(
            [tweet(1, 10.0, 0), tweet(1, 70.0, None), tweet(1, 130.0, 1)]
        )
        result = store.query(0, 180)
        assert result.tweet_counts.sum() == 2  # outback tweet in no disc
        # the unlabelled tweet reset the user's OD position: no 0 -> 1
        assert result.n_transitions == 0


class TestRollup:
    def test_hours_roll_up_once_watermark_passes(self):
        store = fresh_store()
        tweets = [tweet(i % 7, ts, i % 5) for i, ts in enumerate(range(0, 7200, 30))]
        store.ingest(tweets)
        tiles = store.stats()["tiles"]
        assert tiles["hour"] == 1  # hour 0 is fully behind the watermark
        aligned = store.query(0, 3600)
        assert aligned.tiles_used == {"hour": 1}
        assert aligned.buckets_touched == 1

    def test_partial_window_falls_through_to_minutes(self):
        store = fresh_store()
        tweets = [tweet(1, ts) for ts in range(0, 7200, 30)]
        store.ingest(tweets)
        partial = store.query(60, 3600)  # not hour-aligned at the left
        assert "hour" not in partial.tiles_used
        assert partial.n_tweets == (3600 - 60) // 30

    def test_mixed_tier_stitch_equals_minute_stitch(self):
        store = fresh_store()
        tweets = [tweet(i % 3, ts, i % 5) for i, ts in enumerate(range(0, 7260, 20))]
        store.ingest(tweets)
        whole = store.query(0, 3600)  # hour-aligned: one hour tile
        assert whole.tiles_used == {"hour": 1}
        # the same span split at a non-hour boundary must stitch from
        # minutes and add up to the identical totals
        left = store.query(0, 1800)
        right = store.query(1800, 3600)
        assert left.tiles_used == {"minute": 30}
        assert whole.n_tweets == left.n_tweets + right.n_tweets
        assert whole.n_transitions == left.n_transitions + right.n_transitions
        assert np.array_equal(
            whole.tweet_counts, left.tweet_counts + right.tweet_counts
        )
        assert np.array_equal(
            whole.flow_matrix, left.flow_matrix + right.flow_matrix
        )

    def test_empty_window_reports_full_staleness(self):
        store = fresh_store()
        result = store.query(0, 600)
        assert result.n_tweets == 0
        assert result.buckets_touched == 0
        assert result.staleness_seconds == 600.0

    def test_staleness_zero_when_watermark_covers_window(self):
        store = fresh_store()
        store.ingest([tweet(1, 10.0), tweet(1, 700.0)])
        assert store.query(0, 600).staleness_seconds == 0.0

    def test_staleness_is_uncovered_tail(self):
        store = fresh_store()
        store.ingest([tweet(1, 300.0)])
        assert store.query(0, 600).staleness_seconds == 300.0


class TestPersistence:
    def test_finalized_tiles_recovered_without_replay(self, tmp_path):
        artifacts = ArtifactStore(tmp_path)
        store = fresh_store(artifacts)
        tweets = [tweet(i % 7, ts, i % 5) for i, ts in enumerate(range(0, 7200, 30))]
        store.ingest(tweets)
        # [0, 7140) is wholly finalized: the watermark (7170) passed
        # every minute in it; only the open tail minute is unpersisted.
        before = store.query(0, 7140)

        reborn = fresh_store(artifacts)
        recovered = reborn.recover()
        assert recovered > 0
        after = reborn.query(0, 7140)
        assert np.array_equal(after.tweet_counts, before.tweet_counts)
        assert np.array_equal(after.user_counts, before.user_counts)
        assert np.array_equal(after.flow_matrix, before.flow_matrix)

    def test_recover_on_empty_store_is_noop(self, tmp_path):
        store = fresh_store(ArtifactStore(tmp_path))
        assert store.recover() == 0
        assert store.version == 0

    def test_namespaces_isolate_tiles(self, tmp_path):
        artifacts = ArtifactStore(tmp_path)
        a = fresh_store(artifacts, namespace="a")
        a.ingest([tweet(1, 10.0), tweet(1, 70.0)])
        b = fresh_store(artifacts, namespace="b")
        assert b.recover() == 0

    def test_bad_namespace_rejected(self):
        with pytest.raises(ValueError, match="namespace"):
            SummaryStore(WORLD, namespace="a/b")
        with pytest.raises(ValueError, match="namespace"):
            SummaryStore(WORLD, namespace="")


class TestInstallMinutes:
    def _bucket(self, start, user=1, area=0):
        (bucket,) = build_tiles(
            TimeTier.MINUTE,
            WORLD.n_areas,
            np.array([start]),
            np.array([user]),
            np.array([0, 1]),
            np.array([area]),
            (np.empty(0, dtype=np.int64),) * 3,
        )
        return bucket

    def test_install_is_idempotent(self):
        store = fresh_store()
        buckets = [self._bucket(0), self._bucket(60)]
        assert store.install_minutes(buckets, watermark=120.0) == 2
        assert store.install_minutes(buckets, watermark=120.0) == 0
        assert store.query(0, 120).n_tweets == 2

    def test_install_rejects_non_minute_tiles(self):
        store = fresh_store()
        stray = SummaryBucket(TimeTier.HOUR, 0, WORLD.n_areas)
        with pytest.raises(ValueError, match="HOUR"):
            store.install_minutes([stray], watermark=3600.0)

    def test_install_rejects_area_mismatch(self):
        store = fresh_store()
        stray = SummaryBucket(TimeTier.MINUTE, 0, WORLD.n_areas + 1)
        with pytest.raises(ValueError, match="areas"):
            store.install_minutes([stray], watermark=60.0)

    def test_last_label_seeds_live_transitions(self):
        store = fresh_store()
        store.install_minutes(
            [self._bucket(0, user=9, area=0)], watermark=60.0,
            last_label={9: 0},
        )
        store.ingest([tweet(9, 70.0, 1)])
        assert store.query(0, 180).flow_matrix[0, 1] == 1


class TestRollupSchedule:
    """Hour and day tiles appear exactly when the watermark reaches
    their end, whichever path scheduled their rollup: live minutes,
    recovered tiles or installed minutes."""

    @staticmethod
    def assert_tile_appears_at(store: SummaryStore, tier: str, end: int) -> None:
        before = store.stats()["tiles"][tier]
        store.ingest([tweet(1, end - 1.0)])
        assert store.stats()["tiles"][tier] == before
        store.ingest([tweet(2, float(end))])
        assert store.stats()["tiles"][tier] == before + 1

    @staticmethod
    def assert_rollup_due_at(make_store, tier: str, end: int) -> None:
        """Two stores from ``make_store``, neither holding an open
        minute: one tweet just before ``end`` adds no ``tier`` tile, and
        one past ``end`` adds it.  The jump finalizes no minute, so no
        live-path schedule can stand in for the one ``make_store`` made."""
        early = make_store()
        before = early.stats()["tiles"][tier]
        early.ingest([tweet(1, end - 1.0)])
        assert early.stats()["tiles"][tier] == before
        late = make_store()
        late.ingest([tweet(1, end + 90.0)])
        assert late.stats()["tiles"][tier] == before + 1

    def test_live_minutes(self):
        store = fresh_store()
        store.ingest([tweet(1, 10.0)])
        self.assert_tile_appears_at(store, "hour", 3600)
        self.assert_tile_appears_at(store, "day", 86400)
        # Hours 1 and 23 rolled up on the way there.
        assert store.stats()["tiles"]["hour"] == 3

    def test_after_recovering_minutes(self, tmp_path):
        artifacts = ArtifactStore(tmp_path)
        fresh_store(artifacts).ingest([tweet(1, 10.0), tweet(1, 70.0), tweet(1, 130.0)])

        def reborn() -> SummaryStore:
            store = fresh_store(artifacts)
            assert store.recover() == 2  # minutes 0 and 60; 120 was open
            assert store.stats()["tiles"]["hour"] == 0
            return store

        self.assert_rollup_due_at(reborn, "hour", 3600)

    def test_after_recovering_hours(self, tmp_path):
        artifacts = ArtifactStore(tmp_path)
        fresh_store(artifacts).ingest([tweet(1, 10.0), tweet(1, 3600.0)])

        def reborn() -> SummaryStore:
            store = fresh_store(artifacts)
            store.recover()
            assert store.stats()["tiles"] == {"minute": 1, "hour": 1, "day": 0}
            return store

        self.assert_rollup_due_at(reborn, "day", 86400)

    def test_after_installing_minutes(self):
        minute = TestInstallMinutes()._bucket

        def installed() -> SummaryStore:
            store = fresh_store()
            store.install_minutes([minute(0), minute(60)], watermark=120.0)
            assert store.stats()["tiles"]["hour"] == 0
            return store

        self.assert_rollup_due_at(installed, "hour", 3600)

    def test_after_installing_a_whole_hour(self):
        minute = TestInstallMinutes()._bucket

        def installed() -> SummaryStore:
            store = fresh_store()
            store.install_minutes([minute(0)], watermark=3600.0)
            assert store.stats()["tiles"] == {"minute": 1, "hour": 1, "day": 0}
            return store

        self.assert_rollup_due_at(installed, "day", 86400)
