"""Tier arithmetic and tile semantics: boundaries, alignment, rollup,
the tile kernel and the tile codec."""

import pickle

import numpy as np
import pytest

from repro.summary.tiers import (
    ROLLUP_SOURCE,
    StaleTileError,
    SummaryBucket,
    TimeTier,
    bucket_start,
    build_tiles,
    window_align,
)


class TestBucketStart:
    def test_floor_assignment_within_bucket(self):
        assert bucket_start(59.999, TimeTier.MINUTE) == 0
        assert bucket_start(61.0, TimeTier.MINUTE) == 60

    def test_boundary_timestamp_opens_its_own_bucket(self):
        # Half-open [start, start+span): a tweet exactly on a boundary
        # belongs to the bucket that starts there, not the one ending.
        assert bucket_start(60.0, TimeTier.MINUTE) == 60
        assert bucket_start(3600.0, TimeTier.HOUR) == 3600
        assert bucket_start(86400.0, TimeTier.DAY) == 86400

    def test_negative_timestamps_floor_not_truncate(self):
        assert bucket_start(-1.0, TimeTier.MINUTE) == -60
        assert bucket_start(-60.0, TimeTier.MINUTE) == -60
        assert bucket_start(-61.0, TimeTier.MINUTE) == -120

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                bucket_start(bad, TimeTier.MINUTE)

    def test_tier_spans_nest(self):
        assert TimeTier.HOUR.span_seconds % TimeTier.MINUTE.span_seconds == 0
        assert TimeTier.DAY.span_seconds % TimeTier.HOUR.span_seconds == 0
        assert set(ROLLUP_SOURCE) == {TimeTier.HOUR, TimeTier.DAY}


class TestWindowAlign:
    def test_snaps_outward_to_minutes(self):
        assert window_align(61.0, 119.0) == (60, 120)

    def test_aligned_window_unchanged(self):
        assert window_align(60.0, 180.0) == (60, 180)

    def test_sub_minute_window_covers_one_minute(self):
        assert window_align(70.0, 71.0) == (60, 120)

    def test_empty_or_inverted_rejected(self):
        with pytest.raises(ValueError, match="t0 < t1"):
            window_align(60.0, 60.0)
        with pytest.raises(ValueError, match="t0 < t1"):
            window_align(120.0, 60.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            window_align(float("nan"), 60.0)


def _tile(start, tier=TimeTier.MINUTE, n_areas=3):
    return SummaryBucket(tier, start, n_areas)


def _rows_tile(start, rows, moves=(), n_areas=3, tier=TimeTier.MINUTE):
    """One tile from ``rows`` of ``(user, containing areas)`` and ``moves``
    of ``(source, dest)`` transitions, through the tile kernel."""
    rows = list(rows)
    moves = np.array(list(moves), dtype=np.int64).reshape(-1, 2)
    (tile,) = build_tiles(
        tier,
        n_areas,
        np.full(len(rows), start, dtype=np.int64),
        np.array([user for user, _ in rows], dtype=np.int64),
        np.cumsum([0] + [len(areas) for _, areas in rows]),
        np.array([a for _, areas in rows for a in areas], dtype=np.int64),
        (np.full(len(moves), start, dtype=np.int64), moves[:, 0], moves[:, 1]),
    )
    return tile


def _one_tweet_tile(start, n_areas):
    return _rows_tile(start, [(7, [n_areas // 2])], n_areas=n_areas)


class TestSummaryBucket:
    def test_empty_tile_is_zero(self):
        tile = _tile(0)
        assert tile.n_tweets == 0
        assert tile.n_transitions == 0
        assert tile.flow_matrix().sum() == 0
        assert tile.end == 60

    def test_merge_adds_counts_and_unions_users(self):
        a = _rows_tile(0, [(1, [0])], moves=[(0, 1)])
        b = _rows_tile(60, [(1, [0])], moves=[(0, 1), (0, 1)])  # same user
        merged = SummaryBucket.merged(TimeTier.HOUR, 0, 3, [a, b])
        assert merged.n_tweets == 2
        assert merged.tweet_counts()[0] == 2
        assert merged.user_counts()[0] == 1  # exact unique users
        assert merged.od_counts() == {(0, 1): 3}
        # the merged-from tiles are untouched
        assert b.n_tweets == 1 and b.od_counts() == {(0, 1): 2}
        assert a.od_counts() == {(0, 1): 1}

    def test_merge_rejects_area_mismatch(self):
        with pytest.raises(ValueError, match="area"):
            SummaryBucket.merged(
                TimeTier.MINUTE, 0, 3, [_tile(0, n_areas=3), _tile(0, n_areas=4)]
            )

    def test_rolled_up_merges_children(self):
        children = [_rows_tile(k * 60, [(k, [k % 3])]) for k in range(3)]
        hour = SummaryBucket.rolled_up(TimeTier.HOUR, 0, 3, children)
        assert hour.n_tweets == 3
        assert np.array_equal(hour.tweet_counts(), [1, 1, 1])

    def test_rolled_up_rejects_child_outside_span(self):
        stray = _tile(3600)  # first minute of the *next* hour
        with pytest.raises(ValueError, match="outside"):
            SummaryBucket.rolled_up(TimeTier.HOUR, 0, 3, [stray])

    def test_kernel_groups_pairs_and_cells_sorted(self):
        tile = _rows_tile(
            0,
            [(5, [2]), (1, [0, 2]), (5, [2]), (3, [])],
            moves=[(2, 0), (0, 2), (2, 0)],
        )
        assert tile.n_tweets == 4  # the disc-less tweet counts too
        assert tile.areas.tolist() == [0, 2, 2]
        assert tile.users.tolist() == [1, 1, 5]
        assert tile.tweets.tolist() == [1, 1, 2]
        assert np.array_equal(tile.tweet_counts(), [1, 0, 3])
        assert np.array_equal(tile.user_counts(), [1, 0, 2])
        assert list(tile.od_counts().items()) == [((0, 2), 1), ((2, 0), 2)]

    def test_kernel_splits_rows_by_bucket(self):
        tiles = build_tiles(
            TimeTier.MINUTE,
            3,
            np.array([120, 0, 120], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
            np.array([0, 1, 2, 3]),
            np.array([0, 1, 2], dtype=np.int64),
            (np.array([120]), np.array([1]), np.array([2])),
        )
        assert [(t.start, t.n_tweets, t.n_transitions) for t in tiles] == [
            (0, 1, 0),
            (120, 2, 1),
        ]
        assert tiles[1].areas.tolist() == [0, 2]


class TestTileCodec:
    def test_round_trip_is_exact(self):
        tile = _rows_tile(
            3600, [(2**62, [0, 1]), (0, [1])], moves=[(1, 0)], tier=TimeTier.HOUR
        )
        back = SummaryBucket.decode(tile.encode())
        assert (back.tier, back.start, back.n_areas, back.n_tweets) == (
            TimeTier.HOUR, 3600, 3, 2,
        )
        for column in ("areas", "users", "tweets", "sources", "dests", "counts"):
            assert np.array_equal(getattr(back, column), getattr(tile, column))
        assert back.encode() == tile.encode()

    def test_pickle_carries_the_codec_form(self):
        tile = _rows_tile(60, [(4, [2])], moves=[(0, 2)])
        back = pickle.loads(pickle.dumps(tile))
        assert back.encode() == tile.encode()

    @pytest.mark.parametrize(
        "payload",
        [
            pickle.dumps({"tier": "MINUTE", "start": 0}),  # an older pickle
            b"RTIL",  # shorter than a header
        ],
    )
    def test_foreign_payloads_are_stale(self, payload):
        with pytest.raises(StaleTileError):
            SummaryBucket.decode(payload)

    def test_other_format_version_is_stale(self):
        encoded = bytearray(_tile(0).encode())
        encoded[4] ^= 0xFF  # the version field follows the magic
        with pytest.raises(StaleTileError, match="version"):
            SummaryBucket.decode(bytes(encoded))

    def test_length_disagreeing_with_header_is_stale(self):
        encoded = _rows_tile(0, [(1, [0])]).encode()
        with pytest.raises(StaleTileError, match="header"):
            SummaryBucket.decode(encoded[:-8])


class TestTileSize:
    """A tile's size follows its activity, not the world's area count."""

    def test_one_tweet_tile_encodes_alike_on_any_world(self):
        sizes = {n: len(_one_tweet_tile(0, n).encode()) for n in (20, 300, 5000)}
        assert len(set(sizes.values())) == 1, sizes

    def test_rollup_grows_with_children_not_areas(self):
        def rolled(n_children, n_areas):
            children = [
                _rows_tile(60 * k, [(k, [k % n_areas])], n_areas=n_areas)
                for k in range(n_children)
            ]
            hour = SummaryBucket.rolled_up(TimeTier.HOUR, 0, n_areas, children)
            return len(hour.encode())

        for n_areas in (20, 300, 5000):
            assert rolled(10, n_areas) == rolled(10, 20)
        assert rolled(1, 300) < rolled(10, 300) < rolled(40, 300)
        # Each distinct (area, user) pair costs three int64 columns.
        assert rolled(40, 300) - rolled(10, 300) == 30 * 3 * 8
