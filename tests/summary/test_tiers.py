"""Tier arithmetic and tile semantics: boundaries, alignment, rollup,
the tile kernel, the merge kernel and the tile codec."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _per_area(tile):
    """Tweets and unique users per area, counted from the tile's pairs."""
    tweets = np.bincount(tile.areas, weights=tile.tweets, minlength=tile.n_areas)
    return tweets.astype(np.int64).tolist(), np.bincount(tile.areas, minlength=tile.n_areas).tolist()


def _cells(tile):
    """The tile's OD cells keyed ``(source, dest)``, in column order."""
    return dict(zip(zip(tile.sources.tolist(), tile.dests.tolist()), tile.counts.tolist()))


def _one_tweet_tile(start, n_areas):
    return _rows_tile(start, [(7, [n_areas // 2])], n_areas=n_areas)


class TestSummaryBucket:
    def test_empty_tile_is_zero(self):
        tile = _tile(0)
        assert tile.n_tweets == 0
        assert tile.n_transitions == 0
        assert _cells(tile) == {}
        assert tile.end == 60

    def test_merge_adds_counts_and_unions_users(self):
        a = _rows_tile(0, [(1, [0])], moves=[(0, 1)])
        b = _rows_tile(60, [(1, [0])], moves=[(0, 1), (0, 1)])  # same user
        merged = SummaryBucket.merged(TimeTier.HOUR, 0, 3, [a, b])
        assert merged.n_tweets == 2
        assert _per_area(merged) == ([2, 0, 0], [1, 0, 0])  # exact unique users
        assert _cells(merged) == {(0, 1): 3}
        # the merged-from tiles are untouched
        assert b.n_tweets == 1 and _cells(b) == {(0, 1): 2}
        assert _cells(a) == {(0, 1): 1}

    def test_merge_rejects_area_mismatch(self):
        with pytest.raises(ValueError, match="area"):
            SummaryBucket.merged(
                TimeTier.MINUTE, 0, 3, [_tile(0, n_areas=3), _tile(0, n_areas=4)]
            )

    def test_rolled_up_merges_children(self):
        children = [_rows_tile(k * 60, [(k, [k % 3])]) for k in range(3)]
        hour = SummaryBucket.rolled_up(TimeTier.HOUR, 0, 3, children)
        assert hour.n_tweets == 3
        assert _per_area(hour)[0] == [1, 1, 1]

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
        assert _per_area(tile) == ([1, 0, 3], [1, 0, 2])
        assert list(_cells(tile).items()) == [((0, 2), 1), ((2, 0), 2)]

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


#: Area counts at the edges of the narrow area dtypes the merge sorts.
DTYPE_EDGES = (1, 2, 255, 256, 257, 65535, 65536, 65537)

#: Column names of a tile: population pairs, then OD cells.
COLUMNS = ("areas", "users", "tweets", "sources", "dests", "counts")


def _lexsort_group(major, minor, weights):
    """Distinct ``(major, minor)`` rows with summed weights, grouped by
    one two-key ``np.lexsort`` — the reference merge."""
    if major.size == 0:
        return (np.empty(0, dtype=np.int64),) * 3
    order = np.lexsort((minor, major))
    major, minor, weights = major[order], minor[order], weights[order]
    first = np.ones(major.size, dtype=bool)
    first[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    starts = first.nonzero()[0]
    return major[starts], minor[starts], np.add.reduceat(weights, starts)


def _reference_merged(tier, start, n_areas, parts):
    def cat(column):
        return np.concatenate([getattr(part, column) for part in parts])

    return SummaryBucket(
        tier, start, n_areas, sum(part.n_tweets for part in parts),
        *_lexsort_group(cat("areas"), cat("users"), cat("tweets")),
        *_lexsort_group(cat("sources"), cat("dests"), cat("counts")),
    )


def _assert_same_tile(got, want):
    for column in COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype == np.int64, column
        assert np.array_equal(a, b), column
    assert got.encode() == want.encode()


def _sorted_columns(counts):
    """``{(major, minor): count}`` as three int64 columns in key order."""
    keys = sorted(counts)
    return (
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([counts[k] for k in keys], dtype=np.int64),
    )


@st.composite
def merge_parts(draw):
    """``(n_areas, parts)``: tiles built by the tile kernel and random
    sorted tiles, some empty, pairs-only or cells-only."""
    n_areas = draw(st.sampled_from(DTYPE_EDGES))
    top = n_areas - 1
    area = st.one_of(
        st.integers(0, top),
        st.sampled_from(sorted({0, top, min(255, top), min(256, top), top // 2})),
    )
    user = st.one_of(st.integers(0, 4), st.integers(0, 2**63 - 1))
    weight = st.integers(1, 9)
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("kernel", "sorted", "pairs", "cells", "empty")))
        if kind == "empty":
            parts.append(SummaryBucket(TimeTier.MINUTE, 0, n_areas, draw(st.integers(0, 3))))
        elif kind == "kernel":
            rows = draw(
                st.lists(
                    st.tuples(user, st.lists(area, max_size=3, unique=True)),
                    min_size=1,
                    max_size=30,
                )
            )
            moves = draw(st.lists(st.tuples(area, area), max_size=30))
            parts.append(_rows_tile(0, rows, moves, n_areas=n_areas))
        else:
            pairs = draw(st.dictionaries(st.tuples(area, user), weight, max_size=40))
            cells = draw(st.dictionaries(st.tuples(area, area), weight, max_size=40))
            if kind == "pairs":
                cells = {}
            elif kind == "cells":
                pairs = {}
            parts.append(
                SummaryBucket(
                    TimeTier.MINUTE, 0, n_areas, len(pairs),
                    *_sorted_columns(pairs), *_sorted_columns(cells),
                )
            )
    return n_areas, parts


class TestMergeKernel:
    """``SummaryBucket.merged`` groups sorted tiles exactly as a two-key
    ``np.lexsort`` over their concatenated columns does."""

    @settings(max_examples=300, deadline=None)
    @given(merge_parts())
    def test_merge_equals_lexsort_reference(self, drawn):
        n_areas, parts = drawn
        got = SummaryBucket.merged(TimeTier.HOUR, 0, n_areas, parts)
        _assert_same_tile(got, _reference_merged(TimeTier.HOUR, 0, n_areas, parts))

    @pytest.mark.parametrize("n_areas", DTYPE_EDGES)
    def test_one_busy_part_is_reused_as_is(self, n_areas):
        busy = _rows_tile(
            0, [(2**63 - 1, [n_areas - 1]), (0, [0])], [(n_areas - 1, 0)], n_areas=n_areas
        )
        parts = [_tile(0, n_areas=n_areas), busy, _tile(60, n_areas=n_areas)]
        got = SummaryBucket.merged(TimeTier.HOUR, 0, n_areas, parts)
        assert got.areas is busy.areas and got.counts is busy.counts
        _assert_same_tile(got, _reference_merged(TimeTier.HOUR, 0, n_areas, parts))


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
