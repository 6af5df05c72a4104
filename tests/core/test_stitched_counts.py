"""``stitched_counts`` ≡ merging into a fresh accumulator, then reading."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulate import PopulationAccumulator, stitched_counts


def merged_counts(parts, n_areas):
    """The reference: merge every part into a fresh accumulator."""
    merged = PopulationAccumulator(n_areas)
    for part in parts:
        merged.merge(part)
    return merged.tweet_counts(), merged.user_counts()


@st.composite
def accumulators(draw):
    """``(n_areas, parts)``: parts share a small user pool across areas."""
    n_areas = draw(st.integers(min_value=0, max_value=6))
    n_parts = draw(st.integers(min_value=0, max_value=5))
    parts = []
    for _ in range(n_parts):
        part = PopulationAccumulator(n_areas)
        events = draw(
            st.lists(
                st.tuples(
                    st.sets(st.integers(0, max(n_areas - 1, 0)), max_size=n_areas)
                    if n_areas
                    else st.just(frozenset()),
                    st.integers(min_value=0, max_value=7),
                    st.booleans(),
                ),
                max_size=12,
            )
        )
        added = []
        for areas, user, expire in events:
            part.add(sorted(areas), user)
            added.append((sorted(areas), user))
            if expire and added:
                # window expiry: counts drop to zero and users leave sets
                part.remove(*added.pop(0))
        parts.append(part)
    return n_areas, parts


class TestStitchedCounts:
    @settings(max_examples=200, deadline=None)
    @given(accumulators())
    def test_equals_merge_into_fresh_accumulator(self, drawn):
        n_areas, parts = drawn
        before = [(p.tweet_counts(), [Counter(u) for u in p._users_per_area]) for p in parts]
        tweets, users = stitched_counts(parts, n_areas)
        want_tweets, want_users = merged_counts(parts, n_areas)
        assert tweets.dtype == users.dtype == np.int64
        assert np.array_equal(tweets, want_tweets)
        assert np.array_equal(users, want_users)
        for part, (counts, sets) in zip(parts, before):  # parts are read only
            assert np.array_equal(part.tweet_counts(), counts)
            assert part._users_per_area == sets

    def test_one_part_is_copied_not_aliased(self):
        part = PopulationAccumulator(3)
        part.add([0, 2], user_id=1)
        tweets, users = stitched_counts([part], 3)
        tweets[0] = 99
        assert part.tweet_counts().tolist() == [1, 0, 1]
        assert users.tolist() == [1, 0, 1]

    def test_user_shared_across_parts_counts_once(self):
        a, b = PopulationAccumulator(2), PopulationAccumulator(2)
        a.add([0], user_id=5)
        b.add([0, 1], user_id=5)
        b.add([0], user_id=6)
        tweets, users = stitched_counts([a, b], 2)
        assert tweets.tolist() == [3, 1]
        assert users.tolist() == [2, 1]

    def test_no_parts_and_zero_areas(self):
        for n_areas in (0, 4):
            tweets, users = stitched_counts([], n_areas)
            assert tweets.tolist() == users.tolist() == [0] * n_areas

    def test_area_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="3 areas"):
            stitched_counts([PopulationAccumulator(3)], 2)
