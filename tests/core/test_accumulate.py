"""Accumulator primitives: batch OD counting and incremental forms."""

import numpy as np
import pytest

from repro.core.accumulate import (
    ODAccumulator,
    PopulationAccumulator,
    od_matrix_from_labels,
)


class TestOdMatrixFromLabels:
    def test_counts_consecutive_same_user_transitions(self):
        users = np.array([1, 1, 1, 2, 2])
        labels = np.array([0, 1, 1, 2, 0])
        matrix, total = od_matrix_from_labels(users, labels, 3)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = 1  # user 1: 0 -> 1
        expected[2, 0] = 1  # user 2: 2 -> 0
        assert np.array_equal(matrix, expected)
        assert total == 2

    def test_unlabelled_rows_break_adjacency(self):
        users = np.array([1, 1, 1])
        labels = np.array([0, -1, 1])
        matrix, total = od_matrix_from_labels(users, labels, 2)
        assert matrix.sum() == 0
        assert total == 0

    def test_user_boundaries_do_not_transition(self):
        users = np.array([1, 2])
        labels = np.array([0, 1])
        matrix, total = od_matrix_from_labels(users, labels, 2)
        assert matrix.sum() == 0
        assert total == 0

    def test_empty_and_singleton(self):
        for users, labels in ([np.array([], dtype=int)] * 2, (np.array([1]), np.array([0]))):
            matrix, total = od_matrix_from_labels(users, labels, 2)
            assert matrix.shape == (2, 2)
            assert total == 0

    def test_misaligned_shapes_raise(self):
        with pytest.raises(ValueError, match="align with user rows"):
            od_matrix_from_labels(np.array([1, 1]), np.array([0]), 2)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError, match="exceeds number of areas"):
            od_matrix_from_labels(np.array([1, 1]), np.array([0, 5]), 2)


class TestPopulationAccumulator:
    def test_add_then_remove_restores_zero(self):
        acc = PopulationAccumulator(3)
        acc.add([0, 2], user_id=7)
        acc.add([0], user_id=8)
        assert np.array_equal(acc.tweet_counts(), [2, 0, 1])
        assert np.array_equal(acc.user_counts(), [2, 0, 1])
        acc.remove([0, 2], user_id=7)
        acc.remove([0], user_id=8)
        assert acc.tweet_counts().sum() == 0
        assert acc.user_counts().sum() == 0

    def test_unique_user_survives_partial_removal(self):
        acc = PopulationAccumulator(1)
        acc.add([0], user_id=7)
        acc.add([0], user_id=7)
        acc.remove([0], user_id=7)
        # One of the user's two tweets expired; they are still present.
        assert acc.user_counts()[0] == 1
        assert acc.tweet_counts()[0] == 1

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="non-negative"):
            PopulationAccumulator(-1)


class TestODAccumulator:
    def test_observe_records_label_changes_only(self):
        acc = ODAccumulator(3)
        assert not acc.observe(1, 0, 10.0)  # first sighting: no transition
        assert acc.observe(1, 2, 20.0)
        assert not acc.observe(1, 2, 30.0)  # same label: no transition
        assert not acc.observe(1, -1, 40.0)  # leaving coverage
        assert not acc.observe(1, 0, 50.0)  # re-entering after -1
        assert acc.total_transitions == 1
        assert acc.flow_matrix()[0, 2] == 1

    def test_expire_until_retires_old_transitions(self):
        acc = ODAccumulator(2)
        acc.observe(1, 0, 0.0)
        acc.observe(1, 1, 10.0)
        acc.observe(2, 0, 20.0)
        acc.observe(2, 1, 30.0)
        assert acc.total_transitions == 2
        assert acc.expire_until(10.0) == 1  # cutoff is inclusive
        assert acc.total_transitions == 1
        assert acc.flow_matrix()[0, 1] == 1

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="non-negative"):
            ODAccumulator(-1)


class TestSnapshotAndMerge:
    def test_population_snapshot_is_independent(self):
        acc = PopulationAccumulator(2)
        acc.add([0], user_id=1)
        frozen = acc.snapshot()
        acc.add([0, 1], user_id=2)
        assert np.array_equal(frozen.tweet_counts(), [1, 0])
        assert np.array_equal(acc.tweet_counts(), [2, 1])
        frozen.add([1], user_id=9)
        assert acc.user_counts()[1] == 1  # source unaffected by the copy

    def test_population_sharded_merge_equals_single_run(self):
        rng = np.random.default_rng(0)
        single = PopulationAccumulator(4)
        shards = [PopulationAccumulator(4) for _ in range(3)]
        for i in range(200):
            areas = rng.choice(4, size=rng.integers(1, 4), replace=False)
            user = int(rng.integers(10))
            single.add(areas, user)
            shards[i % 3].add(areas, user)
        merged = shards[0].snapshot()
        merged.merge(shards[1])
        merged.merge(shards[2])
        assert np.array_equal(merged.tweet_counts(), single.tweet_counts())
        assert np.array_equal(merged.user_counts(), single.user_counts())
        assert merged.tweet_counts().sum() == single.tweet_counts().sum()

    def test_population_merge_counts_shared_user_once(self):
        a = PopulationAccumulator(1)
        b = PopulationAccumulator(1)
        a.add([0], user_id=7)
        b.add([0], user_id=7)
        a.merge(b)
        assert a.tweet_counts()[0] == 2
        assert a.user_counts()[0] == 1

    def test_population_merge_then_remove_stays_exact(self):
        a = PopulationAccumulator(1)
        b = PopulationAccumulator(1)
        a.add([0], user_id=7)
        b.add([0], user_id=7)
        a.merge(b)
        a.remove([0], user_id=7)
        assert a.user_counts()[0] == 1  # one of two tweets expired
        a.remove([0], user_id=7)
        assert a.user_counts()[0] == 0

    def test_population_merge_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="areas"):
            PopulationAccumulator(2).merge(PopulationAccumulator(3))

    def test_od_snapshot_is_independent(self):
        acc = ODAccumulator(3)
        acc.observe(1, 0, 0.0)
        acc.observe(1, 1, 10.0)
        frozen = acc.snapshot()
        acc.observe(1, 2, 20.0)
        assert frozen.total_transitions == 1
        assert acc.total_transitions == 2
        frozen.expire_until(10.0)
        assert acc.total_transitions == 2

    def test_od_user_sharded_merge_equals_single_run(self):
        rng = np.random.default_rng(1)
        single = ODAccumulator(4)
        shards = {0: ODAccumulator(4), 1: ODAccumulator(4)}
        for ts in range(300):
            user = int(rng.integers(8))
            label = int(rng.integers(-1, 4))
            single.observe(user, label, float(ts))
            shards[user % 2].observe(user, label, float(ts))
        merged = shards[0].snapshot()
        merged.merge(shards[1])
        assert np.array_equal(merged.flow_matrix(), single.flow_matrix())
        assert merged.total_transitions == single.total_transitions
        # expiry stays exact across the merged, time-interleaved events
        assert merged.expire_until(150.0) == single.expire_until(150.0)
        assert np.array_equal(merged.flow_matrix(), single.flow_matrix())

    def test_od_merge_rejects_shared_users(self):
        a = ODAccumulator(2)
        b = ODAccumulator(2)
        a.observe(5, 0, 0.0)
        b.observe(5, 1, 1.0)
        with pytest.raises(ValueError, match="sharing users"):
            a.merge(b)

    def test_od_merge_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="areas"):
            ODAccumulator(2).merge(ODAccumulator(3))
