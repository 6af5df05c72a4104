"""Tests for repro.synth.generator."""

import hashlib

import numpy as np
import pytest

from repro.geo.distance import points_to_point_km
from repro.synth import SynthConfig, generate_corpus
from repro.synth.config import COLLECTION_END_TS, COLLECTION_START_TS


class TestGeneration:
    def test_user_count_respected(self, small_result):
        assert small_result.corpus.n_users == 2_000
        assert small_result.home_sites.shape == (2_000,)

    def test_deterministic_given_seed(self):
        a = generate_corpus(SynthConfig(n_users=300, seed=11)).corpus
        b = generate_corpus(SynthConfig(n_users=300, seed=11)).corpus
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.lats, b.lats)
        assert np.array_equal(a.user_ids, b.user_ids)

    def test_different_seeds_differ(self):
        a = generate_corpus(SynthConfig(n_users=300, seed=11)).corpus
        b = generate_corpus(SynthConfig(n_users=300, seed=12)).corpus
        assert not np.array_equal(a.lats, b.lats)

    def test_timestamps_inside_collection_window(self, small_corpus):
        assert small_corpus.timestamps.min() >= COLLECTION_START_TS
        assert small_corpus.timestamps.max() < COLLECTION_END_TS

    def test_all_tweets_in_australia(self, small_corpus):
        from repro.geo.bbox import AUSTRALIA_BBOX

        inside = AUSTRALIA_BBOX.contains_mask(small_corpus.lats, small_corpus.lons)
        assert inside.all()

    def test_site_indices_align_with_corpus(self, small_result):
        corpus = small_result.corpus
        world = small_result.world
        assert small_result.site_indices.shape == (len(corpus),)
        # Every tweet should be close to its generating site's activity
        # centre (within the scatter tail).
        sample = np.random.default_rng(0).choice(len(corpus), 200, replace=False)
        for row in sample:
            site = world.sites[small_result.site_indices[row]]
            d = points_to_point_km(
                np.array([corpus.lats[row]]),
                np.array([corpus.lons[row]]),
                site.activity_center,
            )[0]
            assert d < 15 * site.scatter_km + 2.0

    def test_home_sites_follow_weights(self, small_result):
        # The most-weighted site should be the most common home.
        counts = np.bincount(small_result.home_sites, minlength=len(small_result.world))
        top_weighted = int(np.argmax(small_result.site_weights))
        assert counts[top_weighted] >= np.percentile(counts, 95)

    def test_progress_callback_invoked(self):
        calls = []
        generate_corpus(
            SynthConfig(n_users=5001, seed=1),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(5000, 5001)]

    def test_heavy_tail_present(self, small_corpus):
        counts = small_corpus.tweets_per_user()
        # A power law over [1, 20000] should give a max far above the mean.
        assert counts.max() > 20 * counts.mean()

    def test_movers_exist(self, small_result):
        # With p_move > 0 some users must visit more than one site.
        sites = small_result.site_indices
        users = small_result.corpus.user_ids
        multi_site_users = 0
        for user in np.unique(users)[:500]:
            user_sites = np.unique(sites[users == user])
            if user_sites.size > 1:
                multi_site_users += 1
        assert multi_site_users > 10

    def test_no_movement_when_p_move_zero(self):
        result = generate_corpus(SynthConfig(n_users=200, seed=5, p_move=0.0))
        sites = result.site_indices
        users = result.corpus.user_ids
        for user in np.unique(users):
            assert np.unique(sites[users == user]).size == 1


class TestShardedGeneration:
    """jobs=N sharding must reproduce the serial corpus bit for bit."""

    def _assert_identical(self, a, b):
        assert np.array_equal(a.corpus.user_ids, b.corpus.user_ids)
        assert np.array_equal(a.corpus.timestamps, b.corpus.timestamps)
        assert np.array_equal(a.corpus.lats, b.corpus.lats)
        assert np.array_equal(a.corpus.lons, b.corpus.lons)
        assert np.array_equal(a.site_indices, b.site_indices)
        assert np.array_equal(a.home_sites, b.home_sites)

    def test_two_shards_bit_identical(self):
        config = SynthConfig(n_users=300, seed=11)
        self._assert_identical(
            generate_corpus(config), generate_corpus(config, jobs=2)
        )

    def test_four_shards_bit_identical(self):
        config = SynthConfig(n_users=301, seed=77)
        self._assert_identical(
            generate_corpus(config), generate_corpus(config, jobs=4)
        )

    def test_sharded_with_bots_bit_identical(self):
        config = SynthConfig(
            n_users=200, seed=5, bot_fraction=0.05,
            bot_min_tweets=50, bot_max_tweets=100,
        )
        self._assert_identical(
            generate_corpus(config), generate_corpus(config, jobs=3)
        )

    def test_sharded_with_diurnal_bit_identical(self):
        config = SynthConfig(n_users=150, seed=9, diurnal_amplitude=0.4)
        self._assert_identical(
            generate_corpus(config), generate_corpus(config, jobs=2)
        )

    def test_more_jobs_than_users(self):
        config = SynthConfig(n_users=5, seed=1)
        self._assert_identical(
            generate_corpus(config), generate_corpus(config, jobs=16)
        )

    def test_shard_bounds_cover_all_users(self):
        from repro.synth.generator import _shard_bounds

        counts = np.random.default_rng(0).integers(1, 100, 57)
        for jobs in (1, 2, 3, 8, 57, 100):
            bounds = _shard_bounds(counts, jobs)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == 57
            for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                assert hi == lo2
            assert all(hi > lo for lo, hi in bounds)


class TestPinnedCorpus:
    """sha256 of every generated column, recorded before the scatter kernel.

    Each user's stream interleaves ``random``, ``exponential`` and
    ``integers`` draws in a data-dependent order, so any reordering or
    batching of those draws changes these digests.
    """

    @staticmethod
    def _digest(result) -> str:
        corpus = result.corpus
        h = hashlib.sha256()
        for column in (
            corpus.user_ids, corpus.timestamps, corpus.lats, corpus.lons,
            result.site_indices,
        ):
            h.update(np.ascontiguousarray(column).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize(
        "config, expected",
        [
            (
                SynthConfig(n_users=2_500, seed=1),
                "9c574b798af3cbbed95f17c0d83049b2801da156752f96427d70b0db1ef63e2e",
            ),
            (
                SynthConfig(n_users=1_200, seed=3, gazetteer="synth:300"),
                "aaa5538f8227cfaa8979f35dd58a16359351815673839e05340acb87efe26990",
            ),
            (
                SynthConfig(
                    n_users=600, seed=5, bot_fraction=0.05, bot_min_tweets=50,
                    bot_max_tweets=400, diurnal_amplitude=0.4,
                ),
                "be3a9dab310b0e096bb1e9250863de3ecf096504d12392f1b54422f1d4081f99",
            ),
        ],
        ids=["default-world", "synth-300", "bots-diurnal"],
    )
    def test_corpus_digest_pinned(self, config, expected):
        assert self._digest(generate_corpus(config)) == expected


class TestTableOneShape:
    """The generated corpus must land near the paper's Table I values."""

    def test_average_tweets_per_user(self, medium_corpus):
        stats = medium_corpus.stats()
        assert 8.0 < stats.avg_tweets_per_user < 20.0  # paper: 13.3

    def test_average_waiting_time(self, medium_corpus):
        stats = medium_corpus.stats()
        assert 20.0 < stats.avg_waiting_time_hours < 60.0  # paper: 35.5

    def test_average_locations_per_user(self, medium_corpus):
        stats = medium_corpus.stats()
        assert 2.0 < stats.avg_locations_per_user < 8.0  # paper: 4.76
        assert stats.avg_locations_per_user < stats.avg_tweets_per_user
