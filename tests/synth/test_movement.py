"""Tests for repro.synth.movement."""

import numpy as np
import pytest

from repro.synth.config import SynthConfig
from repro.synth.movement import FavoritePointStore, TripKernel
from repro.synth.population import build_world


@pytest.fixture(scope="module")
def world():
    return build_world(SynthConfig(n_users=10), np.random.default_rng(0))


@pytest.fixture(scope="module")
def kernel(world):
    return TripKernel(world, SynthConfig(n_users=10))


class TestTripKernel:
    def test_rows_are_distributions(self, kernel, world):
        for origin in range(0, len(world), 17):
            probs = kernel.transition_probabilities(origin)
            assert probs.sum() == pytest.approx(1.0)
            assert probs[origin] == 0.0
            assert np.all(probs >= 0)

    def test_destinations_in_range_and_never_origin(self, kernel, world):
        rng = np.random.default_rng(1)
        origin = 0
        draws = [kernel.sample_destination(origin, rng) for _ in range(500)]
        assert all(0 <= d < len(world) for d in draws)
        assert origin not in draws

    def test_gravity_prefers_big_close_sites(self, kernel, world):
        # From any site, a nearby high-population site should receive
        # more probability than a far low-population one.
        names = [s.name for s in world.sites]
        origin = names.index("Newcastle")
        probs = kernel.transition_probabilities(origin)
        hobart = names.index("Hobart")
        # Sydney's mass is split over suburbs+fillers; compare their sum.
        sydneyish = [
            i
            for i, s in enumerate(world.sites)
            if s.kind in ("suburb", "filler")
        ]
        assert probs[sydneyish].sum() > probs[hobart]

    def test_sampling_matches_probabilities(self, kernel, world):
        rng = np.random.default_rng(2)
        origin = 5
        probs = kernel.transition_probabilities(origin)
        top = int(np.argmax(probs))
        draws = np.array([kernel.sample_destination(origin, rng) for _ in range(4000)])
        assert (draws == top).mean() == pytest.approx(probs[top], abs=0.03)


class TestFavoritePointStore:
    def test_first_tweet_creates_favorite(self, world):
        store = FavoritePointStore(SynthConfig(n_users=10))
        rng = np.random.default_rng(5)
        point = store.point_for_tweet(0, world.sites[0], rng)
        assert isinstance(point, tuple)

    def test_reuse_produces_exact_duplicates(self, world):
        config = SynthConfig(n_users=10, favorite_new_point_p=0.0)
        store = FavoritePointStore(config)
        rng = np.random.default_rng(6)
        first = store.point_for_tweet(0, world.sites[0], rng)
        repeats = [store.point_for_tweet(0, world.sites[0], rng) for _ in range(10)]
        assert all(p == first for p in repeats)

    def test_new_point_probability_one_never_reuses(self, world):
        config = SynthConfig(n_users=10, favorite_new_point_p=1.0)
        store = FavoritePointStore(config)
        rng = np.random.default_rng(7)
        points = {store.point_for_tweet(0, world.sites[0], rng) for _ in range(20)}
        assert len(points) == 20

    def test_reset_user_clears_favorites(self, world):
        config = SynthConfig(n_users=10, favorite_new_point_p=0.0)
        store = FavoritePointStore(config)
        rng = np.random.default_rng(8)
        first = store.point_for_tweet(0, world.sites[0], rng)
        store.reset_user()
        second = store.point_for_tweet(0, world.sites[0], rng)
        assert first != second

    def test_favorites_are_per_site(self, world):
        config = SynthConfig(n_users=10, favorite_new_point_p=0.0)
        store = FavoritePointStore(config)
        rng = np.random.default_rng(9)
        a = store.point_for_tweet(0, world.sites[0], rng)
        b = store.point_for_tweet(1, world.sites[1], rng)
        assert a != b

