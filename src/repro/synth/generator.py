"""The synthetic corpus generator.

Orchestrates the world model, the heavy-tailed samplers and the travel
process into a full geo-tagged tweet corpus.  Generation is deterministic
given ``SynthConfig.seed``: the root RNG seed-sequence is split into
independent child streams for world building, adoption weights, the
corpus-level draws (home sites, tweet counts) and *one stream per user*
for the per-user loop, so changing one stage never perturbs the others.

Because every user owns an independent child stream, the per-user loop is
embarrassingly parallel: ``generate(jobs=N)`` splits the user range into
N tweet-balanced shards, fills each in a separate process and
concatenates the results in user order — the output is **bit-identical**
to a serial run with the same seed, regardless of the shard count.

Per user the pipeline is:

1. draw a home site (census-population × adoption-bias weights);
2. draw a tweet count from the discrete power law (Fig 2a);
3. draw inter-tweet waiting times from the truncated Pareto (Fig 2b) and
   lay the tweets onto the collection window (wrapping around the window
   edge, which perturbs at most one waiting-time pair per user);
4. walk the gravity travel process to assign a site to every tweet;
5. post each tweet from one of the user's favourite points at that site.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.corpus import TweetCorpus
from repro.synth.config import SynthConfig
from repro.synth.distributions import DiscretePowerLaw, TruncatedPareto
from repro.synth.diurnal import DiurnalPattern
from repro.synth.movement import FavoritePointStore, TripKernel
from repro.synth.population import World, build_world, home_site_weights


@dataclass(frozen=True)
class GenerationResult:
    """Everything a generation run produces.

    Attributes
    ----------
    corpus:
        The synthetic tweet corpus (user-time sorted).
    world:
        The generating world model (sites, populations, distances).
    home_sites:
        Per-user home site index, aligned with ``user_ids`` 0..n-1.
    site_weights:
        The realised home-assignment probabilities (population ×
        adoption bias, normalised).
    site_indices:
        Per-tweet generating site index, aligned with the corpus rows.
    bot_users:
        Sorted user ids that were generated as bots (empty unless
        ``config.bot_fraction > 0``) — ground truth for bot-detection
        evaluation.
    config:
        The configuration that produced this corpus.
    """

    corpus: TweetCorpus
    world: World
    home_sites: np.ndarray
    site_weights: np.ndarray
    site_indices: np.ndarray
    config: SynthConfig
    bot_users: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bot_users is None:
            object.__setattr__(self, "bot_users", np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class _GenerationPlan:
    """The deterministic corpus-level draws shared by every shard.

    Rebuilt identically in each worker from the config alone: the world,
    the home weights, each user's home and tweet count all come from the
    first three child streams of the root seed, independent of the
    per-user streams consumed by the fill loop.
    """

    world: World
    weights: np.ndarray
    kernel: TripKernel
    homes: np.ndarray
    counts: np.ndarray
    first_bot: int
    users_ss: np.random.SeedSequence


def _user_stream(users_ss: np.random.SeedSequence, user: int) -> np.random.Generator:
    """User ``user``'s private RNG: spawn child ``user`` of the users root.

    Constructing the child seed-sequence directly (rather than calling
    ``users_ss.spawn(n)``) lets a shard materialise exactly the streams
    of its own user range; the result is identical to what ``spawn``
    would hand out, because spawned children are keyed only by index.
    """
    child = np.random.SeedSequence(
        entropy=users_ss.entropy, spawn_key=users_ss.spawn_key + (user,)
    )
    return np.random.default_rng(child)


def _shard_bounds(counts: np.ndarray, jobs: int) -> list[tuple[int, int]]:
    """Split the user range into ≤ ``jobs`` contiguous, tweet-balanced shards."""
    n_users = int(counts.size)
    jobs = max(1, min(jobs, n_users))
    cumulative = np.cumsum(counts, dtype=np.float64)
    total = float(cumulative[-1])
    bounds: list[tuple[int, int]] = []
    lo = 0
    for j in range(1, jobs + 1):
        if j == jobs:
            hi = n_users
        else:
            hi = int(np.searchsorted(cumulative, total * j / jobs, side="left")) + 1
            hi = min(max(hi, lo + 1), n_users)
        if hi > lo:
            bounds.append((lo, hi))
            lo = hi
    return bounds


def _generate_shard(
    config: SynthConfig, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Worker entry point: fill users ``[lo, hi)`` from a fresh plan."""
    generator = SyntheticCorpusGenerator(config)
    return generator._fill_range(generator._plan(), lo, hi)


class SyntheticCorpusGenerator:
    """Reusable generator bound to one :class:`SynthConfig`."""

    def __init__(self, config: SynthConfig) -> None:
        self.config = config
        self._tweet_count_dist = DiscretePowerLaw(
            alpha=config.tweets_alpha, k_min=config.tweets_k_min, k_max=config.tweets_k_max
        )
        self._wait_dist = TruncatedPareto(
            alpha=config.wait_alpha, x_min=config.wait_min_s, x_max=config.wait_max_s
        )

    def _plan(self) -> _GenerationPlan:
        """The corpus-level draws, identical however the fill is sharded."""
        config = self.config
        root_ss = np.random.SeedSequence(config.seed)
        world_ss, weights_ss, main_ss, users_ss = root_ss.spawn(4)
        world = build_world(config, np.random.default_rng(world_ss))
        weights = home_site_weights(world, config, np.random.default_rng(weights_ss))
        main_rng = np.random.default_rng(main_ss)

        n_users = config.n_users
        homes = main_rng.choice(len(world), size=n_users, p=weights)
        counts = self._tweet_count_dist.sample(main_rng, n_users)
        # Bots are the highest user ids: stationary, extreme-rate accounts.
        n_bots = int(round(config.bot_fraction * n_users))
        first_bot = n_users - n_bots
        if n_bots:
            counts[first_bot:] = main_rng.integers(
                config.bot_min_tweets, config.bot_max_tweets + 1, n_bots
            )
        return _GenerationPlan(
            world=world,
            weights=weights,
            kernel=TripKernel(world, config),
            homes=homes,
            counts=counts,
            first_bot=first_bot,
            users_ss=users_ss,
        )

    def generate(
        self,
        progress: Callable[[int, int], None] | None = None,
        jobs: int = 1,
    ) -> GenerationResult:
        """Run the full pipeline and return the corpus plus ground truth.

        ``progress`` (optional) is called as ``progress(done_users,
        total_users)`` every few thousand users (serial path only).

        ``jobs`` > 1 shards the per-user loop across that many worker
        processes; the merged corpus is bit-identical to ``jobs=1``.
        """
        config = self.config
        plan = self._plan()
        n_users = config.n_users

        if jobs <= 1 or n_users < 2:
            columns = self._fill_range(plan, 0, n_users, progress)
        else:
            bounds = _shard_bounds(plan.counts, jobs)
            with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
                futures = [
                    pool.submit(_generate_shard, config, lo, hi) for lo, hi in bounds
                ]
                parts = [future.result() for future in futures]
            columns = tuple(
                np.concatenate([part[i] for part in parts]) for i in range(5)
            )
        user_col, ts_col, lat_col, lon_col, site_col = columns

        ts_col = ts_col + config.start_ts
        if config.diurnal_amplitude > 0.0:
            pattern = DiurnalPattern(
                amplitude=config.diurnal_amplitude, peak_hour=config.diurnal_peak_hour
            )
            ts_col = pattern.warp_timestamps(ts_col, epoch=config.start_ts)
        # Sort by (user, time) once, keeping the site ground truth aligned.
        order = np.lexsort((ts_col, user_col))
        total_tweets = user_col.size
        corpus = TweetCorpus(
            tweet_ids=np.arange(total_tweets, dtype=np.int64),
            user_ids=user_col[order],
            timestamps=ts_col[order],
            lats=lat_col[order],
            lons=lon_col[order],
            presorted=True,
        )
        return GenerationResult(
            corpus=corpus,
            world=plan.world,
            home_sites=plan.homes,
            site_weights=plan.weights,
            site_indices=site_col[order],
            config=config,
            bot_users=np.arange(plan.first_bot, n_users, dtype=np.int64),
        )

    def _fill_range(
        self,
        plan: _GenerationPlan,
        lo: int,
        hi: int,
        progress: Callable[[int, int], None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fill users ``[lo, hi)``; timestamps are window offsets (no epoch)."""
        config = self.config
        world = plan.world
        counts = plan.counts
        total = int(counts[lo:hi].sum())

        user_col = np.empty(total, dtype=np.int64)
        ts_col = np.empty(total, dtype=np.float64)
        lat_col = np.empty(total, dtype=np.float64)
        lon_col = np.empty(total, dtype=np.float64)
        site_col = np.empty(total, dtype=np.int64)

        window = config.end_ts - config.start_ts
        sites = world.sites
        favorites = FavoritePointStore(config)
        point_for_tweet = favorites.point_for_tweet
        cursor = 0
        for user in range(lo, hi):
            rng = _user_stream(plan.users_ss, user)
            k = int(counts[user])
            home = int(plan.homes[user])
            sl = slice(cursor, cursor + k)
            user_col[sl] = user
            if user >= plan.first_bot:
                # Bots: uniform-rate posting from one exact point at home.
                ts_col[sl] = rng.uniform(0.0, window, k)
                site_col[sl] = home
                site = sites[home]
                lat_col[sl], lon_col[sl] = site.hotspots.scatter(rng, site.hotspot_jitter_km)
            else:
                ts_col[sl] = self._user_timestamps(k, window, rng)
                site_seq = self._user_site_sequence(k, home, plan.kernel, rng)
                site_col[sl] = site_seq
                favorites.reset_user()
                lat_col[sl], lon_col[sl] = zip(
                    *[point_for_tweet(s, sites[s], rng) for s in site_seq.tolist()]
                )
            cursor += k
            if progress is not None and (user + 1) % 5000 == 0:
                progress(user + 1, config.n_users)
        return user_col, ts_col, lat_col, lon_col, site_col

    def _user_timestamps(
        self, k: int, window: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Offsets (seconds from window start) of one user's tweets.

        The user starts at a uniform point in the window; waiting times
        beyond the window edge wrap around, so all tweets stay inside the
        collection period (as in the paper's Table I) at the cost of at
        most one disrupted waiting-time pair per user.
        """
        start = rng.uniform(0.0, window)
        if k == 1:
            return np.array([start])
        waits = self._wait_dist.sample(rng, k - 1)
        times = start + np.concatenate(([0.0], np.cumsum(waits)))
        return np.mod(times, window)

    def _user_site_sequence(
        self, k: int, home: int, kernel: TripKernel, rng: np.random.Generator
    ) -> np.ndarray:
        """Site index of each of one user's tweets, in posting order.

        A lazy Markov walk: between consecutive tweets the user moves
        with probability ``p_move``; a mover away from home returns home
        with probability ``trip_return_bias``, otherwise draws a gravity
        destination from the current site.
        """
        seq = np.empty(k, dtype=np.int64)
        if k == 1:
            seq[0] = home
            return seq
        config = self.config
        moves = rng.random(k - 1) < config.p_move
        current = home
        prev = 0
        for move_at in np.nonzero(moves)[0] + 1:
            seq[prev:move_at] = current
            if current != home and rng.random() < config.trip_return_bias:
                current = home
            else:
                current = kernel.sample_destination(current, rng)
            prev = int(move_at)
        seq[prev:] = current
        return seq


def generate_corpus(
    config: SynthConfig | None = None,
    progress: Callable[[int, int], None] | None = None,
    jobs: int = 1,
) -> GenerationResult:
    """One-call convenience wrapper around :class:`SyntheticCorpusGenerator`.

    ``jobs`` > 1 shards the per-user loop across processes; the result is
    bit-identical to the serial run for the same config.
    """
    return SyntheticCorpusGenerator(config or SynthConfig()).generate(
        progress=progress, jobs=jobs
    )
