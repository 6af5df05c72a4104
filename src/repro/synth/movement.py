"""Ground-truth travel process and tweet-position scattering.

Users move between world sites according to a gravity kernel

    P(j | i)  ∝  population_j ** alpha / d_ij ** gamma        (j != i)

— the same functional family the paper fits, operating on the *real*
Australian geography.  Because the generating process is gravity-shaped,
the reproduction preserves the paper's central comparison: the gravity
fits recover the flows well, while the radiation model (whose predictions
depend on intervening population, heavily distorted by Australia's empty
interior) fits worse, exactly as the paper observes.

Tweet positions within a site scatter around its *activity centre* with
an exponential radial kernel of scale ``scatter_km``, but users re-use a
small set of favourite points (home, work, haunts) rather than drawing a
fresh point per tweet; this keeps distinct locations per user well below
tweets per user, matching Table I.
"""

from __future__ import annotations

import numpy as np

from repro.synth.config import SynthConfig
from repro.synth.population import World, WorldSite


class TripKernel:
    """Precomputed gravity transition distribution between world sites.

    Row ``i`` of the internal CDF table is the cumulative distribution of
    destinations conditioned on being at site ``i``.
    """

    def __init__(self, world: World, config: SynthConfig) -> None:
        self.world = world
        n = len(world)
        if n == 1:
            # A one-site world has no trips; keep a degenerate table.
            self._cdf = np.ones((1, 1), dtype=np.float64)
            self._probs = np.ones((1, 1), dtype=np.float64)
            return
        masses = world.populations**config.gravity_alpha
        distances = world.distance_km.copy()
        # Avoid division by zero on the diagonal; diagonal mass is zeroed anyway.
        np.fill_diagonal(distances, 1.0)
        weights = masses[None, :] / distances**config.gravity_gamma
        np.fill_diagonal(weights, 0.0)
        row_sums = weights.sum(axis=1, keepdims=True)
        self._probs = weights / row_sums
        self._cdf = np.cumsum(self._probs, axis=1)
        self._cdf[:, -1] = 1.0

    # repro: allow[reachability] oracle: tests/synth/test_movement.py checks sampled trips against it
    def transition_probabilities(self, origin: int) -> np.ndarray:
        """The ground-truth ``P(j | origin)`` row (sums to 1, 0 at origin)."""
        return self._probs[origin].copy()

    def sample_destination(self, origin: int, rng: np.random.Generator) -> int:
        """Draw one destination site for a move starting at ``origin``."""
        u = rng.random()
        return int(self._cdf[origin].searchsorted(u, side="right"))


class FavoritePointStore:
    """Per-(user, site) favourite tweeting points.

    A user's first visit to a site creates a favourite point; subsequent
    tweets there re-use an existing favourite with probability
    ``1 - favorite_new_point_p`` and otherwise mint a new one.  Exact
    re-use (bit-identical coordinates) is what keeps Table I's distinct
    locations per user low.
    """

    def __init__(self, config: SynthConfig) -> None:
        self._new_point_p = config.favorite_new_point_p
        self._points: dict[int, list[tuple[float, float]]] = {}

    def reset_user(self) -> None:
        """Forget the current user's favourites (called between users)."""
        self._points.clear()

    def point_for_tweet(
        self, site_index: int, site: WorldSite, rng: np.random.Generator
    ) -> tuple[float, float]:
        """The (lat, lon) a tweet at ``site`` is posted from."""
        favorites = self._points.get(site_index)
        if favorites is None:
            favorites = []
            self._points[site_index] = favorites
        if not favorites or rng.random() < self._new_point_p:
            pair = site.hotspots.scatter(rng, site.hotspot_jitter_km)
            favorites.append(pair)
            return pair
        return favorites[rng.integers(len(favorites))]

