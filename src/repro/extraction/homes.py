"""Home-location detection and home-based population estimation.

The paper counts *unique users* inside each area's ε-disc; a user who
tweets from both Sydney and Melbourne counts in both.  The standard
refinement in the Twitter-mobility literature is to detect each user's
*home location* — their modal tweeting position — and count each user
exactly once, where they live.  This module implements that pipeline as
an alternative population estimator, used by the A6 ablation benchmark
and validated against the synthetic generator's ground-truth homes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.label import label_corpus
from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area


@dataclass(frozen=True)
class HomeLocations:
    """Detected home positions, one row per user.

    ``user_ids`` is sorted ascending (the corpus's unique-user order);
    ``confidence`` is the fraction of the user's tweets posted from the
    modal position.
    """

    user_ids: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return int(self.user_ids.size)


def detect_home_locations(
    corpus: TweetCorpus, round_decimals: int = 3
) -> HomeLocations:
    """Each user's modal tweeting position.

    Positions are compared after rounding to ``round_decimals`` decimal
    degrees (1e-3 ≈ 110 m, neighbourhood resolution), which groups a
    user's favourite points into places; the most-visited place wins,
    with earlier-seen places breaking ties.  The returned coordinate is
    the mean of the user's *unrounded* tweets at the winning place.
    """
    n_users = corpus.n_users
    user_ids = corpus.unique_users
    home_lats = np.empty(n_users)
    home_lons = np.empty(n_users)
    confidence = np.empty(n_users)
    rounded_lats = np.round(corpus.lats, round_decimals)
    rounded_lons = np.round(corpus.lons, round_decimals)
    for i, user_id in enumerate(user_ids):
        rows = corpus.user_slice(int(user_id))
        keys = np.stack([rounded_lats[rows], rounded_lons[rows]], axis=1)
        places, inverse, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        winner = int(np.argmax(counts))
        members = inverse == winner
        home_lats[i] = corpus.lats[rows][members].mean()
        home_lons[i] = corpus.lons[rows][members].mean()
        confidence[i] = counts[winner] / keys.shape[0]
    return HomeLocations(
        user_ids=user_ids.copy(),
        lats=home_lats,
        lons=home_lons,
        confidence=confidence,
    )


def home_based_population(
    homes: HomeLocations,
    areas: list[Area] | tuple[Area, ...],
    radius_km: float,
    min_confidence: float = 0.0,
) -> np.ndarray:
    """Users whose detected home falls within ε of each area centre.

    Unlike the paper's presence-based count, each user contributes to at
    most one area (the nearest one whose disc contains their home).
    ``min_confidence`` drops users whose modal place holds too small a
    share of their tweets to call it home.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km}")
    if not (0.0 <= min_confidence <= 1.0):
        raise ValueError("min_confidence must be a probability")
    keep = homes.confidence >= min_confidence
    world = World.from_areas(areas, radius_km)
    labels = label_corpus(world, homes.lats[keep], homes.lons[keep])
    return np.bincount(labels[labels >= 0], minlength=world.n_areas)
