"""ε-radius population extraction (Section III of the paper).

For each study area the paper counts the tweets and the unique users
whose geo-tags fall within a search radius ε of the area centre
(ε = 50 km national, 25 km state, 2 km metropolitan; 0.5 km in the
Fig 3(b) sensitivity check).  The unique-user count is the "Twitter
population" that Fig 3 correlates with census population.

The same radius machinery also produces a per-tweet area label for the
OD extraction of Section IV: a tweet belongs to the *nearest* area whose
ε-disc contains it, or to no area at all.

The counting itself lives in the kernel layer — :mod:`repro.core.label`
— which batch, streaming and serving all share.  This module is the
batch adapter: it binds the kernels to :class:`TweetCorpus` columns and
wraps the results in the paper's artefact types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.label import count_population, label_corpus
from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area
from repro.geo.index import BruteForceIndex, GridIndex


@dataclass(frozen=True, slots=True)
class AreaObservation:
    """What the corpus shows within ε of one area centre.

    ``n_users`` is the paper's "Twitter population" of the area;
    ``census_population`` is carried along for convenience.
    """

    area: Area
    radius_km: float
    n_tweets: int
    n_users: int

    @property
    def census_population(self) -> int:
        """The area's census population from the gazetteer."""
        return self.area.population


def _as_world(areas: Sequence[Area] | World, radius_km: float) -> World:
    if isinstance(areas, World):
        return areas.with_radius(radius_km)
    return World.from_areas(areas, radius_km)


def extract_area_observations(
    corpus: TweetCorpus,
    areas: Sequence[Area] | World,
    radius_km: float,
    index: GridIndex | BruteForceIndex | None = None,
) -> list[AreaObservation]:
    """Count tweets and unique users within ``radius_km`` of each area.

    Parameters
    ----------
    corpus:
        The tweet corpus to measure.
    areas:
        The study areas (typically one gazetteer scale's 20 areas), or a
        prebuilt :class:`~repro.core.world.World` over them.
    radius_km:
        The search radius ε.
    index:
        Optional prebuilt spatial index over exactly this corpus's
        coordinates; pass one when extracting several scales from the
        same corpus to avoid rebuilding.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km}")
    world = _as_world(areas, radius_km)
    tweet_counts, user_counts = count_population(
        world, corpus.lats, corpus.lons, corpus.user_ids, index=index
    )
    return [
        AreaObservation(
            area=area,
            radius_km=world.radius_km,
            n_tweets=int(tweet_counts[area_index]),
            n_users=int(user_counts[area_index]),
        )
        for area_index, area in enumerate(world.areas)
    ]


def assign_tweets_to_areas(
    corpus: TweetCorpus,
    areas: Sequence[Area] | World,
    radius_km: float,
    index: GridIndex | BruteForceIndex | None = None,
) -> np.ndarray:
    """Label each tweet with its area index, or -1 when outside every ε-disc.

    Overlapping discs (possible at national scale, where 50 km circles of
    neighbouring cities may intersect) are resolved by assigning the
    tweet to the nearest qualifying centre — the core labelling kernel's
    contract, shared bit-for-bit with the streaming path.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km}")
    world = _as_world(areas, radius_km)
    return label_corpus(world, corpus.lats, corpus.lons, index=index)


def twitter_population_arrays(
    observations: Sequence[AreaObservation],
) -> tuple[np.ndarray, np.ndarray]:
    """Split observations into (twitter_users, census_population) arrays.

    The pair of arrays Fig 3 scatters (before rescaling).
    """
    twitter = np.array([o.n_users for o in observations], dtype=np.float64)
    census = np.array([o.census_population for o in observations], dtype=np.float64)
    return twitter, census
