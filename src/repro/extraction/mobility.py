"""Origin–destination flow extraction (Section IV of the paper).

The paper extracts mobility "by counting how many pairs of consecutive
Tweets appear first at the source area and then the destination area".
Given the per-tweet area labels from
:func:`repro.extraction.population.assign_tweets_to_areas`, this module
walks each user's chronological tweet sequence and increments the flow
``T[source, destination]`` for every consecutive pair whose two tweets
carry different area labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.accumulate import od_matrix_from_labels
from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area
from repro.geo.distance import pair_distances_km, pairwise_distance_matrix


@dataclass(frozen=True)
class ODFlows:
    """An origin–destination flow matrix over a set of study areas.

    ``matrix[i, j]`` counts observed transitions from area ``i`` to area
    ``j`` (diagonal is zero by construction: a pair must change area to
    count as a trip).
    """

    areas: tuple[Area, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.areas)
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({n}, {n})")

    @property
    def n_areas(self) -> int:
        """Number of study areas."""
        return len(self.areas)

    @property
    def total_trips(self) -> int:
        """Total observed inter-area transitions."""
        return int(self.matrix.sum())

    def populations(self) -> np.ndarray:
        """Census populations aligned with the matrix axes."""
        return np.array([a.population for a in self.areas], dtype=np.float64)

    def distance_matrix_km(self) -> np.ndarray:
        """Pairwise haversine distances between area centres."""
        return pairwise_distance_matrix([a.center for a in self.areas])

    def pairs(self, min_flow: int = 1) -> "ODPairs":
        """Flatten to the per-pair arrays the models are fitted on.

        Only off-diagonal pairs with flow >= ``min_flow`` are returned
        (models are fitted in log space, so zero flows cannot enter the
        fit — exactly as in the paper's least-squares-after-logarithm
        procedure).
        """
        if min_flow < 0:
            raise ValueError(f"min_flow must be non-negative, got {min_flow}")
        n = self.n_areas
        populations = self.populations()
        distances = self.distance_matrix_km()
        source, dest = np.nonzero(
            (self.matrix >= max(min_flow, 1)) & ~np.eye(n, dtype=bool)
        )
        obs.counter("extraction.od_pairs_built", int(source.size))
        return ODPairs(
            source=source,
            dest=dest,
            m=populations[source],
            n=populations[dest],
            d_km=distances[source, dest],
            flow=self.matrix[source, dest].astype(np.float64),
        )


@dataclass(frozen=True)
class ODPairs:
    """Per-pair fitting arrays: masses, distance and observed flow.

    ``m`` is the source population, ``n`` the destination population,
    ``d_km`` the centre distance and ``flow`` the observed transition
    count — the (m, n, d, T) tuples that Eq 1–3 of the paper consume.
    """

    source: np.ndarray
    dest: np.ndarray
    m: np.ndarray
    n: np.ndarray
    d_km: np.ndarray
    flow: np.ndarray

    def __len__(self) -> int:
        return int(self.flow.size)

    @classmethod
    def from_cells(
        cls, world: World, source: np.ndarray, dest: np.ndarray, flow: np.ndarray
    ) -> "ODPairs":
        """Fitting arrays for the listed OD cells of ``world``.

        The sparse counterpart of :meth:`ODFlows.pairs`: masses come
        from the world's cached populations and distances are computed
        for these pairs only, never for the full area × area matrix.
        """
        obs.counter("extraction.od_pairs_built", int(source.size))
        populations = world.populations
        return cls(
            source=source,
            dest=dest,
            m=populations[source],
            n=populations[dest],
            d_km=pair_distances_km(
                world.centers_lat[source], world.centers_lon[source],
                world.centers_lat[dest], world.centers_lon[dest],
            ),
            flow=np.asarray(flow, dtype=np.float64),
        )


def extract_od_flows(
    corpus: TweetCorpus, area_labels: np.ndarray, areas: Sequence[Area]
) -> ODFlows:
    """Count consecutive-tweet transitions between labelled areas.

    Parameters
    ----------
    corpus:
        The (user-time sorted) corpus.
    area_labels:
        Per-tweet area index from :func:`assign_tweets_to_areas`
        (-1 = no area), aligned with the corpus rows.
    areas:
        The study areas the labels index into.
    """
    area_labels = np.asarray(area_labels)
    if area_labels.shape != corpus.user_ids.shape:
        raise ValueError("labels must align with corpus rows")
    n = len(areas)
    with obs.span("extract_od_flows", areas=n, tweets=len(corpus)) as sp:
        matrix, transitions = od_matrix_from_labels(corpus.user_ids, area_labels, n)
        sp.set(transitions=transitions)
    obs.counter("extraction.od_transitions", transitions)
    return ODFlows(areas=tuple(areas), matrix=matrix)


def symmetrize(flows: ODFlows) -> ODFlows:
    """The undirected version ``T + T^T`` of a flow matrix.

    Gravity-style analyses sometimes pool both directions; provided for
    the ablation benchmarks, not used by the core reproduction (the paper
    fits directed pairs).
    """
    return ODFlows(areas=flows.areas, matrix=flows.matrix + flows.matrix.T)
