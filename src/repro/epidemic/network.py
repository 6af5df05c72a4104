"""Mobility networks for metapopulation epidemic models.

A :class:`MobilityNetwork` is a set of patches (the study areas) with
populations and a matrix of per-capita daily travel rates.  Rates come
from a fitted mobility model, scaled to "trips per person per day" —
which is exactly the paper's proposal: fit the model on Twitter flows,
then plug census populations in to predict real mobility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.world import World
from repro.data.gazetteer import Area
from repro.extraction.mobility import ODPairs
from repro.geo.distance import pairwise_distance_matrix
from repro.models.base import FittedMobilityModel


@dataclass(frozen=True)
class MobilityNetwork:
    """Patches plus a per-capita daily travel-rate matrix.

    ``rates[i, j]`` is the expected number of trips an individual of
    patch ``i`` makes to patch ``j`` per day; the diagonal is zero.
    """

    names: tuple[str, ...]
    populations: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.names)
        if self.populations.shape != (n,):
            raise ValueError("populations must have one entry per patch")
        if self.rates.shape != (n, n):
            raise ValueError("rates must be a square per-patch matrix")
        if np.any(self.populations <= 0):
            raise ValueError("patch populations must be positive")
        if np.any(self.rates < 0):
            raise ValueError("travel rates must be non-negative")
        if np.any(np.diag(self.rates) != 0):
            raise ValueError("diagonal travel rates must be zero")

    @property
    def n_patches(self) -> int:
        """Number of patches."""
        return len(self.names)


def _rates_from_trip_matrix(
    trip_matrix: np.ndarray, populations: np.ndarray, trips_per_person_per_day: float
) -> np.ndarray:
    """Convert a relative trip-volume matrix to per-capita daily rates.

    The matrix's row sums are normalised so the population-weighted mean
    out-travel rate equals ``trips_per_person_per_day`` — i.e. the OD
    matrix supplies the *structure* and the calibration constant supplies
    the *volume*, since Twitter transition counts are not trips/day.
    """
    trip_matrix = np.asarray(trip_matrix, dtype=np.float64)
    total_trips = trip_matrix.sum()
    if total_trips <= 0:
        raise ValueError("trip matrix has no flow to calibrate")
    total_population = populations.sum()
    scale = trips_per_person_per_day * total_population / total_trips
    return scale * trip_matrix / populations[:, None]


def network_from_model(
    fitted: FittedMobilityModel,
    areas: Sequence[Area] | World,
    trips_per_person_per_day: float = 0.05,
) -> MobilityNetwork:
    """Build a network from a fitted model over census populations.

    This is the paper's Section IV proposal made concrete: replace the
    Twitter-extracted flows with the model's estimates (computed from
    census m, n and the real distances) and couple patches with those.

    Passing a :class:`~repro.core.world.World` reuses its cached centre
    distance matrix; a bare area sequence recomputes the distances.
    """
    if isinstance(areas, World):
        names = areas.names
        populations = areas.populations
        distances = areas.distance_matrix_km
    else:
        names = tuple(a.name for a in areas)
        populations = np.array([a.population for a in areas], dtype=np.float64)
        distances = pairwise_distance_matrix([a.center for a in areas])
    n = len(names)
    source, dest = np.nonzero(~np.eye(n, dtype=bool))
    pairs = ODPairs(
        source=source,
        dest=dest,
        m=populations[source],
        n=populations[dest],
        d_km=distances[source, dest],
        flow=np.zeros(source.size),
    )
    estimates = np.asarray(fitted.predict(pairs), dtype=np.float64)
    matrix = np.zeros((n, n), dtype=np.float64)
    matrix[source, dest] = np.maximum(estimates, 0.0)
    return MobilityNetwork(
        names=names,
        populations=populations,
        rates=_rates_from_trip_matrix(matrix, populations, trips_per_person_per_day),
    )

