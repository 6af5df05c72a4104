"""Shared experiment context: the three scales plus cached extraction.

Several experiments need the same expensive intermediates over one
corpus — the spatial index, per-scale area labels, per-scale OD flows.
:class:`ExperimentContext` computes each lazily and memoises it so a
full experiment suite builds the index exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.world import World
from repro.data.corpus import TweetCorpus
from repro.data.gazetteer import Area, Scale
from repro.epidemic.network import MobilityNetwork, network_from_model
from repro.extraction.mobility import ODFlows, extract_od_flows
from repro.extraction.population import (
    AreaObservation,
    assign_tweets_to_areas,
    extract_area_observations,
)
from repro.geo.index import GridIndex
from repro.models.registry import fit_kind


@dataclass(frozen=True, slots=True)
class ScaleSpec:
    """One geographic scale: its :class:`World` (areas + search radius ε)."""

    scale: Scale
    world: World

    @property
    def areas(self) -> tuple[Area, ...]:
        """The scale's study areas (from the world)."""
        return self.world.areas

    @property
    def radius_km(self) -> float:
        """The scale's default search radius ε (from the world)."""
        return self.world.radius_km


def default_scale_specs(gazetteer: str | None = None) -> tuple[ScaleSpec, ...]:
    """The three scales with their Section III radii.

    Defaults to the paper's 60 legacy areas; pass a gazetteer spec
    (``synth:1000``) to run the same three-scale structure over a
    country-scale synthetic area system.
    """
    return tuple(
        ScaleSpec(scale=scale, world=World.from_scale(scale, gazetteer=gazetteer))
        for scale in Scale
    )


class ExperimentContext:
    """A corpus plus lazily cached per-scale extraction products."""

    def __init__(
        self,
        corpus: TweetCorpus,
        index: GridIndex | None = None,
        gazetteer: str | None = None,
    ) -> None:
        self.corpus = corpus
        self.gazetteer = gazetteer
        self.specs = default_scale_specs(gazetteer)
        self._index = index
        self._worlds: dict[tuple[Scale, float], World] = {}
        self._observations: dict[tuple[Scale, float], list[AreaObservation]] = {}
        self._labels: dict[tuple[Scale, float], "object"] = {}
        self._flows: dict[tuple[Scale, float], ODFlows] = {}
        self._networks: dict[tuple[Scale, str, float], MobilityNetwork] = {}

    @property
    def index(self) -> GridIndex:
        """The spatial index over the corpus (built on first use)."""
        if self._index is None:
            self._index = GridIndex(self.corpus.lats, self.corpus.lons)
        return self._index

    def spec(self, scale: Scale) -> ScaleSpec:
        """The spec for one scale."""
        for spec in self.specs:
            if spec.scale is scale:
                return spec
        raise KeyError(scale)

    def world(self, scale: Scale, radius_km: float | None = None) -> World:
        """The (cached) world for a scale, optionally at a non-default ε.

        Worlds are memoised per ``(scale, radius)`` so derived geometry
        (distance matrices, centre columns) is computed at most once per
        radius across a whole experiment suite.
        """
        spec = self.spec(scale)
        if radius_km is None or radius_km == spec.radius_km:
            return spec.world
        key = (scale, radius_km)
        if key not in self._worlds:
            self._worlds[key] = spec.world.with_radius(radius_km)
        return self._worlds[key]

    def observations(
        self, scale: Scale, radius_km: float | None = None
    ) -> list[AreaObservation]:
        """Cached ε-radius area observations for a scale."""
        spec = self.spec(scale)
        radius = spec.radius_km if radius_km is None else radius_km
        key = (scale, radius)
        if key not in self._observations:
            self._observations[key] = extract_area_observations(
                self.corpus, self.world(scale, radius), radius, index=self.index
            )
        return self._observations[key]

    def labels(self, scale: Scale, radius_km: float | None = None):
        """Cached per-tweet area labels for a scale."""
        spec = self.spec(scale)
        radius = spec.radius_km if radius_km is None else radius_km
        key = (scale, radius)
        if key not in self._labels:
            self._labels[key] = assign_tweets_to_areas(
                self.corpus, self.world(scale, radius), radius, index=self.index
            )
        return self._labels[key]

    def flows(self, scale: Scale, radius_km: float | None = None) -> ODFlows:
        """Cached OD flows for a scale."""
        spec = self.spec(scale)
        radius = spec.radius_km if radius_km is None else radius_km
        key = (scale, radius)
        if key not in self._flows:
            self._flows[key] = extract_od_flows(
                self.corpus, self.labels(scale, radius), spec.areas
            )
        return self._flows[key]

    def network(
        self,
        scale: Scale,
        model: str = "gravity2",
        trips_per_person_per_day: float = 0.05,
    ) -> MobilityNetwork:
        """Cached model-coupled mobility network for a scale.

        ``model`` is a :data:`repro.models.MODEL_KINDS` string; the
        model is fitted on the scale's cached OD flows and coupled over
        the world's cached centre-distance matrix, so repeated scenario
        evaluations over one context fit each (scale, kind) pair once.
        """
        key = (scale, model, trips_per_person_per_day)
        if key not in self._networks:
            fitted = fit_kind(model, self.flows(scale))
            self._networks[key] = network_from_model(
                fitted, self.world(scale), trips_per_person_per_day
            )
        return self._networks[key]
