"""Artifact-backed model registry with hot-reload.

The registry is the bridge between the offline pipeline and the online
service: it resolves the **latest successful run** recorded in an
:class:`~repro.pipeline.store.ArtifactStore`, loads that run's corpus
artifact, and derives everything the endpoints serve — per-scale area
observations, OD flows and fitted mobility models — into one immutable
:class:`Snapshot`.

Hot-reload semantics
--------------------
``maybe_reload`` polls the store's ``runs/`` directory (rate-limited by
``poll_interval`` seconds) for a successful run newer than the current
snapshot's.  Loading happens *outside* the reader path: request threads
keep serving the old snapshot until the new one is fully built, then a
single attribute assignment swaps it in (atomic under the GIL).  A lock
serialises concurrent reload attempts; readers never block.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.world import World
from repro.data.gazetteer import Area, Scale
from repro.experiments.scales import ExperimentContext
from repro.extraction.mobility import ODFlows, ODPairs
from repro.extraction.population import AreaObservation
from repro.models.base import FittedMobilityModel, ModelFitError
from repro.models.gravity import GravityModel
from repro.models.radiation import RadiationModel
from repro.pipeline.store import ArtifactStore

#: Model keys accepted by the predict endpoint, in display order.
MODEL_KEYS = ("gravity2", "gravity4", "radiation")


class RegistryError(RuntimeError):
    """Raised when no servable pipeline run can be resolved."""


@dataclass(frozen=True)
class ScaleSnapshot:
    """Everything served for one geographic scale.

    The area system itself is the snapshot's :class:`World`; areas,
    radius and the centre distance matrix are views onto it, so the
    serving layer shares the exact geometry the extraction ran with.
    """

    scale: Scale
    world: World
    observations: tuple[AreaObservation, ...]
    flows: ODFlows
    models: Mapping[str, FittedMobilityModel]

    @property
    def areas(self) -> tuple[Area, ...]:
        """The scale's study areas (from the world)."""
        return self.world.areas

    @property
    def radius_km(self) -> float:
        """The search radius ε the snapshot was extracted at."""
        return self.world.radius_km

    @property
    def distance_km(self) -> np.ndarray:
        """Pairwise centre distances (the world's cached matrix)."""
        return self.world.distance_matrix_km

    def area_index(self, name: str) -> int:
        """Index of an area by (case-insensitive) name; -1 if unknown."""
        return self.world.area_index(name)

    def predict_pairs(self, model_key: str, sources: np.ndarray, dests: np.ndarray) -> np.ndarray:
        """Vectorised flow predictions for index pairs (one model call)."""
        model = self.models.get(model_key)
        if model is None:
            raise KeyError(model_key)
        populations = self.flows.populations()
        pairs = ODPairs(
            source=sources,
            dest=dests,
            m=populations[sources],
            n=populations[dests],
            d_km=self.distance_km[sources, dests],
            flow=np.zeros(sources.size, dtype=np.float64),
        )
        return model.predict(pairs)


@dataclass(frozen=True)
class Snapshot:
    """One immutable serving state, derived from one pipeline run."""

    run_id: str
    corpus_digest: str
    n_tweets: int
    n_users: int
    loaded_at: float
    scales: Mapping[Scale, ScaleSnapshot]

    def scale(self, name: str) -> ScaleSnapshot | None:
        """A scale snapshot by its lowercase name, or ``None``."""
        try:
            return self.scales.get(Scale(name.lower()))
        except ValueError:
            return None


def build_snapshot(store: ArtifactStore, manifest) -> Snapshot:
    """Derive a full serving snapshot from one run's corpus artifact.

    Models that cannot be fitted on the run's flows (too few positive
    pairs at a scale) are simply absent from that scale's ``models``
    map; the predict endpoint reports them as unavailable rather than
    failing the whole snapshot.
    """
    corpus_digest = manifest.digest_of("corpus")
    if corpus_digest is None:
        raise RegistryError(f"run {manifest.run_id} has no corpus artifact")
    corpus = store.get(corpus_digest)
    context = ExperimentContext(corpus)
    scales: dict[Scale, ScaleSnapshot] = {}
    for spec in context.specs:
        flows = context.flows(spec.scale)
        pairs = flows.pairs()
        models: dict[str, FittedMobilityModel] = {}
        fitters = {
            "gravity2": GravityModel(2),
            "gravity4": GravityModel(4),
            "radiation": RadiationModel.from_flows(flows),
        }
        for key, fitter in fitters.items():
            try:
                models[key] = fitter.fit(pairs)
            except ModelFitError:
                continue
        scales[spec.scale] = ScaleSnapshot(
            scale=spec.scale,
            world=spec.world,
            observations=tuple(context.observations(spec.scale)),
            flows=flows,
            models=models,
        )
    return Snapshot(
        run_id=manifest.run_id,
        corpus_digest=corpus_digest,
        n_tweets=len(corpus),
        n_users=corpus.n_users,
        loaded_at=time.time(),  # repro: allow[determinism] snapshot load timestamp
        scales=scales,
    )


class ModelRegistry:
    """Resolves, holds and hot-reloads the current serving snapshot."""

    def __init__(
        self,
        store: ArtifactStore,
        poll_interval: float = 2.0,
    ) -> None:
        self.store = store
        self.poll_interval = float(poll_interval)
        self._lock = threading.Lock()
        self._snapshot: Snapshot | None = None
        self._next_poll = 0.0

    @property
    def snapshot(self) -> Snapshot:
        """The current snapshot (load on first access)."""
        snapshot = self._snapshot
        if snapshot is None:
            self.load()
            snapshot = self._snapshot
            assert snapshot is not None
        return snapshot

    def load(self) -> Snapshot:
        """Resolve the latest successful run and build its snapshot.

        Raises :class:`RegistryError` when the store has no servable
        run (never piped, or the cache was cleaned).
        """
        manifest = self.store.latest_successful_run(required=("corpus",))
        if manifest is None:
            raise RegistryError(
                f"no successful pipeline run with a servable corpus under "
                f"{self.store.root} — run `repro pipeline run` first"
            )
        current = self._snapshot
        if current is not None and current.run_id == manifest.run_id:
            return current
        # Build outside the lock: extraction and fits are slow and bump
        # obs counters.  Only the swap holds ``_lock``, and it keeps a
        # snapshot another thread swapped in meanwhile.
        snapshot = build_snapshot(self.store, manifest)
        with self._lock:
            if self._snapshot is current:
                self._snapshot = snapshot
            return self._snapshot

    def maybe_reload(self, force: bool = False) -> bool:
        """Swap in a newer run's snapshot if one appeared.

        Rate-limited to one directory scan per ``poll_interval`` seconds
        unless ``force`` is true.  Returns ``True`` when the snapshot
        was replaced.  Reload failures (e.g. a run deleted mid-build)
        leave the current snapshot serving and propagate nothing.
        """
        now = time.monotonic()
        if not force and now < self._next_poll:
            return False
        # repro: allow[concurrency] benign race: worst case is one extra scan
        self._next_poll = now + self.poll_interval
        current = self._snapshot
        manifest = self.store.latest_successful_run(required=("corpus",))
        if manifest is None:
            return False
        if current is not None and manifest.run_id == current.run_id:
            return False
        try:
            snapshot = build_snapshot(self.store, manifest)
        except Exception:
            return False
        with self._lock:
            # Re-check under the lock: another thread may have swapped.
            if self._snapshot is not current:
                return False
            self._snapshot = snapshot
            return True
