"""Fixtures for the serving tests: a warm store and a live app.

The session-scoped store holds one corpus-only pipeline run (the
registry needs nothing else) and is treated as **read-only** by every
test that shares it; tests that write new runs (hot-reload) build their
own store.
"""

from __future__ import annotations

import pytest

from repro.pipeline import ArtifactStore, run_suite
from repro.serve import EstimationApp, IngestService, ModelRegistry
from repro.synth import SynthConfig

SEED = 424242
USERS = 1_500


def make_store(root, users: int = USERS, seed: int = SEED) -> ArtifactStore:
    """A store with one successful corpus-only pipeline run."""
    store = ArtifactStore(root)
    run_suite(
        config=SynthConfig(n_users=users, seed=seed),
        store=store,
        targets=("corpus",),
    )
    return store


@pytest.fixture(scope="session")
def warm_store(tmp_path_factory) -> ArtifactStore:
    """Shared read-only store with one servable run."""
    return make_store(tmp_path_factory.mktemp("serve-store"))


@pytest.fixture(scope="session")
def registry(warm_store) -> ModelRegistry:
    """A loaded registry over the shared store."""
    reg = ModelRegistry(warm_store, poll_interval=0.0)
    reg.load()
    return reg


@pytest.fixture()
def app(registry) -> EstimationApp:
    """A fresh app (fresh metrics/cache/monitor) over the shared registry."""
    from repro.core.world import World
    from repro.data.gazetteer import Scale, areas_for_scale, search_radius_km
    from repro.summary.store import SummaryStore

    world = World.from_areas(
        areas_for_scale(Scale.NATIONAL), search_radius_km(Scale.NATIONAL)
    )
    ingest = IngestService(SummaryStore(world), window_seconds=3600.0)
    return EstimationApp(registry, ingest, windowed_reads=False)
