"""A windowed read runs only the kernel of the half of the tiles it
answers.

``/v1/population`` reads per-area counts, which need the tiles'
``(area, user)`` pairs; ``/v1/flows`` reads OD cells.  Each read runs
its own kernel once and the other never: the population read counts
distinct users in one sort (``_count_users``) and never merges the
pairs' tweets (``_merge_pairs``), the flows read merges the cells.
"""

import random

import pytest

from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.serve import EstimationApp, IngestService
from repro.summary import tiers
from repro.summary.store import SummaryStore

WORLD = World.from_scale(Scale.NATIONAL)
WINDOW = {"window": "0:3000"}


@pytest.fixture()
def merges(monkeypatch) -> dict[str, int]:
    """Count the calls of each pair and cell kernel."""
    calls = {"pairs": 0, "merged_pairs": 0, "cells": 0}

    def spy(name: str, key: str) -> None:
        original = getattr(tiers, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(tiers, name, counted)

    spy("_count_users", "pairs")
    spy("_merge_pairs", "merged_pairs")
    spy("_merge_cells", "cells")
    return calls


@pytest.fixture()
def windowed_app(registry) -> EstimationApp:
    """An app whose store holds 50 busy minutes of hopping users."""
    ingest = IngestService(SummaryStore(WORLD, namespace="national"), window_seconds=3600.0)
    app = EstimationApp(registry, ingest, summary_scale=Scale.NATIONAL)
    rng = random.Random(5)
    tweets = []
    for k in range(600):
        area = WORLD.areas[rng.randrange(WORLD.n_areas)]
        tweets.append(
            {
                "user_id": rng.randrange(30),
                "timestamp": 5.0 * k,
                "lat": area.center.lat,
                "lon": area.center.lon,
            }
        )
    status, _payload, _ = app.handle("POST", "/v1/ingest", {}, {"tweets": tweets})
    assert status == 200
    return app


@pytest.mark.parametrize(
    "path, want",
    [
        ("/v1/population", {"pairs": 1, "merged_pairs": 0, "cells": 0}),
        ("/v1/flows", {"pairs": 0, "merged_pairs": 0, "cells": 1}),
    ],
)
def test_windowed_read_runs_only_its_merge(windowed_app, merges, path, want):
    merges.update(pairs=0, merged_pairs=0, cells=0)
    status, payload, _ = windowed_app.handle("GET", path, WINDOW, None)
    assert status == 200
    assert payload["buckets_touched"] == 50
    assert merges == want
