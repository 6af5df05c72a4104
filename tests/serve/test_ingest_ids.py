"""``POST /v1/ingest`` rejects user ids a 64-bit column cannot hold.

User ids land in int64 columns: the corpus's, and every summary tile's
``(area, user)`` pairs.  The shared record parser refuses ids at or above
``2**63`` with a message naming the field, so the endpoint answers 400
(the file loaders raise the same message) instead of failing inside a
column build.
"""

from __future__ import annotations

import pytest

from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.serve import EstimationApp, IngestService
from repro.summary.store import SummaryStore

SYDNEY = {"lat": -33.8688, "lon": 151.2093}


@pytest.fixture()
def summary_app(registry) -> EstimationApp:
    world = World.from_scale(Scale.NATIONAL)
    return EstimationApp(registry, IngestService(SummaryStore(world)))


def ingest(app: EstimationApp, *user_ids: int):
    tweets = [
        {"user_id": user_id, "timestamp": 10.0 + k, **SYDNEY}
        for k, user_id in enumerate(user_ids)
    ]
    return app.handle("POST", "/v1/ingest", {}, {"tweets": tweets})


@pytest.mark.parametrize("user_id", [2**63, 2**64])
def test_user_id_beyond_int64_is_400_naming_the_field(summary_app, user_id):
    status, payload, _ = ingest(summary_app, 1, user_id)
    assert status == 400
    message = payload["error"]["message"]
    assert message.startswith("tweets[1]: ")
    assert "user_id must fit int64" in message
    assert summary_app.summary.stats()["accepted"] == 0


def test_largest_int64_user_id_is_counted(summary_app):
    status, payload, _ = ingest(summary_app, 2**63 - 1, 2**63 - 1)
    assert status == 200
    assert payload["summary"]["accepted"] == 2
    status, body, _ = summary_app.handle(
        "GET", "/v1/population", {"window": "0:60"}, None
    )
    assert status == 200
    sydney = next(area for area in body["areas"] if area["name"] == "Sydney")
    assert (sydney["tweets"], sydney["twitter_population"]) == (2, 1)
