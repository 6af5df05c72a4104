"""Golden journal: a summary journal written by an earlier build must
recover bitwise, and the same stream must write the same bytes.

``tests/golden/summary_journal.log`` is the journal a
:class:`SummaryStore` wrote for :func:`golden_stream` (a fixed-seed
stream whose user ids spread over ``[0, 2**63)``), ingested in the
batches :func:`golden_batches` cuts, then flushed.
``tests/golden/summary_journal.json`` holds what a store that recovers
that journal answers for :data:`WINDOWS`: per-area tweets and distinct
users, and the OD cells.  A change to the tile codec, to how a store
holds user ids, or to the merge kernels must leave both files valid.

Regenerate them only for an intended format change, and say so in the
commit message::

    PYTHONPATH=src python tests/summary/test_golden_journal.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.world import World
from repro.data.gazetteer import Scale
from repro.data.schema import Tweet
from repro.pipeline.store import ArtifactStore
from repro.summary.store import SummaryStore

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
JOURNAL_PATH = GOLDEN_DIR / "summary_journal.log"
PAYLOADS_PATH = GOLDEN_DIR / "summary_journal.json"

WORLD = World.from_scale(Scale.NATIONAL)
NAMESPACE = "golden"
SEED = 20261020
#: Large odd multiplier: ``k * SPREAD mod 2**63`` is a bijection of
#: ``[0, 2**63)`` that scatters small user numbers over the whole range.
SPREAD = 0x9E3779B97F4A7C15
#: A day edge; the stream straddles it, so the journal holds minute,
#: hour and day tiles.
DAY_EDGE = 86400 * 15972

#: ``(t0, t1)`` windows read from the recovered store: the whole span,
#: an hour either side of the day edge, unaligned bounds, a quarter
#: hour inside one hour, and a window past the data.
WINDOWS = (
    (DAY_EDGE - 86400, DAY_EDGE + 86400),
    (DAY_EDGE - 3600, DAY_EDGE + 3600),
    (DAY_EDGE - 1234.5, DAY_EDGE + 987.25),
    (DAY_EDGE + 600, DAY_EDGE + 1500),
    (DAY_EDGE + 5400, DAY_EDGE + 9000),
)


def golden_stream() -> list[Tweet]:
    """64 time-ordered tweets of 12 users around :data:`DAY_EDGE`.

    Each user hops among three home areas; one tweet in seven lands far
    from every area, so it counts toward no area and breaks no move.
    """
    rng = np.random.default_rng(SEED)
    n_users, n = 12, 64
    raw_ids = [(k * SPREAD) % 2**63 for k in range(n_users)]
    homes = rng.integers(0, WORLD.n_areas, size=(n_users, 3))
    timestamps = DAY_EDGE - 4500.0 + np.cumsum(rng.exponential(110.0, size=n))
    tweets = []
    for ts in timestamps.tolist():
        user = int(rng.integers(n_users))
        if rng.random() < 1 / 7:
            lat, lon = -25.0, 125.0
        else:
            center = WORLD.areas[int(homes[user, rng.integers(3)])].center
            lat = center.lat + float(rng.normal(0.0, 0.05))
            lon = center.lon + float(rng.normal(0.0, 0.05))
        tweets.append(Tweet(user_id=raw_ids[user], timestamp=ts, lat=lat, lon=lon))
    return tweets


def golden_batches() -> list[list[Tweet]]:
    """The stream cut into ingest batches of one to six tweets."""
    tweets = golden_stream()
    rng = np.random.default_rng(SEED + 1)
    batches, pos = [], 0
    while pos < len(tweets):
        size = int(rng.integers(1, 7))
        batches.append(tweets[pos : pos + size])
        pos += size
    return batches


def write_stream(root: Path) -> SummaryStore:
    """Ingest :func:`golden_batches` into a journaled store, then flush."""
    store = SummaryStore(WORLD, artifacts=ArtifactStore(root), namespace=NAMESPACE)
    for batch in golden_batches():
        store.ingest(batch)
    store.flush()
    return store


def journal_of(root: Path) -> Path:
    return ArtifactStore(root).journals_dir / f"summary-{NAMESPACE}.log"


def answers(store: SummaryStore) -> list[dict]:
    """What ``store`` answers for every window of :data:`WINDOWS`."""
    out = []
    for t0, t1 in WINDOWS:
        result = store.query(t0, t1)
        sources, dests, counts = result.flow_cells()
        out.append(
            {
                "window": [result.t0, result.t1],
                "n_tweets": result.n_tweets,
                "buckets_touched": result.buckets_touched,
                "tiles_used": dict(result.tiles_used),
                "staleness_seconds": result.staleness_seconds,
                "tweet_counts": result.tweet_counts.tolist(),
                "user_counts": result.user_counts.tolist(),
                "n_transitions": result.n_transitions,
                "flows": [sources.tolist(), dests.tolist(), counts.tolist()],
            }
        )
    return out


def recover(root: Path, journal: bytes) -> SummaryStore:
    path = journal_of(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(journal)
    store = SummaryStore(WORLD, artifacts=ArtifactStore(root), namespace=NAMESPACE)
    store.recover()
    return store


def test_golden_journal_recovers_bitwise(tmp_path):
    golden = json.loads(PAYLOADS_PATH.read_text())
    store = recover(tmp_path, JOURNAL_PATH.read_bytes())
    assert store.stats()["stale_frames"] == 0
    assert answers(store) == golden["answers"]


def test_same_stream_writes_the_golden_bytes(tmp_path):
    golden = json.loads(PAYLOADS_PATH.read_text())
    live = write_stream(tmp_path)
    assert journal_of(tmp_path).read_bytes() == JOURNAL_PATH.read_bytes()
    assert answers(live) == golden["answers"]


def test_stream_spans_the_id_range():
    users = {tweet.user_id for tweet in golden_stream()}
    assert len(users) == 12
    assert max(users) > 2**62 and sum(u > 2**53 for u in users) >= 6


def _regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        write_stream(Path(root))
        journal = journal_of(Path(root)).read_bytes()
    with tempfile.TemporaryDirectory() as root:
        recovered = answers(recover(Path(root), journal))
    JOURNAL_PATH.write_bytes(journal)
    PAYLOADS_PATH.write_text(
        json.dumps({"seed": SEED, "answers": recovered}, indent=1) + "\n"
    )
    print(f"wrote {len(journal)} journal bytes and {len(recovered)} answers")


if __name__ == "__main__":
    _regenerate()
