"""Fault injection on the summary tile journal.

Each finalized tile is one framed append to
``journals/summary-<namespace>.log``.  These tests damage that file the
ways a crash or a bad disk can — a torn last frame at every byte
offset, a flipped payload byte, a writer SIGKILLed mid loop, a failed
write, two writers interleaving, the file removed under an open
journal — and assert what recovery must return.
"""

from __future__ import annotations

import base64
import os
import signal
import subprocess
import sys
import textwrap
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.world import World
from repro.data.gazetteer import Scale, areas_for_scale
from repro.data.schema import Tweet
from repro.pipeline.journal import FRAME, Journal, scan_frames
from repro.pipeline.store import ArtifactStore
from repro.serve import EstimationApp, IngestService
from repro.summary.store import SummaryStore
from repro.summary.tiers import SummaryBucket, TimeTier

AREAS = areas_for_scale(Scale.NATIONAL)[:5]
WORLD = World.from_areas(AREAS, radius_km=50.0)
NAMESPACE = "j"


def tweet(user: int, ts: float, area: int) -> Tweet:
    center = AREAS[area].center
    return Tweet(user_id=user, timestamp=float(ts), lat=center.lat, lon=center.lon)


def minute_stream(first_minute: int, minutes: int) -> list[Tweet]:
    """Two tweets a minute, users moving between areas."""
    return [
        tweet(m % 3 + k, 60.0 * m + 20.0 * k + 5.0, (m + k) % 5)
        for m in range(first_minute, first_minute + minutes)
        for k in range(2)
    ]


def summary(root: Path) -> SummaryStore:
    return SummaryStore(WORLD, artifacts=ArtifactStore(root), namespace=NAMESPACE)


def journal_path(root: Path) -> Path:
    return ArtifactStore(root).journals_dir / f"summary-{NAMESPACE}.log"


def child_env() -> dict:
    """The environment a child interpreter needs to import ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }


def frame_bounds(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` byte offsets of every good frame in ``data``."""
    bounds, pos = [], 0
    for payload in scan_frames(data)[0]:
        end = pos + FRAME.size + len(payload)
        bounds.append((pos, end))
        pos = end
    return bounds


def tile_bytes(store: SummaryStore) -> dict[tuple[TimeTier, int], bytes]:
    """Every finalized tile in memory, encoded as the journal stores it."""
    return {
        (tier, start): tile.encode()
        for tier, tiles in store._tiles.items()
        for start, tile in tiles.items()
    }


def payload_keys(data: bytes) -> list[tuple[TimeTier, int]]:
    tiles = [SummaryBucket.decode(payload) for payload in scan_frames(data)[0]]
    return [(tile.tier, tile.start) for tile in tiles]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A journal of 61 minute tiles and one hour tile, plus what it holds.

    One batch a minute, so frames land in time order; the stream ends
    mid hour 1, so the last frame is a minute tile and recovering any
    prefix of the journal schedules no rollup (recovery appends nothing).
    """
    root = tmp_path_factory.mktemp("written")
    store = summary(root)
    for minute in range(62):
        store.ingest(minute_stream(minute, 1))
    data = journal_path(root).read_bytes()
    tiles = tile_bytes(store)
    assert len(scan_frames(data)[0]) == len(tiles) == 61 + 1
    assert payload_keys(data)[-1] == (TimeTier.MINUTE, 60 * 60)
    assert scan_frames(data)[1] == len(data)
    return data, tiles


def recover_from(root: Path, data: bytes) -> tuple[SummaryStore, int]:
    path = journal_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    store = summary(root)
    return store, store.recover()


def assert_recovered_prefix(store, recovered, data, keep, tiles) -> None:
    """``store`` recovered exactly the first ``keep`` frames of ``data``."""
    keys = payload_keys(data)[:keep]
    assert recovered == keep
    assert set(tile_bytes(store)) == set(keys)
    for key, payload in tile_bytes(store).items():
        assert payload == tiles[key]


class TestTornAndCorruptFrames:
    def test_truncation_at_every_offset_of_the_last_frame(self, tmp_path, written):
        data, tiles = written
        last_start, last_end = frame_bounds(data)[-1]
        keep = len(frame_bounds(data)) - 1
        for offset in range(last_start, last_end):
            store, recovered = recover_from(tmp_path / str(offset), data[:offset])
            assert_recovered_prefix(store, recovered, data, keep, tiles)

    def test_flipped_payload_byte_in_a_middle_frame(self, tmp_path, written):
        data, tiles = written
        bounds = frame_bounds(data)
        middle = len(bounds) // 2
        start, end = bounds[middle]
        damaged = bytearray(data)
        damaged[(start + FRAME.size + end) // 2] ^= 0x40
        store, recovered = recover_from(tmp_path, bytes(damaged))
        assert_recovered_prefix(store, recovered, data, middle, tiles)

    @pytest.mark.parametrize("damage", ["torn", "flipped"])
    def test_next_ingest_appends_after_the_repaired_tail(
        self, tmp_path, written, damage
    ):
        data, tiles = written
        bounds = frame_bounds(data)
        if damage == "torn":
            cut = bounds[-1][0] + 7
            damaged, good_end = data[:cut], bounds[-1][0]
        else:
            start, end = bounds[-3]
            flipped = bytearray(data)
            flipped[end - 1] ^= 0x01
            damaged, good_end = bytes(flipped), start
        store, recovered = recover_from(tmp_path, damaged)
        old = tile_bytes(store)

        store.ingest(minute_stream(200, 5))
        assert store.stats()["torn_bytes_dropped"] == len(damaged) - good_end
        repaired = journal_path(tmp_path).read_bytes()
        assert repaired[:good_end] == data[:good_end]
        assert scan_frames(repaired)[1] == len(repaired)
        assert store.stats()["journal_bytes"] == len(repaired)

        reborn = summary(tmp_path)
        assert reborn.recover() == len(tile_bytes(store))
        after = tile_bytes(reborn)
        assert after == tile_bytes(store)
        assert {key: after[key] for key in old} == old
        assert (TimeTier.MINUTE, 200 * 60) in after


#: A minute tile in the previous, pickled format: one
#: ``PopulationAccumulator`` of per-area ``Counter``s plus an OD
#: ``Counter`` (minute 120 over 5 areas, user 3 in area 1, one 0 -> 1
#: transition), exactly as an older build journaled it.
PICKLED_TILE = base64.b64decode(
    "gASV7wEAAAAAAACME3JlcHJvLnN1bW1hcnkudGllcnOUjA1TdW1tYXJ5QnVja2V0lJOUKYGU"
    "fZQojAR0aWVylGgAjAhUaW1lVGllcpSTlEs8hZRSlIwFc3RhcnSUS3iMCnBvcHVsYXRpb26U"
    "jBVyZXByby5jb3JlLmFjY3VtdWxhdGWUjBVQb3B1bGF0aW9uQWNjdW11bGF0b3KUk5QpgZR9"
    "lCiMB25fYXJlYXOUSwWMDV90d2VldF9jb3VudHOUjBZudW1weS5fY29yZS5tdWx0aWFycmF5"
    "lIwMX3JlY29uc3RydWN0lJOUjAVudW1weZSMB25kYXJyYXmUk5RLAIWUQwFilIeUUpQoSwFL"
    "BYWUaBaMBWR0eXBllJOUjAJpOJSJiIeUUpQoSwOMATyUTk5OSv////9K/////0sAdJRiiUMo"
    "AAAAAAAAAAABAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAJR0lGKMD191c2Vyc19w"
    "ZXJfYXJlYZRdlCiMC2NvbGxlY3Rpb25zlIwHQ291bnRlcpSTlH2UhZRSlGgrfZRLA0sBc4WU"
    "UpRoK32UhZRSlGgrfZSFlFKUaCt9lIWUUpRldWKMCW9kX2NvdW50c5RoK32USwBLAYaUSwFz"
    "hZRSlIwIbl90d2VldHOUSwF1Yi4="
)


class TestStaleFrames:
    def test_old_format_frame_is_skipped_counted_and_kept(self, tmp_path, written):
        """A CRC-valid frame of the previous tile format between current
        frames: recovery skips it by magic and version, returns exactly
        the current tiles, reports it, and appends never cut it off."""
        data, tiles = written
        bounds = frame_bounds(data)
        cut = bounds[10][1]
        stale = FRAME.pack(len(PICKLED_TILE), zlib.crc32(PICKLED_TILE)) + PICKLED_TILE
        mixed = data[:cut] + stale + data[cut:]
        assert scan_frames(mixed)[1] == len(mixed)

        store, recovered = recover_from(tmp_path, mixed)
        assert recovered == len(bounds)
        assert tile_bytes(store) == tiles
        assert store.stats()["stale_frames"] == 1
        app = EstimationApp(None, IngestService(store))
        status, metrics, _ = app.handle("GET", "/metrics", {}, None)
        assert status == 200
        assert metrics["summary"]["stale_frames"] == 1

        store.ingest(minute_stream(200, 3))
        assert store.stats()["torn_bytes_dropped"] == 0
        after = journal_path(tmp_path).read_bytes()
        assert after.startswith(mixed)
        reborn = summary(tmp_path)
        assert reborn.recover() == len(tile_bytes(store))
        assert tile_bytes(reborn) == tile_bytes(store)
        assert reborn.stats()["stale_frames"] == 1

    def test_tile_over_another_area_count_is_stale(self, tmp_path):
        Journal(journal_path(tmp_path)).append(
            SummaryBucket(TimeTier.MINUTE, 0, WORLD.n_areas + 1).encode()
        )
        store = summary(tmp_path)
        assert store.recover() == 0
        assert store.stats()["stale_frames"] == 1

    @pytest.mark.parametrize(
        "column, value",
        [
            ("areas", WORLD.n_areas),
            ("areas", -1),
            ("sources", WORLD.n_areas),
            ("dests", WORLD.n_areas + 7),
            ("users", -5),
        ],
    )
    def test_tile_with_out_of_range_column_is_stale(self, tmp_path, column, value):
        """A CRC-valid frame whose header matches this world but whose
        columns name an area outside it (or a negative user) is skipped
        and counted, never installed to skew or wrap a per-area count."""
        one = np.ones(1, dtype=np.int64)
        columns = {
            "areas": 0 * one, "users": 3 * one, "tweets": one,
            "sources": 0 * one, "dests": one, "counts": one,
            column: value * one,
        }
        bad = SummaryBucket(TimeTier.MINUTE, 0, WORLD.n_areas, 1, **columns)
        good = SummaryBucket(TimeTier.MINUTE, 60, WORLD.n_areas, 1, **(columns | {column: one}))
        journal = Journal(journal_path(tmp_path))
        journal.append(bad.encode())
        journal.append(good.encode())
        store = summary(tmp_path)
        assert store.recover() == 1
        assert store.stats()["stale_frames"] == 1
        assert set(tile_bytes(store)) == {(TimeTier.MINUTE, 60)}


_PERSIST_LOOP = """
import sys
from repro.core.world import World
from repro.data.gazetteer import Scale, areas_for_scale
from repro.data.schema import Tweet
from repro.pipeline.store import ArtifactStore
from repro.summary.store import SummaryStore

areas = areas_for_scale(Scale.NATIONAL)[:5]
world = World.from_areas(areas, radius_km=50.0)
store = SummaryStore(world, artifacts=ArtifactStore(sys.argv[1]), namespace="j")
minute = 0
while True:
    center = areas[minute % 5].center
    store.ingest([Tweet(user_id=minute % 7, timestamp=60.0 * minute + 1.0,
                        lat=center.lat, lon=center.lon)])
    minute += 1
"""


class TestKilledWriter:
    def test_sigkill_mid_loop_recovers_a_clean_prefix(self, tmp_path):
        child = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(_PERSIST_LOOP), str(tmp_path)],
            env=child_env(),
        )
        try:
            deadline = time.monotonic() + 60.0
            journal = journal_path(tmp_path)
            while not (journal.exists() and journal.stat().st_size > 200_000):
                assert child.poll() is None, "persisting child exited"
                assert time.monotonic() < deadline, "child persisted too little"
                time.sleep(0.01)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)

        store = summary(tmp_path)
        recovered = store.recover()
        minutes = sorted(store._tiles[TimeTier.MINUTE])
        assert recovered > 0
        # The child finalized minute m only after minute m-1: the
        # recovered minutes are 0..k-1, each holding its one tweet.
        assert minutes == [60 * m for m in range(len(minutes))]
        assert all(
            store._tiles[TimeTier.MINUTE][start].n_tweets == 1 for start in minutes
        )
        hours = sorted(store._tiles[TimeTier.HOUR])
        assert hours == [3600 * h for h in range(len(hours))]


_APPEND_LOOP = """
import sys
from repro.pipeline.journal import Journal

path, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for seq in range(count):
    # A fresh journal per append: every append re-scans (and may
    # repair) the tail while the other writers are appending.
    journal = Journal(path)
    journal.append(b"%d:%d:" % (writer, seq) + bytes([writer]) * 100_000)
    journal.close()
"""


class TestWriters:
    def test_concurrent_processes_append_whole_frames(self, tmp_path):
        """More writers than cores, each re-scanning the tail per append.

        100 KB frames widen the window in which a scan could see another
        writer's half-written frame and cut it off as a torn tail — the
        race the exclusive ``flock`` around every repair and append
        closes.
        """
        path = tmp_path / "journals" / "stress.log"
        writers, count = 4, 40
        children = [
            subprocess.Popen(
                [sys.executable, "-c", textwrap.dedent(_APPEND_LOOP),
                 str(path), str(writer), str(count)],
                env=child_env(),
            )
            for writer in range(writers)
        ]
        for child in children:
            assert child.wait(timeout=120) == 0
        data = path.read_bytes()
        payloads, good = scan_frames(data)
        assert good == len(data)
        assert len(payloads) == writers * count
        seen: dict[int, list[int]] = {writer: [] for writer in range(writers)}
        for payload in payloads:
            writer, seq, body = bytes(payload).split(b":", 2)
            assert body == bytes([int(writer)]) * 100_000
            seen[int(writer)].append(int(seq))
        assert all(seqs == list(range(count)) for seqs in seen.values())

    def test_two_stores_interleave_and_last_frame_wins(self, tmp_path):
        first, second = summary(tmp_path), summary(tmp_path)
        # Minute 0 is finalized twice, with different tweets; the
        # second store's frame comes last and must win.
        first.ingest([tweet(1, 10.0, 0), tweet(1, 70.0, 1)])
        second.ingest([tweet(2, 20.0, 2), tweet(3, 30.0, 3), tweet(2, 190.0, 4)])
        first.ingest([tweet(1, 130.0, 2), tweet(1, 250.0, 3)])
        second.ingest([tweet(2, 310.0, 0)])

        data = journal_path(tmp_path).read_bytes()
        assert scan_frames(data)[1] == len(data)
        assert payload_keys(data) == [
            (TimeTier.MINUTE, 0),  # first
            (TimeTier.MINUTE, 0),  # second: the last frame, wins
            (TimeTier.MINUTE, 60),  # first
            (TimeTier.MINUTE, 120),  # first
            (TimeTier.MINUTE, 180),  # second
        ]
        reborn = summary(tmp_path)
        assert reborn.recover() == 4
        first_tiles, second_tiles = tile_bytes(first), tile_bytes(second)
        assert tile_bytes(reborn) == {
            (TimeTier.MINUTE, 0): second_tiles[(TimeTier.MINUTE, 0)],
            (TimeTier.MINUTE, 60): first_tiles[(TimeTier.MINUTE, 60)],
            (TimeTier.MINUTE, 120): first_tiles[(TimeTier.MINUTE, 120)],
            (TimeTier.MINUTE, 180): second_tiles[(TimeTier.MINUTE, 180)],
        }
        assert reborn.query(0, 60).n_tweets == 2

    def test_failed_write_is_repaired_by_the_next_append(self, tmp_path, monkeypatch):
        store = summary(tmp_path)
        store.ingest(minute_stream(0, 3))
        good = journal_path(tmp_path).read_bytes()

        real_write = os.write

        def torn_write(fd, data):
            real_write(fd, bytes(data[: len(data) // 2]))
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", torn_write)
        with pytest.raises(OSError):
            store.ingest(minute_stream(3, 2))
        monkeypatch.setattr(os, "write", real_write)
        torn = journal_path(tmp_path).read_bytes()
        assert len(torn) > len(good) and torn.startswith(good)

        store.ingest(minute_stream(10, 2))
        assert store.stats()["torn_bytes_dropped"] == len(torn) - len(good)
        data = journal_path(tmp_path).read_bytes()
        assert data.startswith(good) and scan_frames(data)[1] == len(data)
        assert (TimeTier.MINUTE, 600) in payload_keys(data)

    def test_removed_journal_is_recreated_not_appended_to_unlinked(self, tmp_path):
        store = summary(tmp_path)
        store.ingest(minute_stream(0, 3))
        assert ArtifactStore(tmp_path).clear() == 1
        store.ingest(minute_stream(3, 2))
        data = journal_path(tmp_path).read_bytes()
        assert payload_keys(data) == [(TimeTier.MINUTE, 120), (TimeTier.MINUTE, 180)]
