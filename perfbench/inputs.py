"""Seeded inputs: one-day tweet streams, ingest batches and read windows.

Every input is a pure function of the workload seed.  The program under
test only ever sees the generated records, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.synth import SynthConfig, generate_corpus

DAY = 86_400

#: Start of the streamed day: a UTC midnight inside the paper's
#: September 2013 .. April 2014 collection window.
DAY0 = 1_380_067_200

#: Users behind each one-day stream: ~32k tweets, ~22 per stream
#: minute (the paper's corpus averages ~18).
STREAM_USERS = 6_000

#: Cap on one user's tweets.  Under the default power law (up to 20000
#: per user) the stream's size is itself heavy-tailed across seeds
#: (25k to 62k tweets for 3000 users); capped, it varies by ~4 %.
TWEETS_PER_USER_MAX = 300


def _records(users, timestamps, lats, lons) -> list[dict]:
    return [
        {"user_id": u, "timestamp": t, "lat": a, "lon": o}
        for u, t, a, o in zip(
            users.tolist(), timestamps.tolist(), lats.tolist(), lons.tolist()
        )
    ]


@dataclass(frozen=True)
class Stream:
    """One day of tweets in time order, replayable day after day.

    Replay cycle ``c`` shifts every timestamp by ``c`` days, so an
    endless replay stays time-ordered and users carry their last
    position across the day boundary like a real stream.
    """

    user_ids: np.ndarray
    timestamps: np.ndarray
    lats: np.ndarray
    lons: np.ndarray

    @classmethod
    def generate(cls, seed: int, gazetteer: str = "legacy") -> Stream:
        config = SynthConfig(
            n_users=STREAM_USERS,
            seed=seed,
            start_ts=float(DAY0),
            end_ts=float(DAY0 + DAY),
            gazetteer=gazetteer,
            tweets_k_max=TWEETS_PER_USER_MAX,
        )
        corpus = generate_corpus(config).corpus
        order = np.argsort(corpus.timestamps, kind="stable")
        timestamps = corpus.timestamps[order]
        if timestamps[0] < DAY0 or timestamps[-1] >= DAY0 + DAY:
            raise ValueError("generated stream left its one-day window")
        return cls(
            user_ids=corpus.user_ids[order].astype(np.int64),
            timestamps=timestamps,
            lats=corpus.lats[order],
            lons=corpus.lons[order],
        )

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def replay(self) -> Iterator[list[dict]]:
        """Endless ingest batches, one stream minute of records each.

        Each batch (11 to 39 tweets, 22 at the median) moves the
        watermark into the next minute and so finalizes exactly one
        minute tile.  Fixed-size batches would finalize one tile or two
        in near-equal shares, and the batch median would flip between
        those two latency modes from run to run.
        """
        minutes = self.timestamps // 60
        edges = [0, *(np.flatnonzero(np.diff(minutes)) + 1).tolist(), len(self)]
        cycle = 0
        while True:
            timestamps = self.timestamps + cycle * DAY
            for start, stop in zip(edges[:-1], edges[1:]):
                yield _records(
                    self.user_ids[start:stop],
                    timestamps[start:stop],
                    self.lats[start:stop],
                    self.lons[start:stop],
                )
            cycle += 1

    def sent(self, n_sent: int) -> tuple[np.ndarray, ...]:
        """``(users, timestamps, lats, lons)`` of the first ``n_sent`` replayed."""
        cycles, rest = divmod(n_sent, len(self))
        parts = [np.arange(len(self))] * cycles + [np.arange(rest)]
        index = np.concatenate(parts)
        shift = np.repeat(np.arange(cycles + 1) * DAY, [len(self)] * cycles + [rest])
        return (
            self.user_ids[index],
            self.timestamps[index] + shift,
            self.lats[index],
            self.lons[index],
        )


#: Window shapes of the read mix, cheapest first.  Multi-hour windows
#: take two slots of five so the read median falls inside one shape's
#: latency mode instead of on the edge between two.
WINDOW_KINDS = ("minute", "hour", "multi-hour", "multi-hour", "whole")


class WindowMix:
    """Seeded ``window=t0:t1`` values over the stream sent so far.

    Shapes cycle through one minute (one tile), an aligned hour (one
    rollup tile once finalized), two unaligned two-to-six-hour spans
    (tens of tiles stitched) and the whole stream so far.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 0x3E4D])
        self._turn = 0

    def next(self, first_ts: float, last_ts: float) -> str:
        kind = WINDOW_KINDS[self._turn % len(WINDOW_KINDS)]
        self._turn += 1
        first, last = int(first_ts), int(last_ts)
        point = int(self._rng.integers(first, last + 1))
        if kind == "minute":
            t0 = point - point % 60
            return f"{t0}:{t0 + 60}"
        if kind == "hour":
            t0 = point - point % 3600
            return f"{t0}:{t0 + 3600}"
        if kind == "multi-hour":
            span = int(self._rng.integers(2 * 3600, 6 * 3600))
            t0 = max(first, min(point, last - span))
            return f"{t0}:{t0 + span}"
        return f"{first}:{last + 1}"
