"""The columnar tweet corpus.

:class:`TweetCorpus` holds a corpus as five parallel numpy arrays sorted
by ``(user_id, timestamp)``.  This layout makes every measurement in the
paper a vectorised pass:

* per-user tweet counts (Fig 2a) are one ``np.unique`` call;
* inter-tweet waiting times (Fig 2b, Table I) are one ``np.diff`` with
  user-boundary masking;
* radius extraction (Fig 3) hands the coordinate columns straight to the
  spatial index;
* OD extraction (Fig 4) walks consecutive rows within user runs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.data.schema import CorpusStats, Tweet, UserSummary
from repro.geo.bbox import BoundingBox


class TweetCorpus:
    """An immutable, user-time-sorted columnar store of geo-tagged tweets.

    Build with :meth:`from_tweets` or :meth:`from_arrays`; all analytical
    code treats instances as read-only.
    """

    def __init__(
        self,
        tweet_ids: np.ndarray,
        user_ids: np.ndarray,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        presorted: bool = False,
    ) -> None:
        tweet_ids = np.asarray(tweet_ids, dtype=np.int64)
        user_ids = np.asarray(user_ids, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        n = user_ids.size
        for name, column in (
            ("tweet_ids", tweet_ids),
            ("timestamps", timestamps),
            ("lats", lats),
            ("lons", lons),
        ):
            if column.ndim != 1 or column.size != n:
                raise ValueError(f"column {name} must be 1-D of length {n}")
        if not presorted and n > 0:
            order = np.lexsort((timestamps, user_ids))
            tweet_ids = tweet_ids[order]
            user_ids = user_ids[order]
            timestamps = timestamps[order]
            lats = lats[order]
            lons = lons[order]
        self.tweet_ids = tweet_ids
        self.user_ids = user_ids
        self.timestamps = timestamps
        self.lats = lats
        self.lons = lons
        if n > 0:
            self._unique_users, self._user_starts, self._user_counts = np.unique(
                user_ids, return_index=True, return_counts=True
            )
        else:
            self._unique_users = np.empty(0, dtype=np.int64)
            self._user_starts = np.empty(0, dtype=np.int64)
            self._user_counts = np.empty(0, dtype=np.int64)

    # -- construction -------------------------------------------------

    @classmethod
    def from_tweets(cls, tweets: Iterable[Tweet]) -> "TweetCorpus":
        """Build a corpus from any iterable of :class:`Tweet` records."""
        materialised = list(tweets)
        n = len(materialised)
        tweet_ids = np.fromiter((t.tweet_id for t in materialised), np.int64, count=n)
        user_ids = np.fromiter((t.user_id for t in materialised), np.int64, count=n)
        timestamps = np.fromiter((t.timestamp for t in materialised), np.float64, count=n)
        lats = np.fromiter((t.lat for t in materialised), np.float64, count=n)
        lons = np.fromiter((t.lon for t in materialised), np.float64, count=n)
        return cls(tweet_ids, user_ids, timestamps, lats, lons)

    @classmethod
    def from_arrays(
        cls,
        user_ids: np.ndarray,
        timestamps: np.ndarray,
        lats: np.ndarray,
        lons: np.ndarray,
        tweet_ids: np.ndarray | None = None,
    ) -> "TweetCorpus":
        """Build a corpus directly from columns; ids default to 0..n-1."""
        user_ids = np.asarray(user_ids)
        if tweet_ids is None:
            tweet_ids = np.arange(user_ids.size, dtype=np.int64)
        return cls(tweet_ids, user_ids, timestamps, lats, lons)

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return int(self.user_ids.size)

    @property
    def n_users(self) -> int:
        """Number of distinct users in the corpus."""
        return int(self._unique_users.size)

    @property
    def unique_users(self) -> np.ndarray:
        """Sorted distinct user ids."""
        return self._unique_users

    def iter_tweets(self) -> Iterator[Tweet]:
        """Yield rows back as :class:`Tweet` records (sorted order)."""
        for i in range(len(self)):
            yield Tweet(
                tweet_id=int(self.tweet_ids[i]),
                user_id=int(self.user_ids[i]),
                timestamp=float(self.timestamps[i]),
                lat=float(self.lats[i]),
                lon=float(self.lons[i]),
            )

    def user_slice(self, user_id: int) -> slice:
        """The row slice of one user's chronologically ordered tweets."""
        pos = np.searchsorted(self._unique_users, user_id)
        if pos >= self._unique_users.size or self._unique_users[pos] != user_id:
            raise KeyError(f"user {user_id} not in corpus")
        start = int(self._user_starts[pos])
        return slice(start, start + int(self._user_counts[pos]))

    def subset(self, mask: np.ndarray) -> "TweetCorpus":
        """A new corpus containing only the rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.user_ids.shape:
            raise ValueError("mask shape must match corpus length")
        return TweetCorpus(
            self.tweet_ids[mask],
            self.user_ids[mask],
            self.timestamps[mask],
            self.lats[mask],
            self.lons[mask],
            presorted=True,
        )

    def filter_bbox(self, bbox: BoundingBox) -> "TweetCorpus":
        """The sub-corpus of tweets inside a bounding box."""
        return self.subset(bbox.contains_mask(self.lats, self.lons))

    # -- per-user measurements ------------------------------------------

    def tweets_per_user(self) -> np.ndarray:
        """Tweet count of each distinct user (aligned with unique_users)."""
        return self._user_counts.copy()

    def _same_user_pairs_mask(self) -> np.ndarray:
        """Boolean mask over consecutive row pairs within one user's run."""
        if len(self) < 2:
            return np.empty(0, dtype=bool)
        return self.user_ids[1:] == self.user_ids[:-1]

    def waiting_times_seconds(self) -> np.ndarray:
        """Δt between each user's consecutive tweets, pooled corpus-wide.

        This is the quantity whose distribution the paper plots in
        Fig 2(b) and averages into Table I's "avg waiting time".
        """
        if len(self) < 2:
            return np.empty(0, dtype=np.float64)
        deltas = np.diff(self.timestamps)
        return deltas[self._same_user_pairs_mask()]

    def distinct_locations_per_user(self, round_decimals: int = 4) -> np.ndarray:
        """Distinct (rounded) geo-tags per user, aligned with unique_users.

        Table I reports 4.76 average locations per user; locations are
        compared after rounding to ``round_decimals`` decimal degrees
        (1e-4 degrees ≈ 11 m, i.e. venue resolution).
        """
        lats = np.round(self.lats, round_decimals)
        lons = np.round(self.lons, round_decimals)
        # One sort keyed (user run, lat, lon): runs are already in order,
        # so the lexsort only orders points within each run.  A row is a
        # new location where its run, lat or lon changes (``!=`` treats
        # -0.0 as 0.0, as np.unique does).
        runs = np.repeat(np.arange(self.n_users), self._user_counts)
        order = np.lexsort((lons, lats, runs))
        lats, lons = lats[order], lons[order]
        new = np.ones(runs.size, dtype=bool)
        new[1:] = (runs[1:] != runs[:-1]) | (lats[1:] != lats[:-1]) | (lons[1:] != lons[:-1])
        return np.bincount(runs[new], minlength=self.n_users)

    def user_summaries(self) -> list[UserSummary]:
        """Per-user aggregate records (Table I per-user columns)."""
        locations = self.distinct_locations_per_user()
        summaries = []
        for i, user_id in enumerate(self._unique_users):
            start = int(self._user_starts[i])
            stop = start + int(self._user_counts[i])
            summaries.append(
                UserSummary(
                    user_id=int(user_id),
                    n_tweets=int(self._user_counts[i]),
                    first_timestamp=float(self.timestamps[start]),
                    last_timestamp=float(self.timestamps[stop - 1]),
                    n_distinct_locations=int(locations[i]),
                )
            )
        return summaries

    def users_with_at_least(self, minimum: int) -> int:
        """How many users posted at least ``minimum`` tweets.

        The paper quotes 23462 / 10031 / 766 / 180 users above 50 / 100 /
        500 / 1000 tweets.
        """
        return int((self._user_counts >= minimum).sum())

    # -- corpus-level statistics ---------------------------------------

    def stats(self, location_round_decimals: int = 4) -> CorpusStats:
        """Compute the Table I statistics row for this corpus."""
        n = len(self)
        if n == 0:
            return CorpusStats(
                n_tweets=0,
                n_users=0,
                avg_tweets_per_user=0.0,
                avg_waiting_time_hours=0.0,
                avg_locations_per_user=0.0,
            )
        waits = self.waiting_times_seconds()
        avg_wait_hours = float(waits.mean()) / 3600.0 if waits.size else 0.0
        locations = self.distinct_locations_per_user(location_round_decimals)
        return CorpusStats(
            n_tweets=n,
            n_users=self.n_users,
            avg_tweets_per_user=n / self.n_users,
            avg_waiting_time_hours=avg_wait_hours,
            avg_locations_per_user=float(locations.mean()),
            min_lat=float(self.lats.min()),
            max_lat=float(self.lats.max()),
            min_lon=float(self.lons.min()),
            max_lon=float(self.lons.max()),
            first_timestamp=float(self.timestamps.min()),
            last_timestamp=float(self.timestamps.max()),
        )
