"""Incremental population and mobility counters.

Both counters consume a time-ordered tweet stream and maintain, at every
instant, exactly what the batch pipelines would compute over the
current window:

* :class:`OnlinePopulationCounter` ≡
  :func:`repro.extraction.population.extract_area_observations`
  (tweets and unique users within ε of each area centre);
* :class:`OnlineMobilityCounter` ≡
  :func:`repro.extraction.mobility.extract_od_flows`
  (consecutive-pair transitions between labelled areas).

Labelling and counting are the kernel layer's — :mod:`repro.core` — so
the equivalences are structural: the stream runs the same vectorised
arithmetic as the batch extractors (the old scalar per-tweet linear
scan, whose float sequence could drift from the batch path at disc
boundaries, is gone).  ``push`` ingests one tweet; ``push_batch``
ingests a time-ordered batch, labelled in one kernel pass — or with
labels the caller already computed for the batch.
The equivalences are asserted in the test suite by replaying corpora
through the counters with an infinite window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.accumulate import ODAccumulator, PopulationAccumulator
from repro.core.label import (
    containing_areas,
    label_and_contain,
    label_point,
    label_points,
    membership_points,  # noqa: F401  (the benchmark probe wraps it by name)
    tweet_columns,
)
from repro.core.world import World
from repro.data.gazetteer import Area
from repro.data.schema import Tweet
from repro.stream.window import SlidingWindow, StreamOrderError


def _as_world(areas: Sequence[Area] | World, radius_km: float) -> World:
    if isinstance(areas, World):
        return areas
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km}")
    return World.from_areas(areas, radius_km)


class OnlinePopulationCounter:
    """Windowed per-area tweet and unique-user counts.

    ``push`` each tweet in time order (or ``push_batch`` ordered
    batches); read :meth:`tweet_counts` / :meth:`user_counts` at any
    time for the current window's values.
    """

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float = 0.0,
        window_seconds: float = float("inf"),
    ) -> None:
        self.world = _as_world(areas, radius_km)
        self.areas = self.world.areas
        self.radius_km = self.world.radius_km
        self._window = (
            SlidingWindow(window_seconds) if np.isfinite(window_seconds) else None
        )
        self._population = PopulationAccumulator(self.world.n_areas)

    def _labels(self, tweet: Tweet) -> np.ndarray:
        """Every area whose ε-disc contains the tweet.

        Overlapping discs each count the tweet — matching the batch
        extractor, where each area's radius query is independent.
        """
        return containing_areas(self.world, tweet.lat, tweet.lon)

    def push(self, tweet: Tweet) -> None:
        """Ingest one tweet (and expire anything that left the window)."""
        self._population.add(self._labels(tweet), tweet.user_id)
        if self._window is not None:
            for expired in self._window.push(tweet):
                self._remove(expired)

    def push_batch(self, tweets: Sequence[Tweet]) -> None:
        """Ingest a time-ordered batch, labelled in one kernel pass.

        Equivalent to ``push`` per tweet — containment is a pure
        function of the coordinates — but one
        :func:`~repro.core.label.label_and_contain` call covers the
        whole batch, and each tweet reads its row of the CSR result.
        """
        if not tweets:
            return
        labelled = label_and_contain(self.world, *tweet_columns(tweets))
        indptr, indices = labelled.indptr, labelled.indices
        for row, tweet in enumerate(tweets):
            self._population.add(indices[indptr[row] : indptr[row + 1]], tweet.user_id)
            if self._window is not None:
                for expired in self._window.push(tweet):
                    self._remove(expired)

    def _remove(self, tweet: Tweet) -> None:
        self._population.remove(self._labels(tweet), tweet.user_id)

    def tweet_counts(self) -> np.ndarray:
        """Tweets per area in the current window."""
        return self._population.tweet_counts()

    def user_counts(self) -> np.ndarray:
        """Unique users per area in the current window."""
        return self._population.user_counts()


class OnlineMobilityCounter:
    """Windowed OD transition counts from a tweet stream.

    A transition is recorded when a user's consecutive tweets carry two
    different area labels; the transition timestamp is the second
    tweet's.  Unlabelled tweets (outside every disc) still advance the
    user's position — they break adjacency exactly as in the batch
    extractor.
    """

    def __init__(
        self,
        areas: Sequence[Area] | World,
        radius_km: float = 0.0,
        window_seconds: float = float("inf"),
    ) -> None:
        self.world = _as_world(areas, radius_km)
        self.areas = self.world.areas
        self.radius_km = self.world.radius_km
        self.window_seconds = float(window_seconds)
        self._flows = ODAccumulator(self.world.n_areas)
        self._latest = float("-inf")

    def push(self, tweet: Tweet) -> None:
        """Ingest one tweet in time order."""
        label = label_point(self.world, tweet.lat, tweet.lon)
        self._push_labeled(tweet, label)

    def label_batch(self, tweets: Sequence[Tweet]) -> np.ndarray:
        """Labels of a batch in one vectorised kernel pass."""
        return label_points(self.world, *tweet_columns(tweets))

    def push_batch(
        self, tweets: Sequence[Tweet], labels: np.ndarray | None = None
    ) -> None:
        """Ingest a time-ordered batch, labelled in one vectorised pass.

        ``labels`` are the batch's precomputed nearest-area labels, row
        for row — :meth:`MobilityMonitor.push_batch
        <repro.stream.monitor.MobilityMonitor.push_batch>` labels a
        batch once and passes slices here; without them the batch is
        labelled by :meth:`label_batch`.  Labels depend only on coordinates, so they
        are applied sequentially and ordering checks, transition
        recording and window expiry behave exactly as a ``push`` per
        tweet.
        """
        if not tweets:
            return
        if labels is None:
            labels = self.label_batch(tweets)
        elif len(labels) != len(tweets):
            raise ValueError(f"{len(labels)} labels for {len(tweets)} tweets")
        for tweet, label in zip(tweets, labels.tolist()):
            self._push_labeled(tweet, label)

    def _push_labeled(self, tweet: Tweet, label: int) -> None:
        if tweet.timestamp < self._latest:
            raise StreamOrderError(
                f"tweet at {tweet.timestamp} pushed after {self._latest}"
            )
        self._latest = tweet.timestamp
        self._flows.observe(tweet.user_id, label, tweet.timestamp)
        self._expire(tweet.timestamp)

    def advance_to(self, now: float) -> None:
        """Expire old transitions without ingesting a tweet."""
        if now < self._latest:
            raise StreamOrderError(f"cannot move time backwards to {now}")
        self._latest = now
        self._expire(now)

    def _expire(self, now: float) -> None:
        if not np.isfinite(self.window_seconds):
            return
        self._flows.expire_until(now - self.window_seconds)

    def flow_matrix(self) -> np.ndarray:
        """Transition counts in the current window."""
        return self._flows.flow_matrix()

    @property
    def total_transitions(self) -> int:
        """Total transitions currently in the window."""
        return self._flows.total_transitions
