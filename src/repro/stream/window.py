"""Sliding time-window buffer over a tweet stream.

Tweets are pushed in timestamp order (the stream contract); the window
retains exactly the tweets with ``timestamp > now - span`` and reports
the expired ones so downstream counters can decrement.  Both ingest and
expiry are amortised O(1) per tweet via a deque.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.data.schema import Tweet


class StreamOrderError(ValueError):
    """Raised when tweets are pushed out of timestamp order."""


class SlidingWindow:
    """A time-span window over an ordered tweet stream.

    Parameters
    ----------
    span_seconds:
        Window length; a tweet expires once the newest timestamp exceeds
        its own by more than this.
    """

    def __init__(self, span_seconds: float) -> None:
        if span_seconds <= 0:
            raise ValueError(f"span must be positive, got {span_seconds}")
        self.span_seconds = float(span_seconds)
        self._buffer: deque[Tweet] = deque()
        self._latest = float("-inf")

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Tweet]:
        return iter(self._buffer)

    def push(self, tweet: Tweet) -> list[Tweet]:
        """Add one tweet; returns the tweets that expired because of it.

        Raises :class:`StreamOrderError` if the tweet is older than the
        newest one already pushed — streams must be time-ordered (sort
        or use :class:`~repro.data.corpus.TweetCorpus` for batch data).
        """
        if tweet.timestamp < self._latest:
            raise StreamOrderError(
                f"tweet at {tweet.timestamp} pushed after {self._latest}"
            )
        self._latest = tweet.timestamp
        self._buffer.append(tweet)
        return self._expire(tweet.timestamp)

    def _expire(self, now: float) -> list[Tweet]:
        cutoff = now - self.span_seconds
        expired = []
        while self._buffer and self._buffer[0].timestamp <= cutoff:
            expired.append(self._buffer.popleft())
        return expired
