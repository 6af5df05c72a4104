"""Replay utilities: turn a batch corpus back into a live stream.

The streaming stack consumes time-ordered :class:`~repro.data.schema.Tweet`
objects; a stored corpus is user-time sorted columns.  These helpers
bridge the two, optionally merging extra event tweets (scenario
injection) and chunking by stream time for progress reporting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.data.corpus import TweetCorpus
from repro.data.schema import Tweet


# repro: allow[reachability] Tweet-at-a-time replay, moves with the stream-stack retirement
def corpus_stream(corpus: TweetCorpus) -> Iterator[Tweet]:
    """Yield a corpus's tweets in global timestamp order."""
    order = np.argsort(corpus.timestamps, kind="stable")
    for i in order:
        yield Tweet(
            tweet_id=int(corpus.tweet_ids[i]),
            user_id=int(corpus.user_ids[i]),
            timestamp=float(corpus.timestamps[i]),
            lat=float(corpus.lats[i]),
            lon=float(corpus.lons[i]),
        )


# repro: allow[reachability] Tweet-at-a-time replay, moves with the stream-stack retirement
def merge_streams(*streams: Iterable[Tweet]) -> Iterator[Tweet]:
    """Merge several time-ordered streams into one time-ordered stream.

    A k-way merge: each input must itself be ordered by timestamp.  Used
    to inject scenario events (evacuations, festival crowds) into a
    replayed corpus.
    """
    import heapq

    iterators = [iter(stream) for stream in streams]
    heap: list[tuple[float, int, Tweet]] = []
    for index, iterator in enumerate(iterators):
        first = next(iterator, None)
        if first is not None:
            heap.append((first.timestamp, index, first))
    heapq.heapify(heap)
    while heap:
        _ts, index, tweet = heapq.heappop(heap)
        yield tweet
        following = next(iterators[index], None)
        if following is not None:
            heapq.heappush(heap, (following.timestamp, index, following))


# repro: allow[reachability] Tweet-at-a-time replay, moves with the stream-stack retirement
def stream_in_windows(
    stream: Iterable[Tweet], window_seconds: float
) -> Iterator[list[Tweet]]:
    """Group a time-ordered stream into consecutive fixed-width batches.

    Windows are anchored at the first tweet's timestamp; empty windows
    between active ones are skipped (no empty lists are yielded).
    """
    if window_seconds <= 0:
        raise ValueError("window must be positive")
    batch: list[Tweet] = []
    window_end: float | None = None
    for tweet in stream:
        if window_end is None:
            window_end = tweet.timestamp + window_seconds
        while tweet.timestamp >= window_end:
            if batch:
                yield batch
                batch = []
            window_end += window_seconds
        batch.append(tweet)
    if batch:
        yield batch
