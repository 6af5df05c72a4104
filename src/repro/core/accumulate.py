"""Shared population and OD accumulation primitives.

The paper's two artefact families — per-area population counts and
consecutive-pair OD flows — are accumulated in three cadences: one
vectorised pass over a sorted corpus (batch), incrementally per tweet
with window expiry (streaming), and batch-with-expiry behind the ingest
endpoint (serving).  The counting *rules* are identical everywhere:

* a tweet adds one to every area whose ε-disc contains it, and its user
  to each such area's unique-user set;
* a transition is recorded when a user's consecutive tweets carry two
  different (non-negative) area labels; unlabelled tweets still advance
  the user's position, breaking adjacency.

This module owns those rules once.  :func:`od_matrix_from_labels` is
the vectorised batch form; :class:`PopulationAccumulator` and
:class:`ODAccumulator` are the incremental forms with exact removal, so
windowed results equal a from-scratch recomputation at every instant
(property-tested in ``tests/core`` and ``tests/test_stream_properties``).
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from typing import Iterable

import numpy as np


def od_matrix_from_labels(
    user_ids: np.ndarray, labels: np.ndarray, n_areas: int
) -> tuple[np.ndarray, int]:
    """Vectorised consecutive-pair transition counting over sorted rows.

    ``user_ids``/``labels`` must be aligned and sorted by
    ``(user, time)`` — the corpus's native order.  Returns the
    ``(n_areas, n_areas)`` transition matrix and the transition count.
    """
    user_ids = np.asarray(user_ids)
    labels = np.asarray(labels)
    if labels.shape != user_ids.shape:
        raise ValueError("labels must align with user rows")
    if labels.size and labels.max() >= n_areas:
        raise ValueError("label index exceeds number of areas")
    matrix = np.zeros((n_areas, n_areas), dtype=np.int64)
    if user_ids.size < 2:
        return matrix, 0
    same_user = user_ids[1:] == user_ids[:-1]
    src = labels[:-1]
    dst = labels[1:]
    valid = same_user & (src >= 0) & (dst >= 0) & (src != dst)
    np.add.at(matrix, (src[valid], dst[valid]), 1)
    return matrix, int(valid.sum())


class PopulationAccumulator:
    """Incremental per-area tweet and unique-user counts.

    Holds the multiset of users per area so removal (window expiry) is
    exact: a user leaves an area's unique count only when their last
    in-window tweet there expires.
    """

    def __init__(self, n_areas: int) -> None:
        if n_areas < 0:
            raise ValueError(f"n_areas must be non-negative, got {n_areas}")
        self.n_areas = int(n_areas)
        self._tweet_counts = np.zeros(self.n_areas, dtype=np.int64)
        self._users_per_area: list[Counter[int]] = [
            Counter() for _ in range(self.n_areas)
        ]

    def add(self, area_indices: Iterable[int], user_id: int) -> None:
        """Count one tweet toward every containing area."""
        for index in area_indices:
            self._tweet_counts[index] += 1
            self._users_per_area[index][user_id] += 1

    def remove(self, area_indices: Iterable[int], user_id: int) -> None:
        """Reverse :meth:`add` for an expired tweet."""
        for index in area_indices:
            self._tweet_counts[index] -= 1
            users = self._users_per_area[index]
            users[user_id] -= 1
            if users[user_id] <= 0:
                del users[user_id]

    def tweet_counts(self) -> np.ndarray:
        """Tweets per area currently accumulated."""
        return self._tweet_counts.copy()

    def user_counts(self) -> np.ndarray:
        """Unique users per area currently accumulated."""
        return np.array(
            [len(c) for c in self._users_per_area], dtype=np.int64
        )

    def snapshot(self) -> "PopulationAccumulator":
        """An independent deep copy of the current state.

        The copy shares nothing mutable with the source, so a finalized
        summary tile can hold it while the live accumulator keeps
        moving.
        """
        copy = PopulationAccumulator(self.n_areas)
        copy._tweet_counts = self._tweet_counts.copy()
        copy._users_per_area = [
            Counter(users) for users in self._users_per_area
        ]
        return copy

    def merge(self, other: "PopulationAccumulator") -> None:
        """Fold another accumulator's counts into this one.

        Exact for any split of the tweet stream — per-area user
        multisets add, so a user seen by both sides still counts once
        in :meth:`user_counts`.  ``other`` is read, never mutated.
        """
        if other.n_areas != self.n_areas:
            raise ValueError(
                f"cannot merge accumulators over {other.n_areas} areas "
                f"into one over {self.n_areas}"
            )
        self._tweet_counts += other._tweet_counts
        for mine, theirs in zip(self._users_per_area, other._users_per_area):
            mine.update(theirs)


class ODAccumulator:
    """Incremental OD transition counts with per-user position tracking.

    ``observe`` applies the transition rule to one labelled tweet;
    recorded transitions carry their timestamp so :meth:`expire_until`
    can retire them exactly when a sliding window closes over them.
    Stream-order enforcement stays with the caller — the accumulator is
    a pure counting structure.
    """

    def __init__(self, n_areas: int) -> None:
        if n_areas < 0:
            raise ValueError(f"n_areas must be non-negative, got {n_areas}")
        self.n_areas = int(n_areas)
        self._matrix = np.zeros((self.n_areas, self.n_areas), dtype=np.int64)
        self._last_label: dict[int, int] = {}
        self._events: deque[tuple[float, int, int]] = deque()

    def observe(self, user_id: int, label: int, timestamp: float) -> bool:
        """Apply one labelled tweet; True when a transition was recorded."""
        previous = self._last_label.get(user_id, -1)
        self._last_label[user_id] = label
        if previous >= 0 and label >= 0 and previous != label:
            self._matrix[previous, label] += 1
            self._events.append((timestamp, previous, label))
            return True
        return False

    def expire_until(self, cutoff: float) -> int:
        """Retire transitions with ``timestamp <= cutoff``; returns count."""
        expired = 0
        while self._events and self._events[0][0] <= cutoff:
            _ts, source, dest = self._events.popleft()
            self._matrix[source, dest] -= 1
            expired += 1
        return expired

    def flow_matrix(self) -> np.ndarray:
        """Transition counts currently accumulated."""
        return self._matrix.copy()

    @property
    def total_transitions(self) -> int:
        """Total transitions currently accumulated."""
        return int(self._matrix.sum())

    def snapshot(self) -> "ODAccumulator":
        """An independent deep copy of the current state."""
        copy = ODAccumulator(self.n_areas)
        copy._matrix = self._matrix.copy()
        copy._last_label = dict(self._last_label)
        copy._events = deque(self._events)
        return copy

    def merge(self, other: "ODAccumulator") -> None:
        """Fold a *user-disjoint* shard's transitions into this one.

        Sharded ingest partitions the stream by user id, so each
        accumulator owns disjoint per-user positions; merging sums the
        matrices and interleaves the timed events so later
        :meth:`expire_until` calls stay exact.  Overlapping user sets
        are rejected — consecutive-pair counting is not associative
        across an arbitrary split of one user's tweets.  ``other`` is
        read, never mutated.
        """
        if other.n_areas != self.n_areas:
            raise ValueError(
                f"cannot merge accumulators over {other.n_areas} areas "
                f"into one over {self.n_areas}"
            )
        shared = self._last_label.keys() & other._last_label.keys()
        if shared:
            raise ValueError(
                f"cannot merge OD accumulators sharing users "
                f"{sorted(shared)[:5]} — shard the stream by user id"
            )
        self._matrix += other._matrix
        self._last_label.update(other._last_label)
        self._events = deque(heapq.merge(self._events, other._events))
