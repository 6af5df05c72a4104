"""Time tiers and summary tiles: the units the summary store stitches.

A **tier** is a bucketing resolution (minute, hour, day); a **tile**
(:class:`SummaryBucket`) is everything the service needs to answer a
population or flow query over one bucket of one tier:

* per-area tweet counts and the per-area *user multisets* (held as a
  :class:`~repro.core.accumulate.PopulationAccumulator`), so unique-user
  counts stay exact under any merge — tweet counts add, user sets union;
* compacted OD transition counts, keyed ``(source, dest)``.

Bucket-boundary semantics are fixed here once: a bucket covers the
half-open span ``[start, start + span)``, and a timestamp landing
exactly on a boundary belongs to the bucket *starting* there
(floor-division assignment).  OD transitions are attributed to the
bucket of the **arriving** tweet's timestamp — the same instant
:class:`~repro.core.accumulate.ODAccumulator` records and expires them
at — so tile-stitched flows over ``[t0, t1)`` equal a full-stream
replay filtered to transition timestamps in ``[t0, t1)``.

Rollup is plain merging: an hour tile is the merge of its (present)
minute tiles, a day tile the merge of its hour tiles.  Merging is
associative and order-independent for every field, which is what makes
the multi-resolution store's answers independent of which tier mix
covered a window.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from repro.core.accumulate import PopulationAccumulator


class TimeTier(Enum):
    """A summary resolution; the value is the bucket span in seconds."""

    MINUTE = 60
    HOUR = 3600
    DAY = 86400

    @property
    def span_seconds(self) -> int:
        """Length of one bucket at this tier."""
        return self.value


#: Tiers finest-first; rollup folds each into the next.
TIER_ORDER = (TimeTier.MINUTE, TimeTier.HOUR, TimeTier.DAY)

#: Tiers coarsest-first; the query planner prefers the biggest tile.
COARSE_FIRST = tuple(reversed(TIER_ORDER))

#: Which tier each coarse tier rolls up from.
ROLLUP_SOURCE = {TimeTier.HOUR: TimeTier.MINUTE, TimeTier.DAY: TimeTier.HOUR}


def bucket_start(timestamp: float, tier: TimeTier) -> int:
    """Start of the tier bucket containing ``timestamp``.

    Floor semantics: a timestamp exactly on a boundary opens the bucket
    that starts there.  Works for negative timestamps (true floor, not
    truncation toward zero).
    """
    if not math.isfinite(timestamp):
        raise ValueError(f"timestamp must be finite, got {timestamp!r}")
    return int(math.floor(timestamp / tier.span_seconds)) * tier.span_seconds


def window_align(t0: float, t1: float) -> tuple[int, int]:
    """Snap a query window outward to minute boundaries.

    The store's finest tile is one minute, so ``[t0, t1)`` is widened to
    the smallest minute-aligned cover: ``t0`` floors, ``t1`` ceils.
    Returns the effective ``(q0, q1)``.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"window bounds must be finite, got [{t0!r}, {t1!r})")
    if t1 <= t0:
        raise ValueError(f"window must satisfy t0 < t1, got [{t0}, {t1})")
    span = TimeTier.MINUTE.span_seconds
    q0 = bucket_start(t0, TimeTier.MINUTE)
    q1 = int(math.ceil(t1 / span)) * span
    return q0, q1


@dataclass
class SummaryBucket:
    """One tile: population + OD summaries over ``[start, start + span)``.

    ``population`` carries per-area tweet counts and user multisets (so
    merged tiles report exact unique users); ``od_counts`` carries
    compacted transition counts for transitions whose arriving tweet's
    timestamp falls in the bucket.  Tiles are plain picklable values —
    the summary journal stores their pickles as-is.
    """

    tier: TimeTier
    start: int
    population: PopulationAccumulator
    od_counts: Counter = field(default_factory=Counter)
    n_tweets: int = 0

    @classmethod
    def empty(cls, tier: TimeTier, start: int, n_areas: int) -> "SummaryBucket":
        """A fresh all-zero tile."""
        return cls(
            tier=tier, start=start, population=PopulationAccumulator(n_areas)
        )

    @property
    def end(self) -> int:
        """Exclusive end of the bucket's span."""
        return self.start + self.tier.span_seconds

    @property
    def n_areas(self) -> int:
        """Number of areas the tile summarises."""
        return self.population.n_areas

    @property
    def n_transitions(self) -> int:
        """Total OD transitions recorded in the bucket."""
        return sum(self.od_counts.values())

    def flow_matrix(self) -> np.ndarray:
        """The bucket's OD counts as a dense ``(n, n)`` matrix."""
        matrix = np.zeros((self.n_areas, self.n_areas), dtype=np.int64)
        for (source, dest), count in self.od_counts.items():
            matrix[source, dest] = count
        return matrix

    def merge(self, other: "SummaryBucket") -> None:
        """Fold another tile's counts into this one (other untouched)."""
        if other.n_areas != self.n_areas:
            raise ValueError(
                f"cannot merge a {other.n_areas}-area tile into a "
                f"{self.n_areas}-area tile"
            )
        self.population.merge(other.population)
        self.od_counts.update(other.od_counts)
        self.n_tweets += other.n_tweets

    @classmethod
    def rolled_up(
        cls,
        tier: TimeTier,
        start: int,
        n_areas: int,
        children: Iterable["SummaryBucket"],
    ) -> "SummaryBucket":
        """Merge finer tiles into one coarse tile covering their span.

        Children outside ``[start, start + span)`` are rejected — a
        rollup must never smuggle counts across its own boundary.
        """
        tile = cls.empty(tier, start, n_areas)
        for child in children:
            if child.start < start or child.end > tile.end:
                raise ValueError(
                    f"child [{child.start}, {child.end}) lies outside "
                    f"rollup span [{start}, {tile.end})"
                )
            tile.merge(child)
        return tile
