"""Temporal activity profiles: hourly and weekly rhythms.

Supporting analysis for the "responsive, near-real-time" framing: a
forecasting system must know the normal daily and weekly rhythm of the
stream to tell a circadian dip from a genuine mobility change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.corpus import TweetCorpus

DAY_SECONDS = 86_400.0
WEEK_SECONDS = 7 * DAY_SECONDS


@dataclass(frozen=True)
class ActivityProfile:
    """A periodic activity histogram (hourly or day-of-week)."""

    bin_labels: tuple[str, ...]
    counts: np.ndarray

    def render(self, width: int = 40) -> str:
        """A labelled horizontal bar chart."""
        top = max(int(self.counts.max()), 1)
        lines = []
        for label, count in zip(self.bin_labels, self.counts):
            bar = "#" * int(round(count / top * width))
            lines.append(f"  {label:>9s} {bar} {int(count)}")
        return "\n".join(lines)


def hourly_profile(
    corpus: TweetCorpus, epoch: float | None = None, utc_offset_hours: float = 0.0
) -> ActivityProfile:
    """Tweet counts by hour of day.

    ``epoch`` anchors day boundaries (defaults to the corpus's first
    timestamp floored to a day); ``utc_offset_hours`` shifts into local
    time.
    """
    if len(corpus) == 0:
        return ActivityProfile(
            bin_labels=tuple(f"{h:02d}:00" for h in range(24)),
            counts=np.zeros(24, dtype=np.int64),
        )
    if epoch is None:
        epoch = float(np.floor(corpus.timestamps.min() / DAY_SECONDS) * DAY_SECONDS)
    local = corpus.timestamps - epoch + utc_offset_hours * 3600.0
    hours = np.floor((local % DAY_SECONDS) / 3600.0).astype(np.int64) % 24
    counts = np.bincount(hours, minlength=24)
    return ActivityProfile(
        bin_labels=tuple(f"{h:02d}:00" for h in range(24)), counts=counts
    )


DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def weekly_profile(
    corpus: TweetCorpus, epoch: float | None = None, epoch_weekday: int = 0
) -> ActivityProfile:
    """Tweet counts by day of week.

    ``epoch`` is a timestamp known to fall on ``epoch_weekday``
    (0 = Monday); defaults to the corpus start treated as a Monday,
    which preserves *shape* even when absolute weekday labels are
    arbitrary for synthetic data.
    """
    if not (0 <= epoch_weekday < 7):
        raise ValueError("epoch_weekday must be 0..6")
    if len(corpus) == 0:
        return ActivityProfile(bin_labels=DAY_NAMES, counts=np.zeros(7, dtype=np.int64))
    if epoch is None:
        epoch = float(np.floor(corpus.timestamps.min() / DAY_SECONDS) * DAY_SECONDS)
    days = np.floor((corpus.timestamps - epoch) / DAY_SECONDS).astype(np.int64)
    weekday = (days + epoch_weekday) % 7
    counts = np.bincount(weekday, minlength=7)
    return ActivityProfile(bin_labels=DAY_NAMES, counts=counts)


def day_night_ratio(
    corpus: TweetCorpus,
    day_start_hour: int = 7,
    day_end_hour: int = 23,
    utc_offset_hours: float = 0.0,
) -> float:
    """Per-hour daytime activity over per-hour nighttime activity.

    1.0 means no circadian structure; real Twitter streams sit well
    above 2.  Returns ``inf`` when the night bins are empty.
    """
    if not (0 <= day_start_hour < day_end_hour <= 24):
        raise ValueError("need 0 <= day_start < day_end <= 24")
    profile = hourly_profile(corpus, utc_offset_hours=utc_offset_hours)
    day_hours = range(day_start_hour, day_end_hour)
    night_hours = [h for h in range(24) if h not in day_hours]
    day_rate = profile.counts[list(day_hours)].mean()
    night_rate = profile.counts[night_hours].mean()
    if night_rate == 0:
        return float("inf")
    return float(day_rate / night_rate)
