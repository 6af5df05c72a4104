"""Tests for repro.extraction.temporal."""

import numpy as np
import pytest

from repro.data.corpus import TweetCorpus
from repro.extraction.temporal import (
    DAY_SECONDS,
    day_night_ratio,
    hourly_profile,
    weekly_profile,
)


def _corpus_at_hours(hours, day=0):
    """One tweet per entry, at the given hour of the given day."""
    ts = np.array([day * DAY_SECONDS + h * 3600.0 for h in hours])
    n = len(hours)
    return TweetCorpus.from_arrays(
        np.arange(n), ts, np.zeros(n), np.zeros(n)
    )


class TestHourlyProfile:
    def test_bins_are_correct(self):
        corpus = _corpus_at_hours([0.5, 0.7, 13.2, 23.9])
        profile = hourly_profile(corpus, epoch=0.0)
        assert profile.counts[0] == 2
        assert profile.counts[13] == 1
        assert profile.counts[23] == 1
        assert profile.counts.sum() == 4

    def test_utc_offset_shifts_bins(self):
        corpus = _corpus_at_hours([0.5])
        shifted = hourly_profile(corpus, epoch=0.0, utc_offset_hours=10.0)
        assert shifted.counts[10] == 1

    def test_empty_corpus(self):
        profile = hourly_profile(TweetCorpus.from_tweets([]))
        assert profile.counts.sum() == 0

    def test_peak_label(self):
        corpus = _corpus_at_hours([20.1, 20.3, 20.7, 3.0])
        profile = hourly_profile(corpus, epoch=0.0)
        assert profile.bin_labels[int(np.argmax(profile.counts))] == "20:00"

    def test_render_contains_bars(self):
        corpus = _corpus_at_hours([12] * 10 + [3])
        text = hourly_profile(corpus, epoch=0.0).render()
        assert "12:00" in text
        assert "#" in text


class TestWeeklyProfile:
    def test_day_binning(self):
        corpus = _corpus_at_hours([12], day=0)
        profile = weekly_profile(corpus, epoch=0.0)
        assert profile.counts[0] == 1  # Monday by convention

    def test_wraps_after_seven_days(self):
        corpus = _corpus_at_hours([12], day=8)
        profile = weekly_profile(corpus, epoch=0.0)
        assert profile.counts[1] == 1  # day 8 -> Tuesday

    def test_epoch_weekday_shift(self):
        corpus = _corpus_at_hours([12], day=0)
        profile = weekly_profile(corpus, epoch=0.0, epoch_weekday=5)
        assert profile.counts[5] == 1

    def test_invalid_weekday_raises(self):
        with pytest.raises(ValueError):
            weekly_profile(TweetCorpus.from_tweets([]), epoch_weekday=7)


class TestDayNightRatio:
    def test_all_daytime_is_infinite(self):
        corpus = _corpus_at_hours([12, 13, 14])
        assert day_night_ratio(corpus) == float("inf")

    def test_flat_profile_near_one(self):
        corpus = _corpus_at_hours(list(range(24)) * 5)
        assert day_night_ratio(corpus) == pytest.approx(1.0)

    def test_invalid_bounds_raise(self):
        corpus = _corpus_at_hours([12])
        with pytest.raises(ValueError):
            day_night_ratio(corpus, day_start_hour=10, day_end_hour=9)

    def test_generated_flat_corpus(self, small_corpus):
        # The default generator has no circadian cycle.
        assert day_night_ratio(small_corpus) == pytest.approx(1.0, abs=0.15)
