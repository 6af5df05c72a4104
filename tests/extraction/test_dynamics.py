"""Tests for repro.extraction.dynamics."""

import numpy as np
import pytest

from repro.data.corpus import TweetCorpus
from repro.extraction.dynamics import (
    tweets_per_user_distribution,
    waiting_time_distribution,
)


def _corpus(user_ids, timestamps):
    n = len(user_ids)
    return TweetCorpus.from_arrays(
        np.asarray(user_ids), np.asarray(timestamps, dtype=np.float64), np.zeros(n), np.zeros(n)
    )


class TestTweetsPerUser:
    def test_raw_counts(self):
        corpus = _corpus([1, 1, 1, 2], [0, 1, 2, 0])
        dist = tweets_per_user_distribution(corpus)
        assert sorted(dist.raw.tolist()) == [1.0, 3.0]

    def test_pdf_positive_and_bins_nonempty(self, small_corpus):
        dist = tweets_per_user_distribution(small_corpus)
        assert np.all(dist.pdf > 0)
        assert dist.bin_centers.size > 0

    def test_spans_multiple_decades(self, small_corpus):
        dist = tweets_per_user_distribution(small_corpus)
        assert dist.decades_spanned >= 2.0

    def test_mean_matches_corpus(self, small_corpus):
        dist = tweets_per_user_distribution(small_corpus)
        assert dist.mean() == pytest.approx(
            len(small_corpus) / small_corpus.n_users
        )


class TestWaitingTimes:
    def test_zero_waits_dropped(self):
        corpus = _corpus([1, 1, 1], [5.0, 5.0, 10.0])
        dist = waiting_time_distribution(corpus)
        assert sorted(dist.raw.tolist()) == [5.0]

    def test_heavy_tail_on_generated_corpus(self, small_corpus):
        dist = waiting_time_distribution(small_corpus)
        # Fig 2(b) spans at least eight decades at full scale; the small
        # test corpus still spans several.
        assert dist.decades_spanned >= 4.0

    def test_pdf_normalisation(self, small_corpus):
        dist = waiting_time_distribution(small_corpus)
        # Integrating the log-binned PDF against bin widths gives ~1.
        from repro.stats.binning import log_bin_edges

        edges = log_bin_edges(dist.raw.min(), dist.raw.max() * (1 + 1e-12), 4)
        counts, _ = np.histogram(dist.raw, bins=edges)
        assert counts.sum() == dist.raw.size

    def test_empty_corpus(self):
        dist = waiting_time_distribution(_corpus([], []))
        assert dist.raw.size == 0
        assert dist.decades_spanned == 0.0

