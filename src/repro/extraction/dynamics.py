"""Tweeting-dynamics distributions (Section II / Fig 2 of the paper).

Fig 2 plots, on log-log axes, the probability distribution of (a) the
number of tweets per user and (b) the waiting time between a user's
consecutive tweets.  Both are produced here as logarithmically binned
empirical PDFs, the standard way to render heavy-tailed histograms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.corpus import TweetCorpus
from repro.stats.binning import log_binned_pdf


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A log-binned empirical PDF plus the raw sample it came from.

    ``bin_centers`` and ``pdf`` hold only the non-empty bins, ready to
    plot on log-log axes; ``raw`` is the underlying sample for any
    further analysis (CCDF, MLE tail fits, moments).
    """

    name: str
    raw: np.ndarray
    bin_centers: np.ndarray
    pdf: np.ndarray

    @property
    def decades_spanned(self) -> float:
        """How many decades the positive sample covers (Fig 2 spans >= 8)."""
        positive = self.raw[self.raw > 0]
        if positive.size == 0:
            return 0.0
        return float(np.log10(positive.max() / positive.min()))

    def mean(self) -> float:
        """Mean of the raw sample."""
        return float(self.raw.mean()) if self.raw.size else 0.0


def tweets_per_user_distribution(
    corpus: TweetCorpus, bins_per_decade: int = 4
) -> EmpiricalDistribution:
    """Fig 2(a): distribution of the number of tweets per user."""
    counts = corpus.tweets_per_user().astype(np.float64)
    centers, pdf = log_binned_pdf(counts, bins_per_decade=bins_per_decade)
    return EmpiricalDistribution(
        name="tweets_per_user", raw=counts, bin_centers=centers, pdf=pdf
    )


def waiting_time_distribution(
    corpus: TweetCorpus, bins_per_decade: int = 4
) -> EmpiricalDistribution:
    """Fig 2(b): distribution of inter-tweet waiting times (seconds).

    Zero waiting times (same-timestamp pairs) cannot enter a log-binned
    PDF and are dropped, mirroring the paper's log-log plot domain.
    """
    waits = corpus.waiting_times_seconds()
    waits = waits[waits > 0]
    centers, pdf = log_binned_pdf(waits, bins_per_decade=bins_per_decade)
    return EmpiricalDistribution(
        name="waiting_time_seconds", raw=waits, bin_centers=centers, pdf=pdf
    )

