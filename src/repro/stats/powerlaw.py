"""Heavy-tail diagnostics: CCDFs and maximum-likelihood power-law fits.

Fig 2 of the paper claims "the distribution of the number of Tweets per
user essentially follows a power-law distribution".  To make that claim
testable on the synthetic corpus this module provides the continuous and
discrete Hill/Clauset MLE estimators of the tail exponent α, plus the
empirical CCDF used to inspect tails without binning artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class PowerLawFit:
    """Result of an MLE power-law tail fit.

    ``alpha`` is the exponent of ``p(x) ∝ x^-alpha`` for ``x >= x_min``;
    ``n_tail`` is how many points entered the fit; ``ks_distance`` is
    the Kolmogorov–Smirnov distance between the fitted and empirical
    tail CDFs (smaller = better).
    """

    alpha: float
    x_min: float
    n_tail: int
    ks_distance: float


def fit_power_law_mle(
    sample: np.ndarray, x_min: float, discrete: bool = False
) -> PowerLawFit:
    """Fit the tail exponent of a power law by maximum likelihood.

    Continuous case (Hill estimator):
    ``α̂ = 1 + n / Σ ln(x_i / x_min)``.

    Discrete case uses the standard Clauset et al. (2009) approximation
    ``α̂ ≈ 1 + n / Σ ln(x_i / (x_min - 1/2))``, accurate for
    ``x_min ≳ 6`` and serviceable above ``x_min = 2``.
    """
    if x_min <= 0:
        raise ValueError(f"x_min must be positive, got {x_min}")
    sample = np.asarray(sample, dtype=np.float64)
    tail = sample[sample >= x_min]
    n = int(tail.size)
    if n < 2:
        raise ValueError(f"need at least 2 tail points above x_min={x_min}, got {n}")
    if discrete:
        alpha = 1.0 + n / np.log(tail / (x_min - 0.5)).sum()
    else:
        alpha = 1.0 + n / np.log(tail / x_min).sum()
    return PowerLawFit(
        alpha=float(alpha),
        x_min=float(x_min),
        n_tail=n,
        ks_distance=_ks_distance(tail, float(alpha), float(x_min)),
    )


def _ks_distance(tail: np.ndarray, alpha: float, x_min: float) -> float:
    """KS distance between the empirical tail and the fitted power law."""
    tail = np.sort(tail)
    n = tail.size
    empirical = np.arange(1, n + 1) / n
    fitted = 1.0 - (tail / x_min) ** (1.0 - alpha)
    return float(np.abs(empirical - fitted).max())

