"""Heavy-tailed samplers used by the synthetic generator.

Two families cover everything the paper's Fig 2 documents:

* :class:`DiscretePowerLaw` — ``P(k) ∝ k^-alpha`` on an integer support
  ``[k_min, k_max]`` (tweets per user, favourite-point counts).
* :class:`TruncatedPareto` — continuous ``p(x) ∝ x^-alpha`` on
  ``[x_min, x_max]`` (inter-tweet waiting times).

Both sample by inverse transform and are exact (no rejection), so the
samples are a deterministic function of the uniforms drawn from the
supplied ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np


class DiscretePowerLaw:
    """Zipf-like distribution ``P(k) = k^-alpha / Z`` on ``k_min..k_max``.

    Sampling uses a precomputed CDF table and ``searchsorted``, which is
    exact and fast for supports up to a few hundred thousand values.
    """

    def __init__(self, alpha: float, k_min: int = 1, k_max: int = 10_000) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not (0 < k_min <= k_max):
            raise ValueError(f"need 0 < k_min <= k_max, got [{k_min}, {k_max}]")
        self.alpha = float(alpha)
        self.k_min = int(k_min)
        self.k_max = int(k_max)
        self._support = np.arange(self.k_min, self.k_max + 1, dtype=np.float64)
        weights = self._support**-self.alpha
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        # Guard against rounding: force the last CDF entry to exactly 1.
        self._cdf[-1] = 1.0

    def mean(self) -> float:
        """Exact mean of the truncated distribution."""
        return float((self._support * self._pmf).sum())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` integers by inverse-CDF lookup."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right")
        return (idx + self.k_min).astype(np.int64)


class TruncatedPareto:
    """Continuous power law ``p(x) ∝ x^-alpha`` on ``[x_min, x_max]``.

    Handles the ``alpha == 1`` boundary analytically (log-uniform).  The
    inverse CDF for ``alpha != 1`` is

    ``x(u) = [x_min^(1-a) + u (x_max^(1-a) - x_min^(1-a))]^(1/(1-a))``.
    """

    def __init__(self, alpha: float, x_min: float, x_max: float) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not (0 < x_min < x_max):
            raise ValueError(f"need 0 < x_min < x_max, got [{x_min}, {x_max}]")
        self.alpha = float(alpha)
        self.x_min = float(x_min)
        self.x_max = float(x_max)

    def mean(self) -> float:
        """Exact mean of the truncated distribution."""
        a, lo, hi = self.alpha, self.x_min, self.x_max
        if abs(a - 1.0) < 1e-12:
            return (hi - lo) / np.log(hi / lo)
        if abs(a - 2.0) < 1e-12:
            norm = (lo ** (1 - a) - hi ** (1 - a)) / (a - 1)
            return np.log(hi / lo) / norm
        norm = (lo ** (1 - a) - hi ** (1 - a)) / (a - 1)
        integral = (lo ** (2 - a) - hi ** (2 - a)) / (a - 2)
        return float(integral / norm)

    # repro: allow[reachability] oracle: tests/synth/test_distributions.py checks sampled quantiles against it
    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        """CDF evaluated at ``x`` (clamped to [0, 1] outside the support)."""
        x = np.clip(np.asarray(x, dtype=np.float64), self.x_min, self.x_max)
        a, lo, hi = self.alpha, self.x_min, self.x_max
        if abs(a - 1.0) < 1e-12:
            return np.log(x / lo) / np.log(hi / lo)
        return (lo ** (1 - a) - x ** (1 - a)) / (lo ** (1 - a) - hi ** (1 - a))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` values by inverse transform."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        u = rng.random(size)
        a, lo, hi = self.alpha, self.x_min, self.x_max
        if abs(a - 1.0) < 1e-12:
            return lo * np.exp(u * np.log(hi / lo))
        lo_pow = lo ** (1 - a)
        hi_pow = hi ** (1 - a)
        return (lo_pow + u * (hi_pow - lo_pow)) ** (1.0 / (1.0 - a))

