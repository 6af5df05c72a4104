"""Model-performance metrics.

Table II of the paper scores each model with two numbers per scale: the
Pearson correlation between estimated and observed flows (see
:mod:`repro.stats.correlation`) and **HitRate@50%** — the fraction of
estimates whose relative error is below 50%.  This module implements the
hit rate plus the standard complementary metrics the paper's future work
section promises (log-space errors, common part of commuters, R²).
"""

from __future__ import annotations

import numpy as np


def _check_pair(observed: np.ndarray, estimated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    observed = np.asarray(observed, dtype=np.float64)
    estimated = np.asarray(estimated, dtype=np.float64)
    if observed.shape != estimated.shape:
        raise ValueError(
            f"shape mismatch: observed {observed.shape} vs estimated {estimated.shape}"
        )
    return observed, estimated


def hit_rate(
    observed: np.ndarray, estimated: np.ndarray, tolerance: float = 0.5
) -> float:
    """Fraction of estimates with relative error <= ``tolerance``.

    ``HitRate@50%`` (the paper's metric) is the default
    ``tolerance=0.5``: an estimate is a hit when
    ``|estimated - observed| / observed <= 0.5``.  Pairs with
    ``observed == 0`` cannot have a relative error and are excluded.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    observed, estimated = _check_pair(observed, estimated)
    valid = observed != 0
    if not valid.any():
        return 0.0
    relative_error = np.abs(estimated[valid] - observed[valid]) / np.abs(observed[valid])
    return float((relative_error <= tolerance).mean())


def log_rmse(observed: np.ndarray, estimated: np.ndarray) -> float:
    """Root-mean-square error in log10 space over positive pairs.

    An answer of 1.0 means estimates are typically one decade off —
    the paper's informal "error bounded by one decade" reading of Fig 4.
    """
    observed, estimated = _check_pair(observed, estimated)
    keep = (observed > 0) & (estimated > 0)
    if not keep.any():
        return float("nan")
    residual = np.log10(estimated[keep]) - np.log10(observed[keep])
    return float(np.sqrt((residual**2).mean()))


def max_log_error(observed: np.ndarray, estimated: np.ndarray) -> float:
    """Largest |log10 ratio| — "errors span k decades" in Fig 4 terms."""
    observed, estimated = _check_pair(observed, estimated)
    keep = (observed > 0) & (estimated > 0)
    if not keep.any():
        return float("nan")
    residual = np.log10(estimated[keep]) - np.log10(observed[keep])
    return float(np.abs(residual).max())


def common_part_of_commuters(observed: np.ndarray, estimated: np.ndarray) -> float:
    """Sørensen similarity of two flow sets (CPC, in [0, 1]).

    ``CPC = 2 Σ min(T_obs, T_est) / (Σ T_obs + Σ T_est)`` — the standard
    mobility-model overlap metric; 1 means identical flows.
    """
    observed, estimated = _check_pair(observed, estimated)
    denominator = observed.sum() + estimated.sum()
    if denominator <= 0:
        return 0.0
    return float(2.0 * np.minimum(observed, estimated).sum() / denominator)


def underestimation_fraction(observed: np.ndarray, estimated: np.ndarray) -> float:
    """Fraction of pairs the model underestimates (est < obs).

    Fig 4's qualitative reading — "Radiation shows a strong tendency to
    underestimate" — quantified.
    """
    observed, estimated = _check_pair(observed, estimated)
    valid = observed > 0
    if not valid.any():
        return 0.0
    return float((estimated[valid] < observed[valid]).mean())

