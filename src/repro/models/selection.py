"""Model selection and uncertainty: cross-validation, bootstrap, AIC.

The paper scores each model on the very pairs it was fitted on.  That
is fine for the 1-to-4-parameter models involved, but the conclusion is
stronger with held-out evaluation — and the paper's future work promises
"more metrics".  This module provides:

* :func:`k_fold_cross_validate` — k-fold CV over OD pairs, scoring each
  fold's held-out pairs with the full metric set;
* :func:`bootstrap_metric` — nonparametric bootstrap confidence
  intervals for any (observed, estimated) metric, quantifying how much
  Table II cells wobble;
* :func:`aic_log_space` — the Akaike information criterion under the
  log-normal error model implied by least squares on
  ``log T``, penalising Gravity 4Param's extra parameters fairly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.extraction.mobility import ODPairs
from repro.models.base import MobilityModel, ModelFitError
from repro.models.evaluation import ModelEvaluation, evaluate_fitted


def _subset_pairs(pairs: ODPairs, indices: np.ndarray) -> ODPairs:
    """A new ODPairs holding only the selected rows."""
    return ODPairs(
        source=pairs.source[indices],
        dest=pairs.dest[indices],
        m=pairs.m[indices],
        n=pairs.n[indices],
        d_km=pairs.d_km[indices],
        flow=pairs.flow[indices],
    )


@dataclass(frozen=True)
class CrossValidationResult:
    """Per-fold held-out evaluations plus their aggregate."""

    model_name: str
    fold_evaluations: tuple[ModelEvaluation, ...]

    @property
    def mean_pearson(self) -> float:
        """Average held-out Pearson r across folds."""
        return float(np.mean([e.pearson_r for e in self.fold_evaluations]))


def k_fold_cross_validate(
    model: MobilityModel,
    pairs: ODPairs,
    k: int = 5,
    rng: np.random.Generator | None = None,
) -> CrossValidationResult:
    """k-fold cross-validation of a mobility model over OD pairs.

    Pairs are shuffled once and split into k folds; the model is fitted
    on k-1 folds and evaluated on the held-out fold.  Folds that leave
    too few training pairs for the model raise
    :class:`~repro.models.base.ModelFitError` (k is then too large for
    the dataset).
    """
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    n = len(pairs)
    if n < 2 * k:
        raise ValueError(f"too few pairs ({n}) for {k}-fold CV")
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    evaluations = []
    for fold in folds:
        held_out = np.sort(fold)
        train_mask = np.ones(n, dtype=bool)
        train_mask[held_out] = False
        train = _subset_pairs(pairs, np.nonzero(train_mask)[0])
        test = _subset_pairs(pairs, held_out)
        fitted = model.fit(train)
        evaluations.append(evaluate_fitted(fitted, test))
    return CrossValidationResult(
        model_name=model.name, fold_evaluations=tuple(evaluations)
    )


@dataclass(frozen=True, slots=True)
class BootstrapInterval:
    """A bootstrap point estimate with a percentile confidence interval."""

    point: float
    low: float
    high: float
    confidence: float
    n_resamples: int

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_metric(
    observed: np.ndarray,
    estimated: np.ndarray,
    metric: Callable[[np.ndarray, np.ndarray], float],
    n_resamples: int = 1000,
    confidence: float = 0.95,
    rng: np.random.Generator | None = None,
) -> BootstrapInterval:
    """Percentile-bootstrap CI for any (observed, estimated) metric.

    Resamples OD pairs with replacement and recomputes the metric; used
    to put error bars on Table II cells.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 10:
        raise ValueError(f"need >= 10 resamples, got {n_resamples}")
    observed = np.asarray(observed, dtype=np.float64)
    estimated = np.asarray(estimated, dtype=np.float64)
    if observed.shape != estimated.shape or observed.size == 0:
        raise ValueError("observed/estimated must be equal-length non-empty")
    rng = rng or np.random.default_rng(0)
    n = observed.size
    values = np.empty(n_resamples)
    for i in range(n_resamples):
        sample = rng.integers(0, n, n)
        values[i] = metric(observed[sample], estimated[sample])
    tail = (1.0 - confidence) / 2.0
    return BootstrapInterval(
        point=float(metric(observed, estimated)),
        low=float(np.quantile(values, tail)),
        high=float(np.quantile(values, 1.0 - tail)),
        confidence=confidence,
        n_resamples=n_resamples,
    )


def _log_residuals(observed: np.ndarray, estimated: np.ndarray) -> np.ndarray:
    keep = (observed > 0) & (estimated > 0)
    if not keep.any():
        raise ModelFitError("no positive pairs for information criteria")
    return np.log(observed[keep]) - np.log(estimated[keep])


def aic_log_space(
    observed: np.ndarray, estimated: np.ndarray, n_parameters: int
) -> float:
    """Akaike information criterion under the log-normal error model.

    ``AIC = n ln(SSE/n) + 2p`` (up to an additive constant shared by all
    models on the same data).  Lower is better.
    """
    residuals = _log_residuals(observed, estimated)
    n = residuals.size
    sse = float((residuals**2).sum())
    return n * np.log(max(sse, 1e-300) / n) + 2.0 * n_parameters


#: Free-parameter counts for the paper's models (including the scale C).
MODEL_PARAMETER_COUNTS = {
    "Gravity 4Param": 4,
    "Gravity 2Param": 2,
    "Radiation": 1,
    "Radiation Normalized": 1,
    "Intervening Opportunities": 2,
}


def rank_models_by_aic(
    evaluations: Sequence[ModelEvaluation],
) -> list[tuple[str, float]]:
    """(name, AIC) pairs sorted best-first, using the known param counts.

    Unknown model names default to 2 parameters.
    """
    ranked = []
    for evaluation in evaluations:
        p = MODEL_PARAMETER_COUNTS.get(evaluation.model_name, 2)
        ranked.append(
            (
                evaluation.model_name,
                aic_log_space(evaluation.observed, evaluation.estimated, p),
            )
        )
    return sorted(ranked, key=lambda pair: pair[1])

