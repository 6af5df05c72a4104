"""Uniform evaluation of fitted mobility models.

One :class:`ModelEvaluation` per (model, dataset) holds the estimates
and every score Table II and its extensions need: Pearson correlation
between estimated and observed flows, HitRate@50%, log-space errors, the
common part of commuters, and the under-estimation fraction that
quantifies Fig 4's visual reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extraction.mobility import ODPairs
from repro.models.base import FittedMobilityModel
from repro.stats.correlation import pearson
from repro.stats.metrics import (
    common_part_of_commuters,
    hit_rate,
    log_rmse,
    max_log_error,
    underestimation_fraction,
)


@dataclass(frozen=True)
class ModelEvaluation:
    """Scores of one fitted model on one OD dataset.

    ``pearson_r`` is the upper number and ``hit_rate_50`` the lower
    number of a Table II cell.
    """

    model_name: str
    observed: np.ndarray
    estimated: np.ndarray
    pearson_r: float
    pearson_p: float
    hit_rate_50: float
    log_rmse: float
    max_log_error: float
    cpc: float
    underestimation: float


def evaluate_fitted(
    fitted: FittedMobilityModel, pairs: ODPairs
) -> ModelEvaluation:
    """Score a fitted model on an OD pair set.

    The Pearson correlation is computed between raw estimated and
    observed flows (the paper's Table II metric); the log-space metrics
    complement it for the heavy-tailed flow distribution.
    """
    estimated = np.asarray(fitted.predict(pairs), dtype=np.float64)
    observed = pairs.flow
    correlation = pearson(estimated, observed)
    return ModelEvaluation(
        model_name=fitted.name,
        observed=observed,
        estimated=estimated,
        pearson_r=correlation.r,
        pearson_p=correlation.p_value,
        hit_rate_50=hit_rate(observed, estimated, tolerance=0.5),
        log_rmse=log_rmse(observed, estimated),
        max_log_error=max_log_error(observed, estimated),
        cpc=common_part_of_commuters(observed, estimated),
        underestimation=underestimation_fraction(observed, estimated),
    )
