"""Statistics: correlation, binning, model metrics, heavy-tail fits.

``correlation``
    Pearson r with a two-tailed p-value (the Fig 3 headline numbers),
    including log-space variants.
``binning``
    Logarithmic binning: binned PDFs (Fig 2) and binned conditional
    means (the red dots of Fig 4).
``metrics``
    Model scoring: HitRate@X% (Table II), log-space RMSE/MAE, the common
    part of commuters (Sørensen similarity) and R².
``powerlaw``
    CCDFs and maximum-likelihood power-law tail fits (Clauset-style
    continuous/discrete α̂).
``rescale``
    The rescaling factor C of Fig 3 (``C · p_twitter ≈ p_census``).
"""

from repro.stats.binning import log_bin_edges, log_binned_means, log_binned_pdf
from repro.stats.concentration import gini_coefficient, lorenz_curve, top_share
from repro.stats.correlation import log_pearson, pearson
from repro.stats.metrics import (
    common_part_of_commuters,
    hit_rate,
    log_rmse,
)
from repro.stats.powerlaw import fit_power_law_mle
from repro.stats.rescale import optimal_log_rescale, rescale_to_census

__all__ = [
    "gini_coefficient",
    "lorenz_curve",
    "top_share",
    "common_part_of_commuters",
    "fit_power_law_mle",
    "hit_rate",
    "log_bin_edges",
    "log_binned_means",
    "log_binned_pdf",
    "log_pearson",
    "log_rmse",
    "optimal_log_rescale",
    "pearson",
    "rescale_to_census",
]
