"""Mobility models: Gravity (Eq 1, Eq 2), Radiation (Eq 3) and extensions.

All models share one small interface (:mod:`repro.models.base`): a model
is *fitted* on an :class:`~repro.extraction.mobility.ODPairs` dataset
(source mass m, destination mass n, distance d, observed flow T) and the
fitted object *predicts* scaled flow estimates for any compatible pair
set.  Fitting happens in log space via least squares, exactly the
procedure the paper describes under Eq 1–3.

``gravity``
    Gravity 4Param (``C m^α n^β / d^γ``) and Gravity 2Param
    (``C m n / d^γ``), plus an exponential-deterrence variant for the A3
    ablation.
``radiation``
    The parameter-free Radiation model with its intervening-population
    term ``s`` and a fitted global scale C.
``opportunities``
    The intervening-opportunities (Schneider) model, an extension
    baseline beyond the paper.
``evaluation``
    Uniform scoring of fitted models: Pearson, HitRate@50%, log-space
    errors, CPC.
"""

from repro.models.base import FittedMobilityModel, MobilityModel
from repro.models.evaluation import ModelEvaluation, evaluate_fitted
from repro.models.gravity import (
    FittedGravity,
    GravityExpModel,
    GravityModel,
    GravityParams,
)
from repro.models.opportunities import FittedOpportunities, InterveningOpportunitiesModel
from repro.models.radiation import (
    FittedRadiation,
    RadiationModel,
    intervening_population_matrix,
)
from repro.models.radiation_grid import (
    GridRadiationModel,
    PopulationGrid,
    population_grid_from_corpus,
    population_grid_from_world,
)
from repro.models.registry import MODEL_KINDS, fit_kind, model_from_kind
from repro.models.selection import (
    BootstrapInterval,
    CrossValidationResult,
    aic_log_space,
    bootstrap_metric,
    k_fold_cross_validate,
    rank_models_by_aic,
)
from repro.models.variants import (
    DoublyConstrainedGravity,
    NormalizedRadiation,
    ProductionConstrainedGravity,
)

__all__ = [
    "BootstrapInterval",
    "CrossValidationResult",
    "DoublyConstrainedGravity",
    "FittedGravity",
    "FittedMobilityModel",
    "FittedOpportunities",
    "FittedRadiation",
    "GravityExpModel",
    "GridRadiationModel",
    "MODEL_KINDS",
    "PopulationGrid",
    "fit_kind",
    "model_from_kind",
    "population_grid_from_corpus",
    "population_grid_from_world",
    "GravityModel",
    "GravityParams",
    "InterveningOpportunitiesModel",
    "MobilityModel",
    "ModelEvaluation",
    "NormalizedRadiation",
    "ProductionConstrainedGravity",
    "RadiationModel",
    "aic_log_space",
    "bootstrap_metric",
    "evaluate_fitted",
    "intervening_population_matrix",
    "k_fold_cross_validate",
    "rank_models_by_aic",
]
