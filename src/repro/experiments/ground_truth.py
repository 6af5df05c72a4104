"""Ground-truth validation of the paper's Section IV proposal.

The paper ends Section IV with an untested claim:

    "by replacing m and n with the population from census, it is
    feasible to estimate the real-world mobility between areas in
    Australia. We will test this proposal in future work."

A synthetic reproduction can test it *now*: the generator knows every
user's true site-level movement, so the "real-world mobility" the paper
can only hypothesise about is observable here.  The experiment:

1. extract OD flows from tweets exactly as the paper does (the noisy,
   sampled view);
2. fit the models on those Twitter flows;
3. predict flows for every area pair from census populations and
   distances;
4. compare the predictions against the *true* area-level trip counts
   reconstructed from the generator's site transitions.

If the paper's proposal is sound, the Twitter-fitted gravity model
should predict the true flows about as well as it fits the Twitter
flows themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.accumulate import od_matrix_from_labels
from repro.data.gazetteer import Area, Scale, areas_for_scale, search_radius_km
from repro.experiments.scales import ExperimentContext
from repro.extraction.mobility import ODFlows, ODPairs
from repro.geo.distance import haversine_km
from repro.models.evaluation import ModelEvaluation, evaluate_fitted
from repro.models.gravity import GravityModel
from repro.models.radiation import RadiationModel
from repro.synth.generator import GenerationResult


def _site_area_labels(
    result: GenerationResult, areas: Sequence[Area], radius_km: float
) -> np.ndarray:
    """Nearest study area (within ε) for each world site, -1 otherwise."""
    labels = np.full(len(result.world), -1, dtype=np.int64)
    for site_index, site in enumerate(result.world.sites):
        best = -1
        best_distance = radius_km
        for area_index, area in enumerate(areas):
            d = haversine_km(site.activity_center, area.center)
            if d <= best_distance:
                if d < best_distance or best == -1:
                    best = area_index
                    best_distance = d
        labels[site_index] = best
    return labels


def true_area_flows(
    result: GenerationResult, areas: Sequence[Area], radius_km: float
) -> ODFlows:
    """The generator's true trip counts aggregated to study areas.

    Counts every consecutive same-user pair of tweets whose generating
    *sites* map to two different study areas — mobility as it actually
    happened, before the sampling noise of positions and discs.
    """
    labels = _site_area_labels(result, areas, radius_km)
    site_areas = labels[result.site_indices]
    matrix, _ = od_matrix_from_labels(result.corpus.user_ids, site_areas, len(areas))
    return ODFlows(areas=tuple(areas), matrix=matrix)


@dataclass(frozen=True)
class GroundTruthResult:
    """Twitter-fitted models scored against the generator's true flows."""

    scale: Scale
    twitter_fit_quality: dict[str, ModelEvaluation]
    true_flow_quality: dict[str, ModelEvaluation]
    n_true_trips: int
    n_twitter_trips: int

    def render(self) -> str:
        """Per-model: fit quality on Twitter flows vs accuracy on truth."""
        lines = [
            "Ground-truth validation of the paper's census-prediction proposal",
            f"scale={self.scale.value}: {self.n_twitter_trips} Twitter transitions "
            f"observed, {self.n_true_trips} true trips reconstructed",
            f"{'model':<16s}{'r (fit on Twitter)':>22s}{'r (vs true flows)':>22s}",
        ]
        for name, twitter_eval in self.twitter_fit_quality.items():
            truth_eval = self.true_flow_quality[name]
            lines.append(
                f"{name:<16s}{twitter_eval.pearson_r:>22.3f}{truth_eval.pearson_r:>22.3f}"
            )
        gravity = self.true_flow_quality.get("Gravity 2Param")
        if gravity is not None:
            verdict = "SUPPORTED" if gravity.pearson_r > 0.6 else "NOT SUPPORTED"
            lines.append(
                f"Proposal (census-driven gravity predicts real mobility): {verdict}"
            )
        return "\n".join(lines)


def run_ground_truth_validation(
    result: GenerationResult, scale: Scale = Scale.NATIONAL
) -> GroundTruthResult:
    """Fit on Twitter flows, score against the generator's true flows."""
    areas = areas_for_scale(scale)
    radius = search_radius_km(scale)
    context = ExperimentContext(result.corpus)
    twitter_flows = context.flows(scale)
    twitter_pairs = twitter_flows.pairs()
    truth = true_area_flows(result, areas, radius)
    truth_pairs = truth.pairs()

    models = {
        "Gravity 4Param": GravityModel(4),
        "Gravity 2Param": GravityModel(2),
        "Radiation": RadiationModel.from_flows(twitter_flows),
    }
    twitter_quality: dict[str, ModelEvaluation] = {}
    truth_quality: dict[str, ModelEvaluation] = {}
    for name, model in models.items():
        fitted = model.fit(twitter_pairs)
        twitter_quality[name] = evaluate_fitted(fitted, twitter_pairs)
        # Rescale predictions to the true-flow volume: the Twitter C
        # absorbs the sampling rate, which differs from true trips by a
        # constant the proposal does not claim to know.
        predictions = fitted.predict(truth_pairs)
        scale_factor = truth_pairs.flow.sum() / max(predictions.sum(), 1e-12)
        rescaled = _with_estimates(truth_pairs, predictions * scale_factor)
        truth_quality[name] = rescaled
    return GroundTruthResult(
        scale=scale,
        twitter_fit_quality=twitter_quality,
        true_flow_quality=truth_quality,
        n_true_trips=truth.total_trips,
        n_twitter_trips=twitter_flows.total_trips,
    )


def _with_estimates(pairs: ODPairs, estimates: np.ndarray) -> ModelEvaluation:
    """Score raw estimate arrays against a pair set's observed flows."""
    from repro.stats.correlation import pearson
    from repro.stats.metrics import (
        common_part_of_commuters,
        hit_rate,
        log_rmse,
        max_log_error,
        underestimation_fraction,
    )

    observed = pairs.flow
    correlation = pearson(estimates, observed)
    return ModelEvaluation(
        model_name="(rescaled)",
        observed=observed,
        estimated=estimates,
        pearson_r=correlation.r,
        pearson_p=correlation.p_value,
        hit_rate_50=hit_rate(observed, estimates),
        log_rmse=log_rmse(observed, estimates),
        max_log_error=max_log_error(observed, estimates),
        cpc=common_part_of_commuters(observed, estimates),
        underestimation=underestimation_fraction(observed, estimates),
    )
