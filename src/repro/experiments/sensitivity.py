"""Sensitivity analyses: identifiability and noise-robustness sweeps.

Two questions a reviewer would ask of the pipeline:

1. **Identifiability** — if the world's true travel kernel had a
   different distance exponent, would the fitted γ track it?
   (:func:`gamma_identifiability_sweep`)
2. **Noise robustness** — how fast does the Fig 3 population
   correlation decay as per-place Twitter-adoption noise grows?
   (:func:`adoption_noise_sweep`)

Both regenerate small corpora per sweep point, so they live behind the
benchmark harness (A12) rather than the default test run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.gazetteer import Scale
from repro.experiments.fig3 import run_fig3
from repro.experiments.scales import ExperimentContext
from repro.models.gravity import GravityModel
from repro.synth.config import SynthConfig
from repro.synth.generator import generate_corpus


@dataclass(frozen=True)
class GammaSweepPoint:
    """One identifiability sweep point: kernel γ in, fitted γ out."""

    true_gamma: float
    fitted_gamma: float
    pearson_r: float


def gamma_identifiability_sweep(
    true_gammas: Sequence[float],
    n_users: int = 8_000,
    seed: int = 20150413,
) -> list[GammaSweepPoint]:
    """Regenerate the world per γ and refit at the national scale.

    The fitted exponent lives at the *area* level while the kernel acts
    at the *site* level, so exact equality is not expected — but the
    fitted values must increase monotonically with the truth for the
    fit to mean anything.
    """
    points = []
    for true_gamma in true_gammas:
        config = SynthConfig(n_users=n_users, seed=seed, gravity_gamma=float(true_gamma))
        corpus = generate_corpus(config).corpus
        context = ExperimentContext(corpus)
        pairs = context.flows(Scale.NATIONAL).pairs()
        fitted = GravityModel(2).fit(pairs)
        from repro.models.evaluation import evaluate_fitted

        evaluation = evaluate_fitted(fitted, pairs)
        points.append(
            GammaSweepPoint(
                true_gamma=float(true_gamma),
                fitted_gamma=fitted.params.gamma,
                pearson_r=evaluation.pearson_r,
            )
        )
    return points


@dataclass(frozen=True)
class NoiseSweepPoint:
    """One robustness sweep point: adoption σ in, Fig 3 correlations out."""

    adoption_sigma: float
    overall_r: float
    national_r: float
    metro_r: float


def adoption_noise_sweep(
    sigmas: Sequence[float],
    n_users: int = 8_000,
    seed: int = 20150413,
) -> list[NoiseSweepPoint]:
    """Regenerate per adoption-noise level and measure Fig 3."""
    points = []
    for sigma in sigmas:
        config = SynthConfig(n_users=n_users, seed=seed, adoption_sigma=float(sigma))
        corpus = generate_corpus(config).corpus
        result = run_fig3(ExperimentContext(corpus))
        points.append(
            NoiseSweepPoint(
                adoption_sigma=float(sigma),
                overall_r=result.overall.r,
                national_r=result.per_scale[Scale.NATIONAL].correlation.r,
                metro_r=result.per_scale[Scale.METROPOLITAN].correlation.r,
            )
        )
    return points


def render_gamma_sweep(points: Sequence[GammaSweepPoint]) -> str:
    """Tabulate an identifiability sweep."""
    lines = ["gamma identifiability (site-level truth -> area-level fit):"]
    for point in points:
        lines.append(
            f"  true={point.true_gamma:4.2f}  fitted={point.fitted_gamma:5.2f}  "
            f"r={point.pearson_r:.3f}"
        )
    fitted = [p.fitted_gamma for p in points]
    monotone = all(a <= b + 0.15 for a, b in zip(fitted, fitted[1:]))
    lines.append(f"  fitted gamma tracks the truth monotonically: {monotone}")
    return "\n".join(lines)


def render_noise_sweep(points: Sequence[NoiseSweepPoint]) -> str:
    """Tabulate a noise-robustness sweep."""
    lines = ["adoption-noise robustness (Fig 3 correlations per sigma):"]
    for point in points:
        lines.append(
            f"  sigma={point.adoption_sigma:4.2f}  overall r={point.overall_r:.3f}  "
            f"national r={point.national_r:.3f}  metro r={point.metro_r:.3f}"
        )
    return "\n".join(lines)
