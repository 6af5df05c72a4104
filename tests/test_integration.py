"""End-to-end integration tests: the paper's qualitative findings.

These exercise the full pipeline — synthesis → extraction → fitting →
scoring — on the shared medium corpus and assert the reproduction
targets listed in DESIGN.md.
"""

from repro.data.gazetteer import Scale
from repro.experiments import run_fig3, run_table2
from repro.models import (
    GravityModel,
    InterveningOpportunitiesModel,
    RadiationModel,
    evaluate_fitted,
)


class TestPopulationEstimationFeasibility:
    """Paper finding 1: population distribution is estimable from tweets."""

    def test_overall_correlation_strong_and_significant(self, medium_context):
        result = run_fig3(medium_context)
        assert result.overall.r > 0.75  # paper: 0.816
        assert result.overall.p_value < 1e-12  # paper: 2.06e-15

    def test_correlation_weakens_with_scale(self, medium_context):
        result = run_fig3(medium_context)
        r = {s: result.per_scale[s].correlation.r for s in Scale}
        assert r[Scale.NATIONAL] > r[Scale.METROPOLITAN]
        assert r[Scale.STATE] > r[Scale.METROPOLITAN]

    def test_radius_sensitivity(self, medium_context):
        """Fig 3(b): epsilon = 0.5 km is clearly worse than 2 km."""
        result = run_fig3(medium_context)
        assert (
            result.metro_sensitivity.correlation.r
            < result.per_scale[Scale.METROPOLITAN].correlation.r - 0.05
        )


class TestGravityVsRadiation:
    """Paper finding 2: Gravity beats Radiation on Australian data."""

    def test_gravity_beats_radiation_everywhere(self, medium_context):
        result = run_table2(medium_context)
        assert result.gravity_beats_radiation()

    def test_radiation_weakest_at_national_or_state(self, medium_context):
        result = run_table2(medium_context)
        for scale in (Scale.NATIONAL, Scale.STATE):
            radiation_r = result.cells[(scale, "Radiation")][0]
            for model in ("Gravity 4Param", "Gravity 2Param"):
                assert result.cells[(scale, model)][0] > radiation_r

    def test_gravity_hit_rate_beats_radiation_at_state(self, medium_context):
        result = run_table2(medium_context)
        radiation_hit = result.cells[(Scale.STATE, "Radiation")][1]
        best_gravity_hit = max(
            result.cells[(Scale.STATE, "Gravity 4Param")][1],
            result.cells[(Scale.STATE, "Gravity 2Param")][1],
        )
        assert best_gravity_hit > radiation_hit

    def test_fitted_gamma_is_physical(self, medium_context):
        """The recovered distance exponent should be near the generator's
        ground truth (1.6), confirming the fit sees through extraction."""
        flows = medium_context.flows(Scale.NATIONAL)
        fitted = GravityModel(2).fit(flows.pairs())
        assert 0.8 < fitted.params.gamma < 2.5


class TestExtensionModel:
    def test_opportunities_model_is_competitive_with_radiation(self, medium_context):
        flows = medium_context.flows(Scale.NATIONAL)
        pairs = flows.pairs()
        radiation = evaluate_fitted(RadiationModel.from_flows(flows).fit(pairs), pairs)
        opportunities = evaluate_fitted(
            InterveningOpportunitiesModel.from_flows(flows).fit(pairs), pairs
        )
        # Both are s-based models; opportunities has one more free
        # parameter and must not be wildly worse.
        assert opportunities.pearson_r > radiation.pearson_r - 0.3


class TestCrossScaleTransfer:
    def test_national_fit_predicts_state_flows(self, medium_context):
        """A gravity model fitted at one scale transfers usefully to
        another — the property that makes the paper's disease-forecast
        proposal plausible."""
        national = medium_context.flows(Scale.NATIONAL).pairs()
        state = medium_context.flows(Scale.STATE).pairs()
        fitted = GravityModel(2).fit(national)
        predictions = fitted.predict(state)
        from repro.stats import log_pearson

        transfer = log_pearson(predictions, state.flow)
        assert transfer.r > 0.4
