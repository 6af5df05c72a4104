"""Tests for the per-artefact experiment modules (Table I .. Table II).

Structural assertions run on the small corpus; the qualitative
reproduction targets (who wins, what degrades) run on the session-scoped
medium corpus, which has enough volume for stable statistics.
"""

from repro.data.gazetteer import Scale
from repro.experiments import (
    run_all_experiments,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
    run_table2,
)


class TestTable1:
    def test_structure(self, small_corpus):
        result = run_table1(small_corpus)
        assert result.stats.n_users == 2000
        assert set(result.activity_buckets) == {50, 100, 500, 1000}
        assert (
            result.activity_buckets[50]
            >= result.activity_buckets[100]
            >= result.activity_buckets[500]
            >= result.activity_buckets[1000]
        )

    def test_render_mentions_paper_values(self, small_corpus):
        text = run_table1(small_corpus).render()
        assert "6,304,176" in text
        assert "473,956" in text
        assert "35.5" in text


class TestFig1:
    def test_density_grid_covers_tweets(self, small_corpus):
        result = run_fig1(small_corpus, cell_km=50.0)
        assert result.grid.counts.sum() == len(small_corpus)

    def test_city_density_correlates_with_population(self, medium_corpus):
        result = run_fig1(medium_corpus, cell_km=25.0)
        assert result.city_density_correlation.r > 0.5

    def test_render(self, small_corpus):
        text = run_fig1(small_corpus, cell_km=100.0).render(max_width=60)
        assert "Fig 1" in text
        assert "log density" in text


class TestFig2:
    def test_distributions_cover_decades(self, medium_corpus):
        result = run_fig2(medium_corpus)
        assert result.tweets_per_user.decades_spanned >= 2.5
        assert result.waiting_times.decades_spanned >= 5.0

    def test_tail_fit_heavy(self, medium_corpus):
        result = run_fig2(medium_corpus)
        # The configured generator exponent is 1.85.
        assert 1.5 < result.tweets_tail_fit.alpha < 2.3

    def test_render(self, medium_corpus):
        text = run_fig2(medium_corpus).render()
        assert "Fig 2(a)" in text
        assert "Fig 2(b)" in text
        assert "alpha=" in text


class TestFig3:
    def test_per_scale_results(self, medium_context):
        result = run_fig3(medium_context)
        assert set(result.per_scale) == set(Scale)
        for scale_result in result.per_scale.values():
            assert scale_result.twitter_users.shape == (20,)
            assert scale_result.rescale_factor > 0

    def test_overall_correlation_strong(self, medium_context):
        result = run_fig3(medium_context)
        # Paper: r = 0.816 over 60 areas.  Strong positive correlation
        # with a vanishing p-value is the reproduction target.
        assert result.overall.r > 0.75
        assert result.overall.p_value < 1e-10

    def test_national_beats_metropolitan(self, medium_context):
        result = run_fig3(medium_context)
        national = result.per_scale[Scale.NATIONAL].correlation.r
        metro = result.per_scale[Scale.METROPOLITAN].correlation.r
        assert national > metro

    def test_smaller_radius_degrades_metro(self, medium_context):
        result = run_fig3(medium_context)
        metro = result.per_scale[Scale.METROPOLITAN].correlation.r
        assert result.metro_sensitivity.correlation.r < metro

    def test_render(self, medium_context):
        text = run_fig3(medium_context).render()
        assert "Fig 3(a)" in text
        assert "Fig 3(b)" in text
        assert "overall" in text


class TestFig4:
    def test_nine_panels(self, medium_context):
        result = run_fig4(medium_context)
        assert len(result.panels) == 9
        for scale in Scale:
            for model in ("Gravity 4Param", "Gravity 2Param", "Radiation"):
                panel = result.panel(scale, model)
                assert panel.evaluation.observed.size > 0

    def test_gravity_errors_tighter_than_radiation(self, medium_context):
        result = run_fig4(medium_context)
        for scale in (Scale.NATIONAL, Scale.STATE):
            gravity = result.panel(scale, "Gravity 2Param").evaluation.log_rmse
            radiation = result.panel(scale, "Radiation").evaluation.log_rmse
            assert gravity < radiation

    def test_render_contains_panels(self, medium_context):
        text = run_fig4(medium_context).render()
        assert text.count("Gravity 2Param") >= 3
        assert "HitRate@50%" in text


class TestTable2:
    def test_cells_complete(self, medium_context):
        result = run_table2(medium_context)
        assert len(result.cells) == 9
        for (scale, model), (r, h) in result.cells.items():
            assert -1.0 <= r <= 1.0
            assert 0.0 <= h <= 1.0

    def test_headline_claim_holds(self, medium_context):
        """The paper's central finding: gravity beats radiation at every
        scale on Australian data."""
        result = run_table2(medium_context)
        assert result.gravity_beats_radiation()

    def test_radiation_never_best_by_pearson(self, medium_context):
        result = run_table2(medium_context)
        for scale in Scale:
            assert result.best_model_by_pearson(scale) != "Radiation"

    def test_render_contains_paper_cells(self, medium_context):
        text = run_table2(medium_context).render()
        assert "0.912" in text  # paper's national Gravity 2Param
        assert "Headline claim" in text
        assert "holds" in text


class TestSuite:
    def test_run_all(self, medium_corpus):
        suite = run_all_experiments(medium_corpus)
        text = suite.render()
        assert "Table I" in text
        assert "Table II" in text
        assert "Fig 1" in text
        assert "Fig 3(a)" in text
