"""Tests for repro.synth.diurnal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth import SynthConfig, generate_corpus
from repro.synth.diurnal import DAY_SECONDS, DiurnalPattern


class TestDiurnalPattern:
    def test_density_mean_is_one(self):
        pattern = DiurnalPattern(amplitude=0.8, peak_hour=20.0)
        hours = np.linspace(0, 24, 1000, endpoint=False)
        assert pattern.density(hours).mean() == pytest.approx(1.0, abs=1e-3)

    def test_density_peaks_at_peak_hour(self):
        pattern = DiurnalPattern(amplitude=0.5, peak_hour=18.0)
        assert pattern.density(18.0) == pytest.approx(1.5)
        assert pattern.density(6.0) == pytest.approx(0.5)

    def test_zero_amplitude_is_identity_warp(self):
        pattern = DiurnalPattern(amplitude=0.0)
        u = np.linspace(0, 0.999, 100)
        assert np.allclose(pattern.warp_time_of_day(u), u, atol=1e-6)

    def test_warp_is_monotone(self):
        pattern = DiurnalPattern(amplitude=0.9, peak_hour=20.0)
        u = np.linspace(0, 0.9999, 500)
        warped = pattern.warp_time_of_day(u)
        assert np.all(np.diff(warped) > 0)

    def test_warp_output_in_unit_interval(self):
        pattern = DiurnalPattern(amplitude=0.7)
        warped = pattern.warp_time_of_day(np.array([0.0, 0.5, 0.9999]))
        assert np.all((warped >= 0) & (warped <= 1))

    def test_warped_uniform_matches_density(self):
        pattern = DiurnalPattern(amplitude=0.8, peak_hour=20.0)
        rng = np.random.default_rng(0)
        warped_hours = pattern.warp_time_of_day(rng.random(200_000)) * 24.0
        counts, edges = np.histogram(warped_hours, bins=24, range=(0, 24))
        centers = (edges[:-1] + edges[1:]) / 2
        empirical = counts / counts.mean()
        assert np.allclose(empirical, pattern.density(centers), atol=0.05)

    def test_warp_preserves_calendar_day(self):
        pattern = DiurnalPattern(amplitude=0.9)
        epoch = 1_000_000.0
        ts = epoch + np.array([0.1, 1.4, 5.9]) * DAY_SECONDS
        warped = pattern.warp_timestamps(ts, epoch)
        assert np.array_equal(
            np.floor((ts - epoch) / DAY_SECONDS),
            np.floor((warped - epoch) / DAY_SECONDS),
        )

    def test_warp_preserves_order(self):
        pattern = DiurnalPattern(amplitude=0.9)
        rng = np.random.default_rng(1)
        ts = np.sort(rng.uniform(0, 30 * DAY_SECONDS, 1000))
        warped = pattern.warp_timestamps(ts, 0.0)
        assert np.all(np.diff(warped) >= 0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(amplitude=1.0), dict(amplitude=-0.1), dict(peak_hour=24.0), dict(grid_size=4)],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            DiurnalPattern(**kwargs)

    def test_out_of_range_fraction_raises(self):
        pattern = DiurnalPattern()
        with pytest.raises(ValueError):
            pattern.warp_time_of_day(np.array([1.0]))

    @given(st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=0, max_value=23.99))
    @settings(max_examples=25)
    def test_warp_bijective_property(self, amplitude, peak):
        pattern = DiurnalPattern(amplitude=amplitude, peak_hour=peak)
        u = np.linspace(0, 0.999, 50)
        warped = pattern.warp_time_of_day(u)
        assert np.all(np.diff(warped) > 0)
        assert warped[0] >= 0.0
        assert warped[-1] <= 1.0


class TestGeneratorIntegration:
    def test_diurnal_corpus_has_cycle(self):
        from repro.extraction.temporal import hourly_profile

        def relative_amplitude(corpus):
            counts = hourly_profile(corpus).counts
            return (counts.max() - counts.min()) / counts.mean()

        flat = generate_corpus(SynthConfig(n_users=1500, seed=5)).corpus
        cyclic = generate_corpus(
            SynthConfig(n_users=1500, seed=5, diurnal_amplitude=0.8)
        ).corpus
        assert relative_amplitude(cyclic) > relative_amplitude(flat) + 0.5

    def test_heavy_tail_survives_warp(self):
        from repro.extraction import waiting_time_distribution

        cyclic = generate_corpus(
            SynthConfig(n_users=1500, seed=5, diurnal_amplitude=0.8)
        ).corpus
        assert waiting_time_distribution(cyclic).decades_spanned > 5.0

    def test_table1_stats_unchanged_by_warp(self):
        flat = generate_corpus(SynthConfig(n_users=1500, seed=5)).corpus.stats()
        cyclic = generate_corpus(
            SynthConfig(n_users=1500, seed=5, diurnal_amplitude=0.8)
        ).corpus.stats()
        assert cyclic.avg_tweets_per_user == flat.avg_tweets_per_user
        assert cyclic.avg_waiting_time_hours == pytest.approx(
            flat.avg_waiting_time_hours, rel=0.05
        )
