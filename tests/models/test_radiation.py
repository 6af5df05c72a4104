"""Tests for repro.models.radiation — s matrix and C recovery."""

import numpy as np
import pytest

from repro.extraction.mobility import ODPairs
from repro.models.base import ModelFitError
from repro.models.radiation import (
    RadiationModel,
    intervening_population_matrix,
    radiation_base,
)


class TestInterveningPopulation:
    def test_three_collinear_areas(self):
        # Areas on a line: 0 --100km-- 1 --100km-- 2
        populations = np.array([1000.0, 2000.0, 3000.0])
        distances = np.array(
            [
                [0.0, 100.0, 200.0],
                [100.0, 0.0, 100.0],
                [200.0, 100.0, 0.0],
            ]
        )
        s = intervening_population_matrix(populations, distances)
        # From 0 to 1 (radius 100): nothing else within 100 of 0.
        assert s[0, 1] == 0.0
        # From 0 to 2 (radius 200): area 1 intervenes.
        assert s[0, 2] == 2000.0
        # From 1 to either neighbour (radius 100): the other neighbour is
        # also at exactly 100, boundary inclusive.
        assert s[1, 0] == 3000.0
        assert s[1, 2] == 1000.0
        # Diagonal is zero by convention.
        assert np.all(np.diag(s) == 0)

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        n = 15
        pts = rng.uniform(0, 100, (n, 2))
        distances = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        populations = rng.uniform(100, 1e6, n)
        s = intervening_population_matrix(populations, distances)
        assert np.all(s >= 0)

    def test_monotone_in_distance(self):
        # Along one origin row, s must not decrease as distance grows.
        rng = np.random.default_rng(1)
        n = 12
        pts = rng.uniform(0, 100, (n, 2))
        distances = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        populations = rng.uniform(100, 1e6, n)
        s = intervening_population_matrix(populations, distances)
        for i in range(n):
            others = [j for j in range(n) if j != i]
            order = sorted(others, key=lambda j: distances[i, j])
            # s + destination population is the cumulative mass inside
            # the circle; that total must be monotone in the radius.
            totals = [s[i, j] + populations[j] for j in order]
            assert all(a <= b + 1e-6 for a, b in zip(totals, totals[1:]))

    def test_upper_bound_total_population(self):
        rng = np.random.default_rng(2)
        n = 10
        pts = rng.uniform(0, 10, (n, 2))
        distances = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        populations = rng.uniform(100, 1000, n)
        s = intervening_population_matrix(populations, distances)
        total = populations.sum()
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert s[i, j] <= total - populations[i] - populations[j] + 1e-9

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            intervening_population_matrix(np.ones(3), np.zeros((2, 2)))


class TestRadiationModel:
    def _system(self, seed=0, n=12):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1000, (n, 2))
        distances = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        populations = rng.uniform(1e4, 5e6, n)
        return populations, distances

    def _pairs(self, populations, distances, flow_matrix):
        n = populations.size
        source, dest = np.nonzero(~np.eye(n, dtype=bool))
        return ODPairs(
            source=source,
            dest=dest,
            m=populations[source],
            n=populations[dest],
            d_km=distances[source, dest],
            flow=flow_matrix[source, dest],
        )

    def test_fit_recovers_scale_on_exact_radiation_flows(self):
        populations, distances = self._system()
        s = intervening_population_matrix(populations, distances)
        c_true = 5e4
        n = populations.size
        flow = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    flow[i, j] = c_true * radiation_base(
                        populations[i], populations[j], s[i, j]
                    )
        model = RadiationModel(populations, distances)
        fitted = model.fit(self._pairs(populations, distances, flow))
        assert fitted.c == pytest.approx(c_true, rel=1e-9)
        pairs = self._pairs(populations, distances, flow)
        assert np.allclose(fitted.predict(pairs), pairs.flow, rtol=1e-9)

    def test_kernel_formula(self):
        assert radiation_base(
            np.array([10.0]), np.array([20.0]), np.array([5.0])
        )[0] == pytest.approx(10 * 20 / ((10 + 5) * (10 + 20 + 5)))

    def test_from_flows_constructor(self, medium_context):
        from repro.data.gazetteer import Scale

        flows = medium_context.flows(Scale.NATIONAL)
        model = RadiationModel.from_flows(flows)
        assert model.s_matrix.shape == (20, 20)

    def test_fit_without_positive_pairs_raises(self):
        populations, distances = self._system(seed=3)
        model = RadiationModel(populations, distances)
        n = populations.size
        pairs = self._pairs(populations, distances, np.zeros((n, n)))
        with pytest.raises(ModelFitError):
            model.fit(pairs)

    def test_australia_radiation_s_saturates(self):
        """Australia's geography: from Sydney, s jumps quickly to nearly
        the whole population (the coastline concentration the paper blames
        for Radiation's underperformance)."""
        from repro.core.world import World
        from repro.data.gazetteer import Scale

        world = World.from_scale(Scale.NATIONAL)
        populations = world.populations
        s = intervening_population_matrix(populations, world.distance_matrix_km)
        sydney = 0  # gazetteer order: Sydney first
        far = np.argsort(world.distance_matrix_km[sydney])[-1]
        total = populations.sum()
        # The circle reaching the farthest city contains everyone else.
        expected = total - populations[sydney] - populations[far]
        assert s[sydney, far] == pytest.approx(expected)
        assert s[sydney, far] > 0.6 * total
