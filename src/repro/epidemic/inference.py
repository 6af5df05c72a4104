"""Epidemic parameter inference from incidence curves.

The responsive-forecasting loop needs one more piece: given the early
case counts observed in the seed city, estimate the transmission
parameters, then forecast spread over the Twitter-fitted mobility
network.  :func:`fit_sir_curve` fits (beta, gamma) by least squares
against a prevalence curve using the deterministic integrator.

Recovery of known parameters from simulated outbreaks is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize


@dataclass(frozen=True, slots=True)
class SirFit:
    """Fitted SIR transmission parameters."""

    beta: float
    gamma: float
    sse: float

    @property
    def r0(self) -> float:
        """The fitted basic reproduction number."""
        return self.beta / self.gamma


def fit_sir_curve(
    times_days: np.ndarray,
    infected: np.ndarray,
    population: float,
    initial_infected: float,
    beta_bounds: tuple[float, float] = (0.05, 3.0),
    gamma_bounds: tuple[float, float] = (0.02, 1.0),
) -> SirFit:
    """Least-squares (beta, gamma) against a single-patch prevalence curve.

    Integrates a one-patch SIR (via the metapopulation integrator with a
    single isolated patch) for candidate parameters and minimises the
    squared prevalence error with Nelder–Mead in log-parameter space.
    """
    times = np.asarray(times_days, dtype=np.float64)
    cases = np.asarray(infected, dtype=np.float64)
    if times.shape != cases.shape or times.size < 5:
        raise ValueError("need >= 5 aligned (time, infected) points")
    if population <= 0 or initial_infected <= 0:
        raise ValueError("population and initial_infected must be positive")
    horizon = float(times.max())
    # RK4 is 4th order; ~800 steps over the horizon is ample for SIR.
    dt = max(horizon / 800.0, 0.05)

    def objective(log_params: np.ndarray) -> float:
        beta, gamma = np.exp(log_params)
        if not (beta_bounds[0] <= beta <= beta_bounds[1]):
            return 1e18
        if not (gamma_bounds[0] <= gamma <= gamma_bounds[1]):
            return 1e18
        model_times, model_infected = _integrate_sir_scalar(
            float(beta), float(gamma), float(population), float(initial_infected),
            horizon, dt,
        )
        model = np.interp(times, model_times, model_infected)
        return float(((model - cases) ** 2).sum())

    start = np.log([0.4, 0.2])
    result = optimize.minimize(objective, start, method="Nelder-Mead")
    beta, gamma = np.exp(result.x)
    return SirFit(beta=float(beta), gamma=float(gamma), sse=float(result.fun))


def _integrate_sir_scalar(
    beta: float, gamma: float, population: float, i0: float, horizon: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fast scalar RK4 for one-patch SIR (the fitter's inner loop).

    Agrees with :func:`repro.epidemic.seir.simulate_seir` on a single
    isolated patch (tested) but avoids per-step array overhead, which
    dominates when Nelder–Mead calls it hundreds of times.
    """
    n_steps = int(np.ceil(horizon / dt))
    times = np.empty(n_steps + 1)
    infected = np.empty(n_steps + 1)
    s = population - i0
    i = i0
    times[0] = 0.0
    infected[0] = i

    def ds_di(s_c: float, i_c: float) -> tuple[float, float]:
        new = beta * s_c * i_c / population
        return -new, new - gamma * i_c

    for step in range(1, n_steps + 1):
        k1s, k1i = ds_di(s, i)
        k2s, k2i = ds_di(s + 0.5 * dt * k1s, i + 0.5 * dt * k1i)
        k3s, k3i = ds_di(s + 0.5 * dt * k2s, i + 0.5 * dt * k2i)
        k4s, k4i = ds_di(s + dt * k3s, i + dt * k3i)
        s += dt / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
        i += dt / 6.0 * (k1i + 2 * k2i + 2 * k3i + k4i)
        s = max(s, 0.0)
        i = max(i, 0.0)
        times[step] = step * dt
        infected[step] = i
    return times, infected

