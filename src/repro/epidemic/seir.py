"""Deterministic metapopulation SEIR dynamics.

Standard force-of-infection metapopulation model (Balcan et al. 2009,
the paper's reference [1]): within each patch the disease follows SEIR
compartments; between patches, infection pressure mixes through the
per-capita travel rates of a :class:`~repro.epidemic.network.MobilityNetwork`.

For patch ``i`` with population ``N_i``::

    lambda_i = beta * (I_i + sum_j (w_ji I_j - w_ij I_i) ) / N_i   (effective)

implemented as an explicit commuting approximation: the effective
infectious density seen by patch ``i`` blends its own prevalence with
its neighbours', weighted by travel rates.  Integration is fixed-step
RK4 (deterministic, dependency-free, testable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.epidemic.network import MobilityNetwork


@dataclass(frozen=True, slots=True)
class SEIRParams:
    """Epidemiological rates (per day).

    ``sigma`` (incubation rate) of ``inf`` collapses E instantly,
    turning the model into plain SIR.
    """

    beta: float = 0.5
    sigma: float = 0.25
    gamma: float = 0.2

    def __post_init__(self) -> None:
        if self.beta < 0 or self.gamma <= 0:
            raise ValueError("beta must be >= 0 and gamma > 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive (use math.inf for SIR)")

    @property
    def r0(self) -> float:
        """Basic reproduction number beta / gamma."""
        return self.beta / self.gamma


@dataclass(frozen=True)
class SEIRResult:
    """Trajectories of all compartments.

    Arrays are shaped ``(n_steps + 1, n_patches)``; ``times`` is in days.
    """

    times: np.ndarray
    s: np.ndarray
    e: np.ndarray
    i: np.ndarray
    r: np.ndarray
    network: MobilityNetwork

    def peak_times(self) -> np.ndarray:
        """Day of peak infectious prevalence per patch."""
        return self.times[np.argmax(self.i, axis=0)]

    def arrival_times(self, threshold: float = 1.0) -> np.ndarray:
        """First day each patch's infectious count reaches ``threshold``.

        Patches never reaching it get ``inf``.
        """
        reached = self.i >= threshold
        first = self.times[reached.argmax(axis=0)]
        return np.where(reached.any(axis=0), first, np.inf)


def _mixing(
    populations: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run constants of the travel mixing: ``(w, w.T, stay, mixing_n)``.

    A fraction ``tau_i = sum_j rates[i, j]`` of patch i's person-time is
    spent travelling, split across destinations; symmetric inbound terms
    import neighbours' prevalence.  Rates are interpreted as the
    fraction of time spent in each destination (capped so the row sum
    cannot exceed 1), giving the weights ``w``.  ``mixing_n`` is the
    effective mixing population of each patch's "airspace": residents
    staying plus visitors.  ``w.T`` stays a view, so the matrix-vector
    products see the same operand layout on every call.
    """
    out_fraction = rates.sum(axis=1)
    cap = np.minimum(out_fraction, 0.95)
    scale = np.divide(cap, out_fraction, out=np.zeros_like(cap), where=out_fraction > 0)
    w = rates * scale[:, None]
    stay = 1.0 - w.sum(axis=1)
    w_t = w.T
    return w, w_t, stay, stay * populations + w_t @ populations


def simulate_seir(
    network: MobilityNetwork,
    params: SEIRParams,
    initial_infected: dict[int, float] | dict[str, float],
    t_max_days: float = 365.0,
    dt_days: float = 0.25,
) -> SEIRResult:
    """Integrate metapopulation SEIR with RK4.

    ``initial_infected`` maps patch index (or patch name) to the number
    of initially infectious individuals; everyone else starts
    susceptible.
    """
    if t_max_days <= 0 or dt_days <= 0:
        raise ValueError("need positive horizon and step")
    n = network.n_patches
    populations = network.populations.astype(np.float64)
    i0 = np.zeros(n)
    for key, count in initial_infected.items():
        index = network.names.index(key) if isinstance(key, str) else int(key)
        if count < 0:
            raise ValueError("initial infections must be non-negative")
        i0[index] = float(count)
    if np.any(i0 > populations):
        raise ValueError("cannot seed more infections than population")

    n_steps = int(np.ceil(t_max_days / dt_days))
    times = np.linspace(0.0, n_steps * dt_days, n_steps + 1)
    s = np.empty((n_steps + 1, n))
    e = np.empty((n_steps + 1, n))
    i = np.empty((n_steps + 1, n))
    r = np.empty((n_steps + 1, n))
    s[0] = populations - i0
    e[0] = 0.0
    i[0] = i0
    r[0] = 0.0

    beta, sigma, gamma = params.beta, params.sigma, params.gamma
    sir_mode = np.isinf(sigma)
    w, w_t, stay, mixing_n = _mixing(populations, network.rates)
    half, sixth = 0.5 * dt_days, dt_days / 6.0

    state = np.stack([s[0], e[0], i[0], r[0]])
    stage = np.empty_like(state)
    k1, k2, k3, k4 = (np.zeros_like(state) for _ in range(4))
    pressure = np.empty(n)
    visitors = np.empty(n)
    sigma_e = np.empty(n)

    def derivatives(compartments: tuple[np.ndarray, ...], out: np.ndarray) -> None:
        # The same operations, in the same order, as the textbook form
        #   local = (stay*I + w.T@I) / mixing_n
        #   lam = beta * (stay*local + w@local);  new = lam * S
        # with sigma*E and gamma*I computed once.  In SIR mode E stays
        # zero and so does its derivative row.
        s_c, e_c, i_c, _ = compartments
        ds, de, di, dr = out
        np.matmul(w_t, i_c, out=visitors)
        np.multiply(stay, i_c, out=pressure)
        np.add(pressure, visitors, out=pressure)
        np.divide(pressure, mixing_n, out=pressure)
        np.matmul(w, pressure, out=visitors)
        np.multiply(stay, pressure, out=pressure)
        np.add(pressure, visitors, out=pressure)
        np.multiply(pressure, beta, out=pressure)
        np.multiply(pressure, s_c, out=pressure)
        np.negative(pressure, out=ds)
        np.multiply(i_c, gamma, out=dr)
        if sir_mode:
            np.subtract(pressure, dr, out=di)
        else:
            np.multiply(e_c, sigma, out=sigma_e)
            np.subtract(pressure, sigma_e, out=de)
            np.subtract(sigma_e, dr, out=di)

    state_rows, stage_rows = tuple(state), tuple(stage)
    k_rows = [tuple(k) for k in (k1, k2, k3, k4)]
    for step in range(1, n_steps + 1):
        derivatives(state_rows, k_rows[0])
        np.multiply(k1, half, out=stage)
        np.add(state, stage, out=stage)
        derivatives(stage_rows, k_rows[1])
        np.multiply(k2, half, out=stage)
        np.add(state, stage, out=stage)
        derivatives(stage_rows, k_rows[2])
        np.multiply(k3, dt_days, out=stage)
        np.add(state, stage, out=stage)
        derivatives(stage_rows, k_rows[3])
        # state + sixth * (((k1 + 2*k2) + 2*k3) + k4), left to right;
        # k2 is spent once folded in, so it holds 2*k3.
        np.multiply(k2, 2, out=stage)
        np.add(k1, stage, out=stage)
        np.multiply(k3, 2, out=k2)
        np.add(stage, k2, out=stage)
        np.add(stage, k4, out=stage)
        np.multiply(stage, sixth, out=stage)
        np.add(state, stage, out=state)
        np.clip(state, 0.0, None, out=state)
        s[step], e[step], i[step], r[step] = state

    return SEIRResult(times=times, s=s, e=e, i=i, r=r, network=network)
