"""Stochastic outbreak simulation and arrival-time analysis.

Complements the deterministic SEIR integrator with a discrete-time
chain-binomial SIR: infections and recoveries are binomial draws, and
infectious *travellers* are Poisson draws over the network rates.  The
key output for the paper's motivating use case is the *arrival time* of
an outbreak in each city — the quantity a responsive, Twitter-informed
model would forecast during an emergency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.epidemic.network import MobilityNetwork


@dataclass(frozen=True)
class StochasticResult:
    """One stochastic run: daily S/I/R plus per-patch arrival days."""

    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    arrival_day: np.ndarray
    network: MobilityNetwork

    @property
    def total_infected(self) -> float:
        """Total individuals ever infected across all patches."""
        return float(self.r[-1].sum() + self.i[-1].sum())


def simulate_stochastic_sir(
    network: MobilityNetwork,
    beta: float,
    gamma: float,
    initial_infected: dict[int, int] | dict[str, int],
    t_max_days: int = 365,
    rng: np.random.Generator | None = None,
) -> StochasticResult:
    """Daily chain-binomial SIR with Poisson infectious travel.

    Per day and patch: each susceptible is infected with probability
    ``1 - exp(-beta * I/N)``; each infectious recovers with probability
    ``1 - exp(-gamma)``; infectious individuals seed patch ``j`` with
    ``Poisson(rates[i, j] * I_i)`` imported cases (bounded by the
    destination's susceptibles).
    """
    if beta < 0 or gamma <= 0:
        raise ValueError("beta must be >= 0 and gamma > 0")
    if t_max_days < 1:
        raise ValueError("horizon must be at least one day")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = network.n_patches
    populations = network.populations.astype(np.int64)
    i_now = np.zeros(n, dtype=np.int64)
    for key, count in initial_infected.items():
        index = network.names.index(key) if isinstance(key, str) else int(key)
        i_now[index] = int(count)
    if np.any(i_now > populations):
        raise ValueError("cannot seed more infections than population")
    s_now = populations - i_now
    r_now = np.zeros(n, dtype=np.int64)

    s_hist = np.empty((t_max_days + 1, n), dtype=np.int64)
    i_hist = np.empty((t_max_days + 1, n), dtype=np.int64)
    r_hist = np.empty((t_max_days + 1, n), dtype=np.int64)
    s_hist[0], i_hist[0], r_hist[0] = s_now, i_now, r_now
    arrival = np.full(n, np.inf)
    arrival[i_now > 0] = 0.0

    for day in range(1, t_max_days + 1):
        # Imported infections: infectious travellers from every patch.
        expected_imports = network.rates.T @ i_now
        imports = rng.poisson(expected_imports)
        imports = np.minimum(imports, s_now)
        s_now = s_now - imports
        i_now = i_now + imports
        # Local transmission and recovery.
        prevalence = np.divide(
            i_now, populations, out=np.zeros(n, dtype=np.float64), where=populations > 0
        )
        p_infect = -np.expm1(-beta * prevalence)
        new_cases = rng.binomial(s_now, p_infect)
        recoveries = rng.binomial(i_now, -np.expm1(-gamma))
        s_now = s_now - new_cases
        i_now = i_now + new_cases - recoveries
        r_now = r_now + recoveries
        s_hist[day], i_hist[day], r_hist[day] = s_now, i_now, r_now
        newly_arrived = (arrival == np.inf) & (i_now > 0)
        arrival[newly_arrived] = float(day)
        if i_now.sum() == 0:
            # Outbreak over; freeze the remaining history.
            s_hist[day:] = s_now
            i_hist[day:] = 0
            r_hist[day:] = r_now
            break

    return StochasticResult(
        times=np.arange(t_max_days + 1, dtype=np.float64),
        s=s_hist,
        i=i_hist,
        r=r_hist,
        arrival_day=arrival,
        network=network,
    )


@dataclass(frozen=True)
class OutbreakSummary:
    """Arrival-time statistics across stochastic runs."""

    names: tuple[str, ...]
    mean_arrival_day: np.ndarray
    arrival_probability: np.ndarray
    n_runs: int

    def render(self) -> str:
        """Patches ordered by mean arrival time."""
        order = np.argsort(self.mean_arrival_day)
        lines = [f"Outbreak arrival times over {self.n_runs} runs:"]
        for index in order:
            mean = self.mean_arrival_day[index]
            mean_text = f"{mean:7.1f}d" if np.isfinite(mean) else "   neverd"
            lines.append(
                f"  {self.names[index]:<22s} {mean_text}  "
                f"P(reached)={self.arrival_probability[index]:.2f}"
            )
        return "\n".join(lines)


def arrival_times(
    network: MobilityNetwork,
    beta: float,
    gamma: float,
    seed_patch: int | str,
    n_runs: int = 20,
    initial_cases: int = 10,
    t_max_days: int = 365,
    rng: np.random.Generator | None = None,
) -> OutbreakSummary:
    """Mean arrival day per patch over repeated stochastic outbreaks.

    Runs where a patch is never reached are excluded from its mean but
    reflected in ``arrival_probability``.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = network.n_patches
    sums = np.zeros(n)
    hits = np.zeros(n, dtype=np.int64)
    for _run in range(n_runs):
        result = simulate_stochastic_sir(
            network,
            beta,
            gamma,
            {seed_patch: initial_cases},
            t_max_days=t_max_days,
            rng=rng,
        )
        reached = np.isfinite(result.arrival_day)
        sums[reached] += result.arrival_day[reached]
        hits += reached
    means = np.divide(sums, hits, out=np.full(n, np.inf), where=hits > 0)
    return OutbreakSummary(
        names=network.names,
        mean_arrival_day=means,
        arrival_probability=hits / n_runs,
        n_runs=n_runs,
    )
