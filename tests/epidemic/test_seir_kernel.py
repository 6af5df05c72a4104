"""The RK4 kernel of ``simulate_seir`` against a frozen reference.

``_reference_simulate`` is the integrator as it stood before the run
constants (travel weights, stay fractions, mixing denominator) were
hoisted out of the derivative and the derivative started writing into
preallocated buffers.  The rewrite promises every trajectory bit for
bit, so each drawn network is compared with ``np.array_equal`` — no
tolerance.  The draws cover the corners the rewrite could get wrong: a
single patch, patches that never travel, rates large enough that the
0.95 stay cap rescales a row, SIR mode (``sigma = inf``), coarse and
fine steps, and seeds given by name or by index.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epidemic.network import MobilityNetwork
from repro.epidemic.seir import SEIRParams, simulate_seir


def _reference_prevalence(i, populations, rates):
    out_fraction = rates.sum(axis=1)
    cap = np.minimum(out_fraction, 0.95)
    scale = np.divide(cap, out_fraction, out=np.zeros_like(cap), where=out_fraction > 0)
    w = rates * scale[:, None]
    stay = 1.0 - w.sum(axis=1)
    visitors_i = w.T @ i
    visitors_n = w.T @ populations
    local_density = (stay * i + visitors_i) / (stay * populations + visitors_n)
    return stay * local_density + w @ local_density


def _reference_simulate(network, params, initial_infected, t_max_days, dt_days):
    n = network.n_patches
    populations = network.populations.astype(np.float64)
    i0 = np.zeros(n)
    for key, count in initial_infected.items():
        index = network.names.index(key) if isinstance(key, str) else int(key)
        i0[index] = float(count)

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
    rates = network.rates
    sir_mode = np.isinf(sigma)

    def derivatives(state):
        s_c, e_c, i_c = state[0], state[1], state[2]
        lam = beta * _reference_prevalence(i_c, populations, rates)
        new_infections = lam * s_c
        if sir_mode:
            ds = -new_infections
            de = np.zeros_like(e_c)
            di = new_infections - gamma * i_c
        else:
            ds = -new_infections
            de = new_infections - sigma * e_c
            di = sigma * e_c - gamma * i_c
        dr = gamma * i_c
        return np.stack([ds, de, di, dr])

    state = np.stack([s[0], e[0], i[0], r[0]])
    for step in range(1, n_steps + 1):
        k1 = derivatives(state)
        k2 = derivatives(state + 0.5 * dt_days * k1)
        k3 = derivatives(state + 0.5 * dt_days * k2)
        k4 = derivatives(state + dt_days * k3)
        state = state + (dt_days / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        np.clip(state, 0.0, None, out=state)
        s[step], e[step], i[step], r[step] = state
    return times, s, e, i, r


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    populations = rng.uniform(1e3, 5e6, size=n)
    rates = rng.uniform(0.0, 1.0, size=(n, n)) * draw(st.sampled_from([0.0, 1e-4, 2e-3, 0.5]))
    np.fill_diagonal(rates, 0.0)
    if draw(st.booleans()):
        rates[draw(st.integers(min_value=0, max_value=n - 1))] = 0.0
    network = MobilityNetwork(
        names=tuple(f"P{k}" for k in range(n)), populations=populations, rates=rates
    )
    params = SEIRParams(
        beta=draw(st.floats(min_value=0.0, max_value=1.5)),
        sigma=draw(st.one_of(st.just(math.inf), st.floats(min_value=0.05, max_value=2.0))),
        gamma=draw(st.floats(min_value=0.05, max_value=1.0)),
    )
    seed = draw(st.integers(min_value=0, max_value=n - 1))
    count = draw(st.floats(min_value=0.0, max_value=1.0)) * min(populations[seed], 100.0)
    key = network.names[seed] if draw(st.booleans()) else seed
    dt = draw(st.sampled_from([0.1, 0.25, 1.0]))
    t_max = draw(st.floats(min_value=1.0, max_value=40.0))
    return network, params, {key: count}, t_max, dt


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_bit_for_bit(case):
    network, params, seeds, t_max, dt = case
    result = simulate_seir(network, params, seeds, t_max_days=t_max, dt_days=dt)
    expected = _reference_simulate(network, params, seeds, t_max, dt)
    for name, want in zip(("times", "s", "e", "i", "r"), expected):
        assert np.array_equal(getattr(result, name), want), name


def test_full_year_matches_reference_bit_for_bit():
    """The production horizon and step on a dense 20-patch network."""
    rng = np.random.default_rng(20150413)
    rates = rng.uniform(0.0, 2e-3, size=(20, 20))
    np.fill_diagonal(rates, 0.0)
    network = MobilityNetwork(
        names=tuple(f"P{k}" for k in range(20)),
        populations=rng.uniform(1e4, 5e6, size=20),
        rates=rates,
    )
    result = simulate_seir(network, SEIRParams(), {"P3": 10.0})
    expected = _reference_simulate(network, SEIRParams(), {"P3": 10.0}, 365.0, 0.25)
    for name, want in zip(("times", "s", "e", "i", "r"), expected):
        assert np.array_equal(getattr(result, name), want), name


def _reference_arrivals(result, threshold):
    out = np.full(result.network.n_patches, np.inf)
    for patch in range(result.network.n_patches):
        hits = np.nonzero(result.i[:, patch] >= threshold)[0]
        if hits.size:
            out[patch] = result.times[hits[0]]
    return out


@given(scenarios(), st.sampled_from([0.0, 1.0, 10.0, 1e9]))
@settings(max_examples=30, deadline=None)
def test_arrival_times_match_per_patch_scan(case, threshold):
    network, params, seeds, t_max, dt = case
    result = simulate_seir(network, params, seeds, t_max_days=t_max, dt_days=dt)
    assert np.array_equal(
        result.arrival_times(threshold), _reference_arrivals(result, threshold)
    )
