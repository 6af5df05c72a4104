"""Intervention planning on the fitted mobility network.

What is a Twitter-fitted mobility model *for*?  Deciding where to act.
This module evaluates pre-outbreak vaccination allocations and compares
allocation strategies:

* ``by_population`` — doses proportional to patch population (the
  mobility-blind baseline);
* ``by_centrality`` — doses weighted by mobility centrality (total
  travel throughput), protecting the network's hubs;
* ``seed_ring`` — everything into the seed patch and its strongest
  neighbours (ring containment).

Vaccination moves individuals S → R before the outbreak; strategies are
scored by final attack rate and arrival delay under the deterministic
metapopulation model.

The second half of the module is the *composable* intervention layer
the scenario engine builds on: each intervention is a frozen dataclass
with a phase (network rewiring → immunisation → variant seeding) and a
pure ``apply`` that transforms an :class:`EpidemicSetting`.
:func:`apply_stack` canonicalises the declared order within each phase,
so permuting a stack is bitwise-irrelevant by construction; compositions
that are *not* well defined (the same intervention twice, stacked doses
past a patch's population, two variant imports into one city) raise
:class:`InterventionStackError` instead of silently picking a meaning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Mapping

import numpy as np

from repro.epidemic.effective import global_travel_scaling, restrict_travel
from repro.epidemic.network import MobilityNetwork
from repro.epidemic.seir import SEIRParams, SEIRResult, simulate_seir


def allocate_by_population(network: MobilityNetwork, total_doses: float) -> np.ndarray:
    """Doses proportional to patch population (capped at the population)."""
    if total_doses < 0:
        raise ValueError("doses must be non-negative")
    share = network.populations / network.populations.sum()
    return np.minimum(total_doses * share, network.populations)


def allocate_by_centrality(network: MobilityNetwork, total_doses: float) -> np.ndarray:
    """Doses proportional to mobility throughput (in + out person-trips).

    Hubs spread disease between regions; protecting them buys the rest
    of the network time even when their populations are modest.
    """
    if total_doses < 0:
        raise ValueError("doses must be non-negative")
    outgoing = network.rates.sum(axis=1) * network.populations
    incoming = network.rates.T @ network.populations
    throughput = outgoing + incoming
    if throughput.sum() == 0:
        return allocate_by_population(network, total_doses)
    share = throughput / throughput.sum()
    return np.minimum(total_doses * share, network.populations)


def allocate_seed_ring(
    network: MobilityNetwork, total_doses: float, seed_patch: int | str, ring_size: int = 3
) -> np.ndarray:
    """Doses into the seed patch and its strongest-coupled neighbours."""
    if total_doses < 0:
        raise ValueError("doses must be non-negative")
    if ring_size < 0:
        raise ValueError("ring_size must be non-negative")
    seed = (
        network.names.index(seed_patch) if isinstance(seed_patch, str) else int(seed_patch)
    )
    coupling = network.rates[seed] * network.populations[seed] + (
        network.rates[:, seed] * network.populations
    )
    coupling[seed] = np.inf  # the seed itself always belongs to the ring
    ring = np.argsort(coupling)[::-1][: ring_size + 1]
    doses = np.zeros(network.n_patches)
    ring_populations = network.populations[ring]
    share = ring_populations / ring_populations.sum()
    doses[ring] = np.minimum(total_doses * share, ring_populations)
    return doses


@dataclass(frozen=True)
class InterventionOutcome:
    """One strategy's epidemic outcome."""

    strategy: str
    doses: np.ndarray
    total_infected: float
    attack_rate: float
    mean_arrival_day: float


def evaluate_vaccination(
    network: MobilityNetwork,
    params: SEIRParams,
    seed_patch: int | str,
    doses_by_strategy: dict[str, np.ndarray],
    initial_cases: float = 10.0,
    t_max_days: float = 365.0,
    arrival_threshold: float = 10.0,
) -> list[InterventionOutcome]:
    """Simulate the outbreak under each allocation and score it.

    Vaccinated individuals start in R; the comparison list is sorted by
    total infections, best strategy first.  Include an all-zeros
    allocation to get the no-intervention baseline in the same table.
    """
    seed = (
        network.names.index(seed_patch) if isinstance(seed_patch, str) else int(seed_patch)
    )
    outcomes = []
    for strategy, doses in doses_by_strategy.items():
        doses = np.asarray(doses, dtype=np.float64)
        if doses.shape != (network.n_patches,):
            raise ValueError(f"{strategy}: doses must have one entry per patch")
        if np.any(doses < 0) or np.any(doses > network.populations):
            raise ValueError(f"{strategy}: doses outside [0, population]")
        # Immunised individuals are removed up front: shrink the
        # susceptible pool by simulating with reduced populations, then
        # add the vaccinated back as recovered for accounting.
        result = simulate_with_immunity(
            network, params, {seed: initial_cases}, doses, t_max_days=t_max_days
        )
        arrivals = result.arrival_times(threshold=arrival_threshold)
        finite = np.isfinite(arrivals)
        finite[seed] = False
        total_infected = float(result.r[-1].sum() + result.i[-1].sum() + result.e[-1].sum())
        outcomes.append(
            InterventionOutcome(
                strategy=strategy,
                doses=doses,
                total_infected=total_infected,
                attack_rate=total_infected / float(network.populations.sum()),
                mean_arrival_day=(
                    float(arrivals[finite].mean()) if finite.any() else float("inf")
                ),
            )
        )
    return sorted(outcomes, key=lambda o: o.total_infected)


def simulate_with_immunity(
    network: MobilityNetwork,
    params: SEIRParams,
    initial_infected: Mapping[int | str, float],
    doses: np.ndarray,
    t_max_days: float = 365.0,
    dt_days: float = 0.25,
) -> SEIRResult:
    """Run SEIR with part of each patch immunised from day zero.

    Implemented by shrinking the effective susceptible population: the
    vaccinated neither catch nor transmit, so they can be removed from
    the mixing population entirely.  An all-zero ``doses`` array runs on
    the original network object, so a no-op immunisation is bitwise
    identical to no immunisation at all.
    """
    doses = np.asarray(doses, dtype=np.float64)
    if doses.shape != (network.n_patches,):
        raise ValueError("doses must have one entry per patch")
    if np.any(doses < 0) or np.any(doses > network.populations):
        raise ValueError("doses outside [0, population]")
    if np.any(doses != 0):
        network = MobilityNetwork(
            names=network.names,
            populations=np.maximum(network.populations - doses, 1.0),
            rates=network.rates.copy(),
        )
    return simulate_seir(
        network, params, dict(initial_infected), t_max_days=t_max_days, dt_days=dt_days
    )


#: Phase ordering for composable interventions.  Network rewiring runs
#: first (it changes who mixes with whom), immunisation second (doses
#: are allocated on the *post-restriction* network, matching how a
#: campaign would target the world it actually operates in), variant
#: seeding last (it only edits transmission parameters and seeds).
PHASE_NETWORK = 0
PHASE_IMMUNITY = 1
PHASE_SEEDING = 2


class InterventionError(ValueError):
    """A single intervention's parameters are invalid."""


class InterventionStackError(InterventionError):
    """A *combination* of interventions has no defined meaning."""


@dataclass(frozen=True)
class EpidemicSetting:
    """Everything an intervention can act on, as one immutable value.

    ``doses`` is ``None`` until an immunisation intervention allocates
    some — keeping the distinction lets the simulation step skip the
    immunity wrapper entirely, so a dose-free stack reproduces the
    un-intervened baseline bitwise.
    """

    network: MobilityNetwork
    params: SEIRParams
    distances_km: np.ndarray | None = None
    doses: np.ndarray | None = None
    extra_seeds: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class Intervention:
    """Base class: a pure, declarative transform of an EpidemicSetting.

    Subclasses are frozen dataclasses whose fields fully determine the
    transform, so :meth:`spec` round-trips through JSON and
    :meth:`canonical_key` gives a stable total order for stacking.
    """

    kind: ClassVar[str] = ""
    phase: ClassVar[int] = PHASE_NETWORK

    def apply(self, setting: EpidemicSetting) -> EpidemicSetting:
        """The transformed setting (the input is never mutated)."""
        raise NotImplementedError

    def spec(self) -> dict:
        """JSON-able declarative form, ``{"kind": ..., <fields>}``."""
        payload: dict = {"kind": self.kind}
        for field in fields(self):
            value = getattr(self, field.name)
            payload[field.name] = list(value) if isinstance(value, tuple) else value
        return payload

    def canonical_key(self) -> str:
        """Deterministic sort key: interventions with equal keys are equal."""
        return json.dumps(self.spec(), sort_keys=True)


@dataclass(frozen=True)
class MobilityRestriction(Intervention):
    """Scale travel to/from named patches (``factor=0`` = quarantine)."""

    patches: tuple[str, ...]
    factor: float

    kind: ClassVar[str] = "mobility_restriction"
    phase: ClassVar[int] = PHASE_NETWORK

    def __post_init__(self) -> None:
        object.__setattr__(self, "patches", tuple(self.patches))
        if not self.patches:
            raise InterventionError("mobility_restriction: no patches selected")
        if not (0.0 <= self.factor <= 1.0):
            raise InterventionError(
                f"mobility_restriction: factor must be in [0, 1], got {self.factor}"
            )

    def apply(self, setting: EpidemicSetting) -> EpidemicSetting:
        return replace(
            setting, network=restrict_travel(setting.network, self.patches, self.factor)
        )


@dataclass(frozen=True)
class TravelScaling(Intervention):
    """Scale *all* travel rates by one factor (border-closure dial)."""

    factor: float

    kind: ClassVar[str] = "travel_scaling"
    phase: ClassVar[int] = PHASE_NETWORK

    def __post_init__(self) -> None:
        if self.factor < 0:
            raise InterventionError(
                f"travel_scaling: factor must be non-negative, got {self.factor}"
            )

    def apply(self, setting: EpidemicSetting) -> EpidemicSetting:
        return replace(
            setting, network=global_travel_scaling(setting.network, self.factor)
        )


@dataclass(frozen=True)
class ModeShift(Intervention):
    """Rescale long-haul vs short-haul travel differently.

    Models a modal substitution (flights suppressed, local trips up):
    rates on links longer than ``threshold_km`` are scaled by
    ``long_factor``, the rest by ``short_factor``.  Requires the setting
    to carry a centre-distance matrix.
    """

    threshold_km: float
    long_factor: float
    short_factor: float = 1.0

    kind: ClassVar[str] = "mode_shift"
    phase: ClassVar[int] = PHASE_NETWORK

    def __post_init__(self) -> None:
        if self.threshold_km <= 0:
            raise InterventionError(
                f"mode_shift: threshold_km must be positive, got {self.threshold_km}"
            )
        if self.long_factor < 0 or self.short_factor < 0:
            raise InterventionError("mode_shift: factors must be non-negative")

    def apply(self, setting: EpidemicSetting) -> EpidemicSetting:
        if setting.distances_km is None:
            raise InterventionError(
                "mode_shift requires a setting with a distance matrix"
            )
        factors = np.where(
            setting.distances_km > self.threshold_km, self.long_factor, self.short_factor
        )
        np.fill_diagonal(factors, 0.0)  # keep the zero diagonal exact
        network = MobilityNetwork(
            names=setting.network.names,
            populations=setting.network.populations.copy(),
            rates=setting.network.rates * factors,
        )
        return replace(setting, network=network)


@dataclass(frozen=True)
class Vaccination(Intervention):
    """Allocate doses pre-outbreak with one of the named strategies."""

    strategy: str
    dose_fraction: float
    seed_city: str | None = None
    ring_size: int = 3

    kind: ClassVar[str] = "vaccination"
    phase: ClassVar[int] = PHASE_IMMUNITY

    STRATEGIES: ClassVar[tuple[str, ...]] = ("by_population", "by_centrality", "seed_ring")

    def __post_init__(self) -> None:
        if self.strategy not in self.STRATEGIES:
            raise InterventionError(
                f"vaccination: unknown strategy {self.strategy!r}; "
                f"expected one of {', '.join(self.STRATEGIES)}"
            )
        if not (0.0 <= self.dose_fraction <= 1.0):
            raise InterventionError(
                f"vaccination: dose_fraction must be in [0, 1], got {self.dose_fraction}"
            )
        if self.strategy == "seed_ring" and self.seed_city is None:
            raise InterventionError("vaccination: seed_ring requires seed_city")

    def allocate(self, setting: EpidemicSetting) -> np.ndarray:
        """The dose vector this intervention adds, on the current network."""
        network = setting.network
        total_doses = self.dose_fraction * float(network.populations.sum())
        if self.strategy == "by_population":
            return allocate_by_population(network, total_doses)
        if self.strategy == "by_centrality":
            return allocate_by_centrality(network, total_doses)
        assert self.seed_city is not None
        return allocate_seed_ring(network, total_doses, self.seed_city, self.ring_size)

    def apply(self, setting: EpidemicSetting) -> EpidemicSetting:
        allocated = self.allocate(setting)
        doses = allocated if setting.doses is None else setting.doses + allocated
        over = doses > setting.network.populations
        if np.any(over):
            worst = setting.network.names[int(np.argmax(over))]
            raise InterventionStackError(
                "stacked vaccinations exceed the population of patch "
                f"{worst!r}; dosing past full immunisation is undefined"
            )
        return replace(setting, doses=doses)


@dataclass(frozen=True)
class VariantSeeding(Intervention):
    """Import a (possibly more transmissible) variant into one city.

    Scales beta by ``beta_multiplier`` and adds ``cases`` initial
    infections in ``city`` on top of the scenario's own seed.
    """

    city: str
    cases: float
    beta_multiplier: float = 1.0

    kind: ClassVar[str] = "variant_seeding"
    phase: ClassVar[int] = PHASE_SEEDING

    def __post_init__(self) -> None:
        if self.cases <= 0:
            raise InterventionError(
                f"variant_seeding: cases must be positive, got {self.cases}"
            )
        if self.beta_multiplier <= 0:
            raise InterventionError(
                f"variant_seeding: beta_multiplier must be positive, "
                f"got {self.beta_multiplier}"
            )

    def apply(self, setting: EpidemicSetting) -> EpidemicSetting:
        params = SEIRParams(
            beta=setting.params.beta * self.beta_multiplier,
            sigma=setting.params.sigma,
            gamma=setting.params.gamma,
        )
        return replace(
            setting,
            params=params,
            extra_seeds=setting.extra_seeds + ((self.city, float(self.cases)),),
        )


#: Registry of composable intervention kinds, for dict round-tripping.
INTERVENTION_KINDS: dict[str, type[Intervention]] = {
    cls.kind: cls
    for cls in (MobilityRestriction, TravelScaling, ModeShift, Vaccination, VariantSeeding)
}


def intervention_from_dict(payload: Mapping) -> Intervention:
    """Build an intervention from its declarative ``spec()`` form."""
    if not isinstance(payload, Mapping):
        raise InterventionError(f"intervention spec must be a mapping, got {payload!r}")
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in INTERVENTION_KINDS:
        raise InterventionError(
            f"unknown intervention kind {kind!r}; "
            f"expected one of {', '.join(sorted(INTERVENTION_KINDS))}"
        )
    cls = INTERVENTION_KINDS[kind]
    if "patches" in data and isinstance(data["patches"], list):
        data["patches"] = tuple(data["patches"])
    try:
        return cls(**data)
    except TypeError as exc:
        raise InterventionError(f"{kind}: {exc}") from exc


def stack_order(interventions: tuple[Intervention, ...]) -> tuple[Intervention, ...]:
    """The canonical application order: by phase, then canonical key.

    Sorting makes declared order irrelevant *bitwise*: any permutation
    of the same stack applies in exactly the same sequence, so even
    non-associative float effects (summed dose vectors, chained rate
    scalings) come out identical.
    """
    return tuple(sorted(interventions, key=lambda i: (i.phase, i.canonical_key())))


def validate_stack(
    interventions: tuple[Intervention, ...],
) -> tuple[Intervention, ...]:
    """Canonical order with the *static* composition rules enforced.

    Raises :class:`InterventionStackError` for compositions with no
    defined meaning that are detectable without a network: the identical
    intervention listed twice, or two variant imports into the same
    city.  (The stacked-dose bound is checked at apply time, when patch
    populations are known.)
    """
    ordered = stack_order(tuple(interventions))
    keys = [i.canonical_key() for i in ordered]
    for first, second in zip(keys, keys[1:]):
        if first == second:
            raise InterventionStackError(
                f"intervention listed twice: {first}; "
                "stacking an intervention with itself is undefined"
            )
    seeded_cities = [i.city for i in ordered if isinstance(i, VariantSeeding)]
    duplicates = {c for c in seeded_cities if seeded_cities.count(c) > 1}
    if duplicates:
        raise InterventionStackError(
            "multiple variant seedings into "
            f"{', '.join(sorted(duplicates))}: seeding the same city twice is undefined"
        )
    return ordered


def apply_stack(
    setting: EpidemicSetting, interventions: tuple[Intervention, ...]
) -> EpidemicSetting:
    """Apply a whole intervention stack in canonical order.

    Raises :class:`InterventionStackError` for compositions with no
    defined meaning: the identical intervention listed twice, stacked
    doses exceeding a patch population, or two variant imports into the
    same city.
    """
    for intervention in validate_stack(tuple(interventions)):
        setting = intervention.apply(setting)
    return setting


def simulate_setting(
    setting: EpidemicSetting,
    initial_infected: Mapping[int | str, float],
    t_max_days: float = 365.0,
    dt_days: float = 0.25,
) -> SEIRResult:
    """Simulate an (already intervened) setting from the given seeds.

    The setting's ``extra_seeds`` merge into ``initial_infected``; doses
    (when present and non-zero) shrink the susceptible pool exactly as
    :func:`simulate_with_immunity` does.
    """
    seeds: dict[int | str, float] = dict(initial_infected)
    for city, cases in setting.extra_seeds:
        seeds[city] = seeds.get(city, 0.0) + cases
    if setting.doses is not None:
        return simulate_with_immunity(
            setting.network,
            setting.params,
            seeds,
            setting.doses,
            t_max_days=t_max_days,
            dt_days=dt_days,
        )
    return simulate_seir(
        setting.network, setting.params, seeds, t_max_days=t_max_days, dt_days=dt_days
    )


def render_outcomes(outcomes: list[InterventionOutcome]) -> str:
    """The strategy comparison as a table (best first)."""
    lines = [
        "Vaccination strategy comparison (best first):",
        f"  {'strategy':<18s}{'infected':>14s}{'attack rate':>13s}{'mean arrival':>14s}",
    ]
    for outcome in outcomes:
        arrival = (
            f"{outcome.mean_arrival_day:10.1f} d"
            if np.isfinite(outcome.mean_arrival_day)
            else "     never"
        )
        lines.append(
            f"  {outcome.strategy:<18s}{outcome.total_infected:>14,.0f}"
            f"{outcome.attack_rate:>12.1%}{arrival:>14s}"
        )
    return "\n".join(lines)
