"""Metapopulation epidemic modelling on fitted mobility networks.

The paper's introduction motivates the whole study with disease-spread
prediction, and its conclusion promises "a framework for the prediction
of disease spread" built on the fitted mobility models.  This subpackage
implements that framework:

``network``
    Build a patch-coupling mobility network from observed OD flows or
    from any fitted mobility model.
``seir``
    Deterministic metapopulation SEIR/SIR dynamics (RK4 integration)
    with per-capita travel coupling.
``simulation``
    Stochastic chain-binomial simulation, outbreak seeding, arrival-time
    measurement and multi-run summaries.
"""

from repro.epidemic.effective import global_travel_scaling, restrict_travel
from repro.epidemic.inference import SirFit, fit_sir_curve
from repro.epidemic.interventions import (
    EpidemicSetting,
    Intervention,
    InterventionError,
    InterventionStackError,
    MobilityRestriction,
    ModeShift,
    TravelScaling,
    Vaccination,
    VariantSeeding,
    allocate_by_centrality,
    allocate_by_population,
    allocate_seed_ring,
    apply_stack,
    evaluate_vaccination,
    intervention_from_dict,
    simulate_setting,
    simulate_with_immunity,
    stack_order,
    validate_stack,
)
from repro.epidemic.network import MobilityNetwork, network_from_model
from repro.epidemic.seir import SEIRParams, SEIRResult, simulate_seir
from repro.epidemic.simulation import (
    OutbreakSummary,
    StochasticResult,
    arrival_times,
    simulate_stochastic_sir,
)

__all__ = [
    "EpidemicSetting",
    "Intervention",
    "InterventionError",
    "InterventionStackError",
    "MobilityNetwork",
    "MobilityRestriction",
    "ModeShift",
    "OutbreakSummary",
    "SEIRParams",
    "SEIRResult",
    "SirFit",
    "StochasticResult",
    "TravelScaling",
    "Vaccination",
    "VariantSeeding",
    "allocate_by_centrality",
    "allocate_by_population",
    "allocate_seed_ring",
    "apply_stack",
    "arrival_times",
    "evaluate_vaccination",
    "intervention_from_dict",
    "simulate_setting",
    "simulate_with_immunity",
    "stack_order",
    "validate_stack",
    "fit_sir_curve",
    "global_travel_scaling",
    "network_from_model",
    "restrict_travel",
    "simulate_seir",
    "simulate_stochastic_sir",
]
