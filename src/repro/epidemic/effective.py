"""Travel interventions as transformed mobility networks.

Each scenario (a per-patch travel restriction, a global scaling of all
travel) returns a new :class:`~repro.epidemic.network.MobilityNetwork`
with rescaled rates.
"""

from __future__ import annotations

from typing import Iterable

from repro.epidemic.network import MobilityNetwork


def restrict_travel(
    network: MobilityNetwork,
    patches: Iterable[int | str],
    factor: float,
) -> MobilityNetwork:
    """A copy of the network with travel to/from ``patches`` scaled down.

    ``factor = 0`` is a full quarantine of those patches; ``factor = 0.1``
    models a 90% travel reduction.  Both inbound and outbound rates are
    scaled; everything else is untouched.
    """
    if not (0.0 <= factor <= 1.0):
        raise ValueError(f"factor must be in [0, 1], got {factor}")
    indices = [
        network.names.index(p) if isinstance(p, str) else int(p) for p in patches
    ]
    if not indices:
        raise ValueError("no patches selected for restriction")
    rates = network.rates.copy()
    for index in indices:
        rates[index, :] *= factor
        rates[:, index] *= factor
    return MobilityNetwork(
        names=network.names, populations=network.populations.copy(), rates=rates
    )


def global_travel_scaling(network: MobilityNetwork, factor: float) -> MobilityNetwork:
    """A copy with *all* travel rates scaled by ``factor`` (>= 0).

    Used to study how outbreak arrival times stretch as countries shut
    down movement while local transmission continues.
    """
    if factor < 0:
        raise ValueError(f"factor must be non-negative, got {factor}")
    return MobilityNetwork(
        names=network.names,
        populations=network.populations.copy(),
        rates=network.rates * factor,
    )

