"""Quantized-motion transmission of two-level atoms through a detuned micromaser.

All quantities are dimensionless: wavenumbers in units of kappa = sqrt(2 m g / hbar),
detunings in units of the vacuum coupling g, the cavity length as kappa * L.
"""

from .core import (
    ChannelWavenumbers,
    SystemParams,
    channel_wavenumbers,
    dressed_angle,
)
from .scattering import (
    ScatteringResult,
    scatter,
    tau_pm,
    transmissions,
)
from .ultracold import (
    ResonancePeak,
    catalog_in_window,
    hot_cold_boundary,
    loeffler_resonant,
    p_em_ultracold,
    resonance_amplitude,
    resonance_positions,
    transmission_ultracold,
    transmissions_ultracold,
    ultracold_valid,
)
from .oracle import ModeFunction, SMatrixResult, convergence_check, solve, solve_mesa
from .pump import (
    PhotonDistribution,
    PumpParams,
    mean_p_em,
    stationary_distribution,
)
from .selection import (
    VelocityDistribution,
    beam_transmissions,
    final_distribution,
    maxwell_boltzmann_initial,
)

__all__ = [
    "ChannelWavenumbers",
    "ModeFunction",
    "PhotonDistribution",
    "PumpParams",
    "ResonancePeak",
    "SMatrixResult",
    "ScatteringResult",
    "SystemParams",
    "VelocityDistribution",
    "beam_transmissions",
    "catalog_in_window",
    "channel_wavenumbers",
    "convergence_check",
    "dressed_angle",
    "final_distribution",
    "hot_cold_boundary",
    "loeffler_resonant",
    "maxwell_boltzmann_initial",
    "mean_p_em",
    "p_em_ultracold",
    "resonance_amplitude",
    "resonance_positions",
    "scatter",
    "solve",
    "solve_mesa",
    "stationary_distribution",
    "tau_pm",
    "transmission_ultracold",
    "transmissions",
    "transmissions_ultracold",
    "ultracold_valid",
]
