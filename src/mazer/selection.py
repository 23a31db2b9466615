"""Beam-level velocity selection by resonance-gated cavity transmission.

Averages the single-atom transmissions over the stationary photon
distribution and applies them to an incident velocity distribution.
Atoms leaving in the lower state have exchanged the detuning energy with
their longitudinal motion, which remaps their wavenumber: an atom detected
at k entered the cavity at k' with k'^2 = k^2 + delta/g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .core import DomainError, SystemParams
from .pump import PhotonDistribution
from .scattering import transmissions
from .ultracold import catalog_in_window

# Populated photon states below this weight contribute nothing visible.
POPULATION_CUTOFF = 1e-9
POINTS_PER_WIDTH = 20


@dataclass(frozen=True)
class VelocityDistribution:
    """Sampled density over k/kappa.

    Initial distributions integrate to 1 (trapezoidal, 1e-6); final
    distributions are deliberately not renormalized and integrate to the
    transmitted fraction.
    """

    grid: tuple[float, ...]
    density: tuple[float, ...]

    def __post_init__(self) -> None:
        g = np.asarray(self.grid)
        if len(self.grid) != len(self.density):
            raise DomainError("grid and density must have equal length")
        if len(self.grid) < 2 or np.any(np.diff(g) <= 0.0) or g[0] < 0.0:
            raise DomainError("grid must be strictly increasing and >= 0")
        if any(d < 0.0 for d in self.density):
            raise DomainError("density values must be nonnegative")

    def integral(self) -> float:
        return float(np.trapezoid(np.asarray(self.density), np.asarray(self.grid)))

    def interpolator(self) -> PchipInterpolator:
        return PchipInterpolator(
            np.asarray(self.grid), np.asarray(self.density), extrapolate=False
        )

    def density_at(self, k) -> np.ndarray:
        """The interpolated density at every point of k; 0 outside the grid."""
        v = self.interpolator()(np.asarray(k, dtype=float))
        return np.where(np.isfinite(v), v, 0.0)


def maxwell_boltzmann_initial(
    k0: float, grid: "np.ndarray | list[float]"
) -> VelocityDistribution:
    """Maxwell-Boltzmann beam density ~ k^2 exp(-k^2/k0^2), normalized.

    k0 is the most probable wavenumber (the mode of this density).
    """
    if k0 <= 0.0:
        raise DomainError(f"k0 must be > 0, got {k0}")
    g = np.asarray(grid, dtype=float)
    dens = g * g * np.exp(-((g / k0) ** 2))
    norm = np.trapezoid(dens, g)
    if norm <= 0.0:
        raise DomainError("grid does not support the distribution")
    dens = dens / norm
    return VelocityDistribution(grid=tuple(g), density=tuple(dens))


def _populated_states(
    dist: PhotonDistribution, params_base: SystemParams
) -> list[tuple[float, SystemParams]]:
    """(P(n), parameters at n) of every state with P(n) >= POPULATION_CUTOFF."""
    return [
        (
            weight,
            SystemParams(params_base.detuning_ratio, params_base.coupling_length, n),
        )
        for n, weight in enumerate(dist.probabilities)
        if weight >= POPULATION_CUTOFF
    ]


def _photon_average(
    states: list[tuple[float, SystemParams]], k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_n P(n) (T_a_n(k), T_b_n(k)), accumulated in order of n."""
    t_a = np.zeros_like(k)
    t_b = np.zeros_like(k)
    for weight, params in states:
        a, b = transmissions(k, params)
        t_a += weight * a
        t_b += weight * b
    return t_a, t_b


def beam_transmissions(
    dist: PhotonDistribution, k, params_base: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """Photon-averaged transmissions (T_a(k), T_b(k)) at every point of the array k.

    T_a(k) = sum_n P(n) T_a_n(k) and likewise for T_b, summed to the
    distribution's truncation; one `transmissions` call per photon state.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise DomainError(f"incident wavenumbers must be > 0, got {k.min()}")
    return _photon_average(_populated_states(dist, params_base), k)


def refined_grid(
    grid: np.ndarray, lo: float, hi: float, params: Iterable[SystemParams]
) -> np.ndarray:
    """Sorted `grid` plus points across +-3 FWHM of each catalogued peak.

    Peaks of every `params` in (lo, hi] count; the result is clipped to [lo, hi].
    """
    offsets = np.linspace(-3.0, 3.0, 6 * POINTS_PER_WIDTH)
    extra = [np.asarray(grid, dtype=float)]
    for p in params:
        for peak in catalog_in_window(p, hi, max(lo, 1e-9)):
            extra.append(peak.position + max(peak.width, 1e-14) * offsets)
    out = np.unique(np.concatenate(extra))
    return out[(out >= lo) & (out <= hi)]


def final_distribution(
    initial: VelocityDistribution,
    dist: PhotonDistribution,
    params_base: SystemParams,
    jacobian: bool = False,
) -> VelocityDistribution:
    """Velocity distribution of the transmitted beam.

    P_f(k) = P_i(k) T_a(k) + P_i(k') T_b(k') where k'^2 = k^2 + delta/g,
    restricted to k^2 > -delta/g; below that only the elastic |a> term
    survives.  With jacobian=True the remapped term additionally carries
    the dk'/dk = k/k' density factor (the printed formula omits it).
    """
    d = params_base.detuning_ratio
    states = _populated_states(dist, params_base)
    grid = refined_grid(
        initial.grid, initial.grid[0], initial.grid[-1], [p for _, p in states]
    )
    incident = grid > 0.0
    k = grid[incident]
    t_a, _ = _photon_average(states, k)
    value = initial.density_at(k) * t_a
    remapped = np.flatnonzero(k * k > -d)
    kp = np.sqrt(k[remapped] * k[remapped] + d)
    pikp = initial.density_at(kp)
    fed = pikp > 0.0  # T_b is needed only where the initial beam has atoms
    remapped, kp, pikp = remapped[fed], kp[fed], pikp[fed]
    _, t_b = _photon_average(states, kp)
    term = pikp * t_b
    if jacobian:
        term *= k[remapped] / kp
    value[remapped] += term
    out = np.zeros_like(grid)
    out[incident] = value
    return VelocityDistribution(grid=tuple(grid), density=tuple(out))
