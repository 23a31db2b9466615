"""Beam-level velocity selection by resonance-gated cavity transmission.

Averages the single-atom transmissions over the stationary photon
distribution and applies them to an incident velocity distribution.
Atoms leaving in the lower state have exchanged the detuning energy with
their longitudinal motion, which remaps their wavenumber: an atom detected
at k entered the cavity at k' with k'^2 = k^2 + delta/g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import DomainError, SystemParams
from .pump import PhotonDistribution
from .scattering import transmissions
from .ultracold import ResonancePeak, _catalogs_in_window

# Populated photon states below this weight contribute nothing visible.
POPULATION_CUTOFF = 1e-9
POINTS_PER_WIDTH = 20


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, set to 0 or 3 m0 where it breaks the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and np.abs(d) > 3.0 * np.abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Monotone cubic Hermite interpolant through (x, y), nan outside [x[0], x[-1]].

    Fritsch & Carlson, SIAM J. Numer. Anal. 17, 238 (1980), with the
    harmonic-mean slopes of Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5,
    300 (1984), and the end slopes of Moler, *Numerical Computing with
    MATLAB*, sec. 3.6.  The slopes, coefficients and evaluation follow
    scipy's `PchipInterpolator(extrapolate=False)` operation for operation,
    so the values are the same floats.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.zeros_like(y)
        if len(x) == 2:
            d[:] = m[0]
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            sign = np.sign(m)
            smooth = (sign[1:] == sign[:-1]) & (m[1:] != 0) & (m[:-1] != 0)
            d[1:-1][smooth] = 1.0 / whmean[smooth]
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._lo, self._hi, self._inner = x[0], x[-1], x[1:-1]
        # rows: on each interval, the coefficients of s^3, s^2 and s, then
        # 0.0 + the constant (the start of scipy's PPoly sum) and the left end
        # x_i, with s = k - x_i
        self._pieces = np.stack(
            (t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1], x[:-1])
        )

    def __call__(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        inside = (k >= self._lo) & (k <= self._hi)
        if not inside.all():
            out = np.full(k.shape, np.nan)
            out[inside] = self(k[inside])
            return out
        # interval i holds x_i <= k < x_{i+1}, and the last one also k = x[-1]
        i = self._inner.searchsorted(k, "right")
        c3, c2, c1, c0, x = self._pieces.take(i, axis=1)
        s = k - x
        s2 = s * s
        # summed in ascending powers, as PPoly does
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s)


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
        if len(self.grid) < 2 or not (
            g[0] >= 0.0 and np.isfinite(g[-1]) and np.all(np.diff(g) > 0.0)
        ):
            raise DomainError("grid must be finite, strictly increasing and >= 0")
        if not all(0.0 <= d < math.inf for d in self.density):
            raise DomainError("density values must be finite and nonnegative")

    def integral(self) -> float:
        return float(np.trapezoid(np.asarray(self.density), np.asarray(self.grid)))

    @cached_property
    def _pchip(self) -> _Pchip:
        return _Pchip(np.asarray(self.grid), np.asarray(self.density))

    def interpolator(self) -> _Pchip:
        """PCHIP through the samples, nan outside the grid; built once."""
        return self._pchip

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
    if not (k0 > 0.0 and math.isfinite(k0)):
        raise DomainError(f"k0 must be finite and > 0, got {k0}")
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


def beam_transmissions(
    dist: PhotonDistribution, k, params_base: SystemParams
) -> tuple[np.ndarray, np.ndarray]:
    """Photon-averaged transmissions (T_a(k), T_b(k)) at every point of the array k.

    T_a(k) = sum_n P(n) T_a_n(k) and likewise for T_b, summed to the
    distribution's truncation; one `transmissions` call per photon state.
    """
    k = np.asarray(k, dtype=float)
    t_a = np.zeros_like(k)
    t_b = np.zeros_like(k)
    for weight, params in _populated_states(dist, params_base):
        a, b = transmissions(k, params)
        t_a += weight * a
        t_b += weight * b
    return t_a, t_b


def refined_grid(
    grid: np.ndarray, lo: float, hi: float, catalogs: Iterable[list[ResonancePeak]]
) -> np.ndarray:
    """Sorted `grid` plus points across +-3 FWHM of each peak of every catalog.

    The catalogs are those of the window (lo, hi], as `_catalogs_in_window`
    builds them; the result is clipped to [lo, hi].
    """
    offsets = np.linspace(-3.0, 3.0, 6 * POINTS_PER_WIDTH)
    extra = [np.asarray(grid, dtype=float)]
    for catalog in catalogs:
        for peak in catalog:
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
    params = [p for _, p in _populated_states(dist, params_base)]
    lo, hi = initial.grid[0], initial.grid[-1]
    # one grid for every photon state: the union of their peaks
    grid = refined_grid(initial.grid, lo, hi, _catalogs_in_window(params, hi, lo))
    incident = grid > 0.0
    k = grid[incident]
    t_a, _ = beam_transmissions(dist, k, params_base)
    value = initial.density_at(k) * t_a
    remapped = np.flatnonzero(k * k > -d)
    kp = np.sqrt(k[remapped] * k[remapped] + d)
    pikp = initial.density_at(kp)
    fed = pikp > 0.0  # T_b is needed only where the initial beam has atoms
    remapped, kp, pikp = remapped[fed], kp[fed], pikp[fed]
    _, t_b = beam_transmissions(dist, kp, params_base)
    term = pikp * t_b
    if jacobian:
        term *= k[remapped] / kp
    value[remapped] += term
    out = np.zeros_like(grid)
    out[incident] = value
    return VelocityDistribution(grid=tuple(grid), density=tuple(out))
