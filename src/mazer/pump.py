"""Micromaser photon-field statistics driven by the ultracold atomic beam.

The induced-emission probability of a single traversing atom
(`ultracold.p_em_ultracold`) averaged over the incident velocity
distribution, and the stationary photon-number distribution that the
pumped, damped cavity settles into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ._qagp import qagp
from .core import DomainError, SystemParams
from .ultracold import _p_em_array, catalog_in_window

if TYPE_CHECKING:  # pragma: no cover
    from .selection import VelocityDistribution

QUAD_ABS_TOL = 1e-8


class ConfigurationError(RuntimeError):
    """Raised when the pump configuration cannot yield a stationary state."""


@dataclass(frozen=True)
class PumpParams:
    """Thermal photon number n_b, pump ratio r/C, and truncation size."""

    thermal_photons: float
    pump_ratio: float
    truncation: int = 64

    def __post_init__(self) -> None:
        if not (self.thermal_photons >= 0.0 and math.isfinite(self.thermal_photons)):
            raise DomainError(
                f"thermal_photons must be finite and >= 0, got {self.thermal_photons}"
            )
        if not (self.pump_ratio >= 0.0 and math.isfinite(self.pump_ratio)):
            raise DomainError(
                f"pump_ratio must be finite and >= 0, got {self.pump_ratio}"
            )
        if self.truncation < 1:
            raise DomainError(f"truncation must be >= 1, got {self.truncation}")


@dataclass(frozen=True)
class PhotonDistribution:
    """Stationary photon-number probabilities P(n), n = 0..N_max."""

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(0.0 <= p <= 1.0 for p in self.probabilities):
            raise DomainError("photon probabilities must lie in [0, 1]")
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"photon probabilities must sum to 1, got {total}")

    @property
    def n_max(self) -> int:
        return len(self.probabilities) - 1

    def mean(self) -> float:
        return math.fsum(n * p for n, p in enumerate(self.probabilities))


def mean_p_em(
    n: int,
    initial: "VelocityDistribution",
    params_base: SystemParams,
) -> float:
    """Beam-averaged induced-emission probability for cavity photon number n.

    Integrates P_em(n, k) P_i(k) dk over the support of the initial
    distribution with breakpoints seeded at every catalogued resonance;
    the transmission peaks are orders of magnitude narrower than the beam
    distribution and plain adaptive quadrature walks straight over them.
    P_em is `p_em_ultracold`, the whole lower-state flux, transmitted plus
    reflected.  Raises ArithmeticError if the quadrature stops at its
    subdivision limit or returns a non-finite value.
    """
    norm = initial.integral()
    if abs(norm - 1.0) > 1e-6:
        raise DomainError(
            f"initial velocity distribution must be normalized, integral={norm}"
        )
    params = SystemParams(
        params_base.detuning_ratio, params_base.coupling_length, n
    )

    def integrand(k: np.ndarray) -> np.ndarray:
        w = initial.density_at(k)
        inside = w > 0.0
        out = np.zeros_like(k)
        out[inside] = w[inside] * _p_em_array(k[inside], params)
        return out

    lo = max(float(initial.grid[0]), 1e-12)
    hi = float(initial.grid[-1])
    points = []
    for peak in catalog_in_window(params, hi, lo):
        points.append(peak.position)
        for off in (-5.0, 5.0):
            q = peak.position + off * max(peak.width, 1e-12)
            if lo < q < hi:
                points.append(q)
    points = sorted(set(points))
    result = qagp(
        integrand,
        lo,
        hi,
        points,
        epsabs=QUAD_ABS_TOL,
        epsrel=1e-10,
        # room to bisect each of the len(points) + 1 intervals at least once
        limit=max(400, 2 * (len(points) + 1)),
    )
    value = result.value
    # ier = 2 (roundoff) is left alone: coarse but valid runs reach it
    if result.ier == 1:
        raise ArithmeticError(
            f"beam-averaged emission probability for n={n} stopped at the "
            f"subdivision limit (ier={result.ier}, abserr={result.abserr:.3g})"
        )
    if not math.isfinite(value):
        raise ArithmeticError(
            f"beam-averaged emission probability for n={n} is {value}"
        )
    return min(max(value, 0.0), 1.0)


def stationary_distribution(
    pump: PumpParams, mean_em: Callable[[int], float]
) -> PhotonDistribution:
    """Stationary photon distribution of the pumped, damped cavity.

    P(n) proportional to prod_{m=1..n} [n_b + (r/C) Pbar_em(m-1)/m]/(n_b+1),
    built in log space and normalized.  The truncation grows until the tail
    probability drops below 1e-12.
    """
    n_b = pump.thermal_photons
    if pump.pump_ratio > 0.0:
        # every pumped ratio is at least the thermal one, so a thermal tail that
        # misses the criterion fails here, before any call of mean_em
        thermal_distribution(n_b, pump.truncation)
    ratio_den = math.log(n_b + 1.0)
    n_max = pump.truncation
    log_ratios: list[float] = []

    def extend(to: int) -> None:
        for m in range(len(log_ratios) + 1, to + 1):
            em = mean_em(m - 1)
            if not math.isfinite(em):
                raise ConfigurationError(
                    f"mean emission probability for n={m - 1} is {em}"
                )
            num = n_b + pump.pump_ratio * em / m
            log_ratios.append(
                (-math.inf if num == 0.0 else math.log(num)) - ratio_den
            )

    while True:
        extend(n_max)
        log_p = np.concatenate([[0.0], np.cumsum(log_ratios[:n_max])])
        log_norm = _logsumexp(log_p)
        probs = np.exp(log_p - log_norm)
        if probs[-1] < 1e-12:
            break
        if n_max >= 1 << 16:
            raise ConfigurationError(
                "stationary distribution does not reach the truncation tail "
                f"criterion by N_max={n_max}; the photon-number product "
                "appears divergent"
            )
        n_max *= 2
    probs = probs / math.fsum(probs)
    return PhotonDistribution(probabilities=tuple(float(p) for p in probs))


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))  # >= x[0] = 0.0
    return m + math.log(float(np.sum(np.exp(x - m))))


def thermal_distribution(n_b: float, n_max: int) -> PhotonDistribution:
    """Pure thermal reference distribution, the r/C -> 0 limit."""
    return stationary_distribution(
        PumpParams(thermal_photons=n_b, pump_ratio=0.0, truncation=n_max),
        lambda n: 0.0,
    )
