"""Dimensionless system parameters, dressed-state geometry and channel wavenumbers.

Conventions used everywhere in this package:

* wavenumbers are expressed in units of kappa = sqrt(2 m g / hbar),
* the detuning delta = omega - omega_0 is expressed in units of g,
* the cavity length enters only through the product kappa * L.

The two scattering channels are |a, n> (excited atom, n photons) and
|b, n+1> (ground-state atom, one emitted photon).  The |b, n+1> channel
lies an energy hbar*delta above |a, n>, so its asymptotic wavenumber is
k_b = sqrt(k^2 - delta/g); the channel is open only for k^2 > delta/g.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property


class DomainError(ValueError):
    """Raised when an argument lies outside the physically meaningful domain."""


def _sqrt_upper(x: float) -> complex:
    """Principal square root with the Im >= 0 branch for real radicands.

    Positive radicands give the positive real root; negative ones give a
    positive imaginary root, so evanescent waves exp(i k z) decay.
    """
    if x >= 0.0:
        return complex(math.sqrt(x), 0.0)
    return complex(0.0, math.sqrt(-x))


def _sqrt_upper_c(z: complex) -> complex:
    """Principal square root flipped onto the Im >= 0 half plane."""
    w = cmath.sqrt(z)
    if w.imag < 0.0:
        w = -w
    return w


def _flux_b(k: float, k_b: complex, t_b: complex) -> float:
    """Transmitted flux k_b/k |t_b|^2 into |b,n+1>; 0 unless k_b is real and > 0."""
    if k_b.real > 0.0 and k_b.imag == 0.0:
        return (k_b.real / k) * abs(t_b) ** 2
    return 0.0


def dressed_angle(detuning_ratio: float, photon_number: int) -> float:
    """Mixing angle theta_n of the dressed-state basis, in (0, pi/2).

    Defined by cot(2 theta_n) = -(delta/g) / (Omega_n/g) with
    Omega_n/g = 2 sqrt(n+1).  Computed through atan2 so the angle stays
    accurate in the theta -> 0 and theta -> pi/2 limits.
    """
    if photon_number < 0:
        raise DomainError(f"photon_number must be >= 0, got {photon_number}")
    omega_ratio = 2.0 * math.sqrt(photon_number + 1.0)
    # 2*theta in (0, pi) with cot(2*theta) = -delta / Omega
    return 0.5 * math.atan2(omega_ratio, -detuning_ratio)


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless definition of one atom-cavity scattering problem.

    detuning_ratio:  delta/g
    coupling_length: kappa * L  (> 0)
    photon_number:   cavity Fock state n seen by the excited atom (>= 0)
    """

    detuning_ratio: float
    coupling_length: float
    photon_number: int

    def __post_init__(self) -> None:
        if self.coupling_length <= 0.0:
            raise DomainError(
                f"coupling_length must be > 0, got {self.coupling_length}"
            )
        if self.photon_number < 0:
            raise DomainError(
                f"photon_number must be >= 0, got {self.photon_number}"
            )

    @cached_property
    def rabi_ratio(self) -> float:
        """Omega_n/g = 2 sqrt(n+1)."""
        return 2.0 * math.sqrt(self.photon_number + 1.0)

    @cached_property
    def kappa_n(self) -> float:
        """kappa_n / kappa = (n+1)^(1/4)."""
        return (self.photon_number + 1.0) ** 0.25

    @cached_property
    def theta(self) -> float:
        """Dressed-state mixing angle theta_n."""
        return dressed_angle(self.detuning_ratio, self.photon_number)

    @cached_property
    def cot_theta(self) -> float:
        return 1.0 / math.tan(self.theta)

    @cached_property
    def tan_theta(self) -> float:
        return math.tan(self.theta)


@dataclass(frozen=True)
class ChannelWavenumbers:
    """Asymptotic and intracavity wavenumbers for one incident k (units of kappa).

    k_b:     lower-state outgoing wavenumber, k_b^2 = k^2 - delta/g
    k_plus:  upper dressed channel, k_plus^2 = k^2 - kappa_n^2 tan(theta_n)
    k_minus: lower dressed channel, k_minus^2 = k^2 + kappa_n^2 cot(theta_n) > 0
    """

    k: float
    k_b: complex
    k_plus: complex
    k_minus: float
    b_channel_open: bool


def channel_wavenumbers(k: float, params: SystemParams) -> ChannelWavenumbers:
    """All channel wavenumbers for incident wavenumber k (units of kappa)."""
    if k <= 0.0:
        raise DomainError(f"incident wavenumber must be > 0, got {k}")
    s = math.sqrt(params.photon_number + 1.0)  # kappa_n^2 in kappa^2 units
    kb2 = k * k - params.detuning_ratio
    kp2 = k * k - s * params.tan_theta
    km2 = k * k + s * params.cot_theta
    return ChannelWavenumbers(
        k=k,
        k_b=_sqrt_upper(kb2),
        k_plus=_sqrt_upper(kp2),
        k_minus=math.sqrt(km2),
        b_channel_open=kb2 > 0.0,
    )
