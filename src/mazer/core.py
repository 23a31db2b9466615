"""Dimensionless system parameters, dressed-state geometry and channel wavenumbers.

The dressed-state quantities of a parameter set are computed in one place,
`_dressed_row`: `SystemParams` takes one row, and `_Dressed.build` a block of
rows stacked over points.

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

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class DomainError(ValueError):
    """Raised when an argument lies outside the physically meaningful domain."""


def _complex_array(re, im) -> np.ndarray:
    """re + i im built from its parts, so inf or nan in one part stays there."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _incident(k) -> float:
    """The scalar entries' incident k: checked > 0 (nan fails), as a Python float."""
    if not k > 0.0:
        raise DomainError(f"incident wavenumber must be > 0, got {k}")
    return float(k)


def _channels(k: np.ndarray, params: SystemParams):
    """(k_b, k_minus, k_plus) at every incident k of the array, on the Im >= 0 branch.

    The one place the channel wavenumbers of `ChannelWavenumbers` are computed.
    The principal root of x + 0j has Im >= 0 (C99 csqrt gives the result's
    imaginary part the sign of the argument's), so no flip is needed.
    """
    return (
        np.sqrt(_complex_array(k * k - params.detuning_ratio, 0.0)),
        np.sqrt(_complex_array(k * k + params.shift_minus, 0.0)),
        np.sqrt(_complex_array(k * k - params.shift_plus, 0.0)),
    )


def _is_open(k_b):
    """Whether channel b propagates; k_b = sqrt(x + 0j) is real when Re k_b > 0."""
    return k_b.real > 0.0


def _flux_b(k, k_b, t_b):
    """Transmitted flux k_b/k |t_b|^2 into |b,n+1>; 0 unless channel b is open."""
    return np.where(_is_open(k_b), (k_b.real / k) * abs(t_b) ** 2, 0.0)


# the dressed-state quantities `_dressed_row` derives from (delta/g, n), in its order
_DERIVED = (
    "rabi_ratio", "kappa_n", "theta", "tan_theta", "cot_theta", "cos2_theta",
    "sin2_theta", "shift_plus", "shift_minus",
)


def _dressed_row(detuning_ratio: float, photon_number: int) -> tuple[float, ...]:
    """The `_DERIVED` quantities of one (delta/g, n); the one place they are computed.

    `SystemParams` takes one row, and `_Dressed.build` a block of rows.  Each
    is a scalar `math` call or Python's **: np.arctan2 and np.tan are an ulp
    off math's on some angles, and the closed form magnifies that near sharp
    resonances.
    """
    n1 = photon_number + 1.0
    root = math.sqrt(n1)
    # 2 theta in (0, pi) with cot(2 theta) = -delta / Omega; atan2 keeps theta
    # accurate in the theta -> 0 and theta -> pi/2 limits
    theta = 0.5 * math.atan2(2.0 * root, -detuning_ratio)
    tan_theta = math.tan(theta)
    cot_theta = 1.0 / tan_theta
    return (
        2.0 * root, n1**0.25, theta, tan_theta, cot_theta,
        math.cos(theta) ** 2, math.sin(theta) ** 2,
        root * tan_theta, root * cot_theta,
    )


def dressed_angle(detuning_ratio: float, photon_number: int) -> float:
    """Mixing angle theta_n of the dressed-state basis, in (0, pi/2).

    Defined by cot(2 theta_n) = -(delta/g) / (Omega_n/g) with
    Omega_n/g = 2 sqrt(n+1); delta/g and n must be valid `SystemParams` inputs.
    """
    SystemParams.check(detuning_ratio, 1.0, photon_number)
    return _dressed_row(detuning_ratio, photon_number)[_DERIVED.index("theta")]


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless definition of one atom-cavity scattering problem.

    detuning_ratio:  delta/g
    coupling_length: kappa * L  (> 0)
    photon_number:   cavity Fock state n seen by the excited atom (>= 0)

    The dressed-state quantities the closed forms read are set once, when
    the parameters are built, by `_dressed_row` (equality, hashing and repr
    use only the inputs):

    rabi_ratio:  Omega_n/g = 2 sqrt(n+1);  kappa_n: kappa_n/kappa = (n+1)^(1/4)
    theta:       mixing angle theta_n (`dressed_angle`), with tan_theta,
                 cot_theta, cos2_theta (cos^2) and sin2_theta (sin^2)
    shift_plus:  k^2 - k_plus^2 = kappa_n^2 tan theta_n
    shift_minus: k_minus^2 - k^2 = kappa_n^2 cot theta_n
    """

    detuning_ratio: float
    coupling_length: float
    photon_number: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.detuning_ratio):
            raise DomainError(
                f"detuning_ratio must be finite, got {self.detuning_ratio}"
            )
        if not (self.coupling_length > 0.0 and math.isfinite(self.coupling_length)):
            raise DomainError(
                f"coupling_length must be finite and > 0, got {self.coupling_length}"
            )
        # nan >= 0 is False, and inf is not an integer
        if not (self.photon_number >= 0 and float(self.photon_number).is_integer()):
            raise DomainError(
                f"photon_number must be an integer >= 0, got {self.photon_number}"
            )
        # the dataclass is frozen, so the derived values go straight into __dict__
        self.__dict__.update(
            zip(_DERIVED, _dressed_row(self.detuning_ratio, self.photon_number))
        )

    @classmethod
    def check(cls, detuning_ratio, coupling_length, photon_number) -> None:
        """Apply the rule of `__post_init__` to arrays of points, broadcast together.

        No `SystemParams` is built while every point is valid; the first
        invalid point, in flat order, raises the `DomainError` its own
        `SystemParams` raises, or one naming the point should the two rules
        ever disagree.
        """
        d, kl, n = map(np.asarray, (detuning_ratio, coupling_length, photon_number))
        valid = (
            np.isfinite(d) & (kl > 0.0) & np.isfinite(kl)
            & np.isfinite(n) & (n >= 0) & (np.floor(n) == n)
        )
        if not valid.all():
            i = np.argmin(valid)
            point = tuple(
                np.broadcast_to(v, valid.shape).flat[i].item() for v in (d, kl, n)
            )
            cls(*point)
            raise DomainError(f"invalid parameters (delta/g, kappa L, n) = {point}")


class _Dressed(NamedTuple):
    """Parameter sets stacked over points: the `SystemParams` inputs and `_DERIVED`.

    Each field is an array with one element per point, holding the value of
    the `SystemParams` attribute of the same name; a single `SystemParams`
    is therefore itself the record of its points.  The closed forms read
    nothing else of their parameters.
    """

    detuning_ratio: np.ndarray
    coupling_length: np.ndarray
    photon_number: np.ndarray
    rabi_ratio: np.ndarray
    kappa_n: np.ndarray
    theta: np.ndarray
    tan_theta: np.ndarray
    cot_theta: np.ndarray
    cos2_theta: np.ndarray
    sin2_theta: np.ndarray
    shift_plus: np.ndarray
    shift_minus: np.ndarray

    @classmethod
    def build(cls, detuning_ratio, coupling_length, photon_number) -> _Dressed:
        """The record of points i = 0, 1, ... with parameters (detuning_ratio[i],
        coupling_length[i], photon_number[i]); a scalar applies to every point.

        No `SystemParams` is built: each row is `_dressed_row`'s, so it holds
        the bits of `SystemParams(detuning_ratio[i], ...)`, and the points are
        checked by `SystemParams.check`.
        """
        d, kl, n = (
            np.array(v)
            for v in np.broadcast_arrays(
                np.asarray(detuning_ratio, dtype=float),
                np.asarray(coupling_length, dtype=float),
                np.asarray(photon_number),
            )
        )
        SystemParams.check(d, kl, n)
        rows = itertools.chain.from_iterable(
            map(_dressed_row, d.tolist(), n.tolist())
        )
        derived = np.fromiter(rows, float, count=d.size * len(_DERIVED))
        return cls(d, kl, n, *derived.reshape(d.size, len(_DERIVED)).T.copy())

    @classmethod
    def stack(cls, params: Sequence[SystemParams]) -> _Dressed:
        """`build` over the inputs of params[i], i = 0, 1, ..."""
        return cls.build(
            [p.detuning_ratio for p in params],
            [p.coupling_length for p in params],
            [p.photon_number for p in params],
        )

    @property
    def size(self) -> int:
        """The number of points."""
        return self.detuning_ratio.size

    def take(self, index) -> _Dressed:
        """The record of the points that index (a slice or an index array) picks."""
        return self._make(f[index] for f in self)

    def params(self, i: int) -> SystemParams:
        """Point i as a `SystemParams` of Python numbers, for a fallback or a message."""
        return SystemParams(
            self.detuning_ratio[i].item(),
            self.coupling_length[i].item(),
            self.photon_number[i].item(),
        )


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
    k = _incident(k)
    k_b, k_minus, k_plus = (v.item() for v in _channels(np.array([k]), params))
    return ChannelWavenumbers(
        k=k,
        k_b=k_b,
        k_plus=k_plus,
        k_minus=k_minus.real,
        b_channel_open=_is_open(k_b),
    )
