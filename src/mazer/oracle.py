"""Brute-force coupled-channel solver used as an independent referee.

Solves the two stationary channel equations in the {|a,n>, |b,n+1>}
subspace for an arbitrary piecewise-constant cavity mode u(z):

    -psi_a'' + (n+1)^(1/2) u(z) psi_b            = k^2 psi_a
    -psi_b'' + (n+1)^(1/2) u(z) psi_a + (d/g) psi_b = k^2 psi_b

(all in units of kappa).  Each constant-u segment is propagated exactly in
its local dressed eigenbasis; outgoing/decaying boundary conditions give a
dense linear system for the reflection and transmission amplitudes.  The
solver never uses the closed-form transmission formulas, so agreement with
them is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, SystemParams

# Boundary systems worse conditioned than this are reported as failures.
CONDITION_LIMIT = 1e13


def _sqrt_upper(x: float) -> complex:
    """Principal square root with the Im >= 0 branch for real radicands.

    Positive radicands give the positive real root; negative ones give a
    positive imaginary root, so evanescent waves exp(i k z) decay.
    """
    if x >= 0.0:
        return complex(math.sqrt(x), 0.0)
    return complex(0.0, math.sqrt(-x))


class OracleSolveError(RuntimeError):
    """Raised when the boundary-matching system is numerically unreliable."""


@dataclass(frozen=True)
class ModeFunction:
    """Piecewise-constant cavity mode profile u(z).

    segments: sequence of (length, value) with lengths in units of 1/kappa
    and 0 <= value <= 1.
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise DomainError("mode function needs at least one segment")
        for length, value in self.segments:
            if length <= 0.0:
                raise DomainError(f"segment length must be > 0, got {length}")
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"segment value must lie in [0, 1], got {value}")

    @classmethod
    def mesa(cls, coupling_length: float) -> "ModeFunction":
        """u(z) = 1 over a single segment of length kappa*L."""
        return cls(segments=((float(coupling_length), 1.0),))

    @classmethod
    def from_profile(
        cls, profile: Sequence[tuple[float, float]]
    ) -> "ModeFunction":
        return cls(segments=tuple((float(l), float(u)) for l, u in profile))

    @property
    def total_length(self) -> float:
        return sum(length for length, _ in self.segments)

    def refined(self, level: int) -> "ModeFunction":
        """Each segment split into 2**level equal subsegments (same profile)."""
        pieces = []
        for length, value in self.segments:
            nsub = 2**level
            pieces.extend([(length / nsub, value)] * nsub)
        return ModeFunction(segments=tuple(pieces))


@dataclass(frozen=True)
class SMatrixResult:
    """Reflection/transmission amplitudes into |a,n> and |b,n+1>.

    T_b is the transmitted flux k_b/k |t_b|^2 into |b,n+1>, with the
    solver's own k_b; it is 0 when channel b is closed.
    """

    r_a: complex
    r_b: complex
    t_a: complex
    t_b: complex
    T_b: float
    flux_sum: float


def _segment_basis(u: float, s: float, detuning_ratio: float):
    """Eigenvalues and eigenvectors of the local 2x2 channel-coupling matrix."""
    m = np.array([[0.0, s * u], [s * u, detuning_ratio]])
    mu, vec = np.linalg.eigh(m)
    return mu, vec


def solve(mode: ModeFunction, k: float, params: SystemParams) -> SMatrixResult:
    """Scattering amplitudes for an atom incident in |a,n> from the left.

    Unit-amplitude incoming wave in channel a; outgoing-only (or decaying)
    waves on both sides.  Inside each segment the solution is written on
    exponentials anchored at the segment edges, so evanescent factors never
    exceed unity and the system stays well conditioned for long cavities.
    """
    if not k > 0.0:
        raise DomainError(f"incident wavenumber must be > 0, got {k}")
    s = math.sqrt(params.photon_number + 1.0)
    kb = _sqrt_upper(k * k - params.detuning_ratio)
    k_out = np.array([complex(k), kb])  # channel wavenumbers outside

    nseg = len(mode.segments)
    nunk = 4 + 4 * nseg  # r_a, r_b, 4 coefficients per segment, t_a, t_b
    A = np.zeros((nunk, nunk), dtype=complex)
    rhs = np.zeros(nunk, dtype=complex)

    seg_data = []
    for length, value in mode.segments:
        mu, vec = _segment_basis(value, s, params.detuning_ratio)
        q = np.array([_sqrt_upper(k * k - m) for m in mu])
        expo = np.exp(1j * q * length)  # decaying for evanescent q
        seg_data.append((vec, q, expo))

    def seg_cols(j: int) -> slice:
        return slice(2 + 4 * j, 6 + 4 * j)

    def seg_edge(j: int, at_right: bool):
        """Value and derivative matrices (2 channels x 4 coefficients)."""
        vec, q, expo = seg_data[j]
        val = np.zeros((2, 4), dtype=complex)
        der = np.zeros((2, 4), dtype=complex)
        for i in range(2):
            v = vec[:, i]
            if at_right:
                fp, fm = expo[i], 1.0  # exp(i q l), exp(-i q (l - l))
                dp, dm = 1j * q[i] * expo[i], -1j * q[i]
            else:
                fp, fm = 1.0, expo[i]
                dp, dm = 1j * q[i], -1j * q[i] * expo[i]
            val[:, 2 * i] = v * fp
            val[:, 2 * i + 1] = v * fm
            der[:, 2 * i] = v * dp
            der[:, 2 * i + 1] = v * dm
        return val, der

    row = 0
    # left boundary: (1 + r_a, r_b) and derivatives match segment 0
    val, der = seg_edge(0, at_right=False)
    for ch in range(2):
        A[row, 0 if ch == 0 else 1] = -1.0 if ch == 0 else -1.0
        A[row, seg_cols(0)] = val[ch]
        rhs[row] = 1.0 if ch == 0 else 0.0
        row += 1
    for ch in range(2):
        A[row, 0 if ch == 0 else 1] = 1j * k_out[ch]  # d/dz of r exp(-i k z)
        A[row, seg_cols(0)] = der[ch]
        rhs[row] = 1j * k_out[0] if ch == 0 else 0.0
        row += 1

    # interior interfaces
    for j in range(nseg - 1):
        val_l, der_l = seg_edge(j, at_right=True)
        val_r, der_r = seg_edge(j + 1, at_right=False)
        for ch in range(2):
            A[row, seg_cols(j)] = val_l[ch]
            A[row, seg_cols(j + 1)] = -val_r[ch]
            row += 1
        for ch in range(2):
            A[row, seg_cols(j)] = der_l[ch]
            A[row, seg_cols(j + 1)] = -der_r[ch]
            row += 1

    # right boundary: segment N-1 matches (t_a, t_b) exp(i k_out (z - z_R))
    val, der = seg_edge(nseg - 1, at_right=True)
    tcol = {0: nunk - 2, 1: nunk - 1}
    for ch in range(2):
        A[row, seg_cols(nseg - 1)] = val[ch]
        A[row, tcol[ch]] = -1.0
        row += 1
    for ch in range(2):
        A[row, seg_cols(nseg - 1)] = der[ch]
        A[row, tcol[ch]] = -1j * k_out[ch]
        row += 1

    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise OracleSolveError(
            f"ill-conditioned boundary system (cond={cond:.3e}) at "
            f"k={k}, params={params}"
        )
    x = np.linalg.solve(A, rhs)
    r_a, r_b = complex(x[0]), complex(x[1])
    t_a, t_b = complex(x[-2]), complex(x[-1])
    flux_b = (kb.real / k) * (abs(r_b) ** 2 + abs(t_b) ** 2)
    flux_sum = abs(r_a) ** 2 + abs(t_a) ** 2 + flux_b
    T_b = (kb.real / k) * abs(t_b) ** 2 if kb.real > 0.0 else 0.0
    return SMatrixResult(
        r_a=r_a, r_b=r_b, t_a=t_a, t_b=t_b, T_b=T_b, flux_sum=flux_sum
    )


def convergence_check(
    mode: ModeFunction, k: float, params: SystemParams, refinements: int
) -> list[float]:
    """|t_a|^2 with each segment split into 2^j subsegments, j = 0..refinements.

    Splitting a constant segment is exact, so all levels must agree; this is
    a self-test of the propagation and matching machinery.
    """
    if refinements < 1:
        raise DomainError(f"refinements must be >= 1, got {refinements}")
    out = []
    for level in range(refinements + 1):
        res = solve(mode.refined(level), k, params)
        out.append(abs(res.t_a) ** 2)
    return out
