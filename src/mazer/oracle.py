"""Brute-force coupled-channel solver used as an independent referee.

Solves the two stationary channel equations in the {|a,n>, |b,n+1>}
subspace for an arbitrary piecewise-constant cavity mode u(z):

    -psi_a'' + (n+1)^(1/2) u(z) psi_b            = k^2 psi_a
    -psi_b'' + (n+1)^(1/2) u(z) psi_a + (d/g) psi_b = k^2 psi_b

(all in units of kappa).  Each constant-u segment is propagated exactly in
its local dressed eigenbasis; outgoing/decaying boundary conditions give a
dense linear system for the reflection and transmission amplitudes.  A
system whose condition bound ||A||_F ||A^-1||_F exceeds `CONDITION_LIMIT`
is reported instead of solved.  The solver never uses the closed-form
transmission formulas, so agreement with them is a genuine cross-check.
`solve` takes one point; `solve_mesa` takes many mesa-mode points, as
arrays of k, delta/g, kappa L and n, and solves their systems as one stack.
Both read only these inputs of a point, never a derived dressed-state
quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, SystemParams

# Boundary systems whose Frobenius condition bound ||A||_F ||A^-1||_F exceeds
# this are reported as failures; the bound is at least the 2-norm condition.
CONDITION_LIMIT = 1e13


def _sqrt_upper(x: np.ndarray) -> np.ndarray:
    """Principal square root with the Im >= 0 branch for real radicands.

    Positive radicands give the positive real root; negative ones give a
    positive imaginary root, so evanescent waves exp(i k z) decay.
    """
    root = np.sqrt(abs(x))
    return np.where(x >= 0.0, root + 0j, 1j * root)


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
            if not (length > 0.0 and math.isfinite(length)):  # nan fails too
                raise DomainError(f"segment length must be finite and > 0, got {length}")
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
    solver's own k_b; it is 0 when channel b is closed.  `solve` returns
    numbers; `solve_mesa` returns an array over its points in each field.
    """

    r_a: complex
    r_b: complex
    t_a: complex
    t_b: complex
    T_b: float
    flux_sum: float


def _result(k, kb_real, r_a, r_b, t_a, t_b) -> SMatrixResult:
    """The amplitudes with their fluxes; on Python scalars or arrays alike."""
    # kb_real is 0 on a closed channel b, so both b fluxes vanish there
    flux_b = (kb_real / k) * (abs(r_b) ** 2 + abs(t_b) ** 2)
    return SMatrixResult(
        r_a=r_a,
        r_b=r_b,
        t_a=t_a,
        t_b=t_b,
        T_b=(kb_real / k) * abs(t_b) ** 2,
        flux_sum=abs(r_a) ** 2 + abs(t_a) ** 2 + flux_b,
    )


def _condition_bound(A: np.ndarray) -> np.ndarray:
    """kappa_F = ||A||_F ||A^-1||_F of each system in the stack A.

    For n x n systems cond_2 <= kappa_F <= n cond_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 6), so a limit on kappa_F
    rejects every system that the same limit on cond_2 rejects.  An exactly
    singular system, and a norm that overflows, give inf; a system holding
    nan gives nan or inf.
    """
    try:
        inverse = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        # one singular system stops the whole stack; bound each on its own
        if len(A) == 1:
            return np.array([np.inf])
        return np.concatenate([_condition_bound(a[None]) for a in A])
    with np.errstate(over="ignore"):
        return _frobenius(A) * _frobenius(inverse)


def _frobenius(A: np.ndarray) -> np.ndarray:
    """||A||_F of each matrix in the contiguous complex stack A.

    One pass over the float view: `np.linalg.norm` would build two
    temporaries the size of the stack.
    """
    x = A.reshape(len(A), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _solve_stack(segments, k: np.ndarray, detuning, coupling_length, photon_number):
    """(x, Re k_b): boundary-matching solutions at every point i.

    Point i has incident k[i] and parameters (detuning[i], coupling_length[i],
    photon_number[i]), arrays as `solve_mesa` takes them; coupling_length
    only names a rejected point.  `segments` are the (length, value) pairs
    of one mode; a length may be an array with one entry per point.  Each
    point's system is assembled along a leading batch axis, and one eigh,
    one inverse (for `_condition_bound`) and one solve run over the stack;
    the batch axis changes no element's arithmetic.  The solve does not
    reuse the inverse, so x keeps the bits of an LU solve.  x[i] holds (r_a,
    r_b, 4 coefficients per segment, t_a, t_b).  A k whose square overflows
    is a `DomainError`.
    """
    batch = len(k)
    s = np.sqrt(photon_number + 1.0)
    with np.errstate(over="ignore"):
        kk = k * k
    huge = np.flatnonzero(np.isinf(kk))
    if huge.size:
        raise DomainError(
            f"incident wavenumber must have a finite square, got {float(k[huge[0]])}"
        )
    kb = _sqrt_upper(kk - detuning)
    k_out = np.empty((batch, 2), dtype=complex)  # channel wavenumbers outside
    k_out[:, 0] = k
    k_out[:, 1] = kb

    nseg = len(segments)
    nunk = 4 + 4 * nseg  # r_a, r_b, 4 coefficients per segment, t_a, t_b
    A = np.zeros((batch, nunk, nunk), dtype=complex)
    rhs = np.zeros((batch, nunk), dtype=complex)

    seg_data = []
    for length, value in segments:
        # the local 2x2 channel-coupling matrix, diagonalized per point
        m = np.zeros((batch, 2, 2))
        m[:, 0, 1] = m[:, 1, 0] = s * value
        m[:, 1, 1] = detuning
        mu, vec = np.linalg.eigh(m)
        q = _sqrt_upper(kk[:, None] - mu)
        expo = np.exp(1j * q * np.asarray(length)[..., None])  # decaying for evanescent q
        seg_data.append((vec, q, expo))

    def seg_cols(j: int) -> slice:
        return slice(2 + 4 * j, 6 + 4 * j)

    def seg_edge(j: int, at_right: bool):
        """Value and derivative stacks (batch x 2 channels x 4 coefficients).

        Coefficients 2i and 2i+1 belong to exp(+i q_i z) and exp(-i q_i z)
        of eigenvector i, the columns of `vec`.
        """
        vec, q, expo = seg_data[j]
        one = np.ones(q.shape)
        if at_right:
            fp, fm = expo, one  # exp(i q l), exp(-i q (l - l))
            dp, dm = 1j * q * expo, -1j * q
        else:
            fp, fm = one, expo
            dp, dm = 1j * q, -1j * q * expo
        val = np.empty((batch, 2, 4), dtype=complex)
        der = np.empty((batch, 2, 4), dtype=complex)
        # each factor scales one eigenvector column, in both channel rows
        val[:, :, 0::2] = vec * fp[:, None, :]
        val[:, :, 1::2] = vec * fm[:, None, :]
        der[:, :, 0::2] = vec * dp[:, None, :]
        der[:, :, 1::2] = vec * dm[:, None, :]
        return val, der

    # rows come in fours: two channel values, then two channel derivatives;
    # a unit diagonal of 2x2 blocks pairs channel ch with column ch
    diag = [0, 1]
    # left boundary: (1 + r_a, r_b) and derivatives match segment 0
    val, der = seg_edge(0, at_right=False)
    A[:, diag, diag] = -1.0
    A[:, [2, 3], diag] = 1j * k_out  # d/dz of r exp(-i k z)
    A[:, 0:2, seg_cols(0)] = val
    A[:, 2:4, seg_cols(0)] = der
    # the unit incoming wave in channel a: its value and its derivative
    rhs[:, 0] = 1.0
    rhs[:, 2] = 1j * k_out[:, 0]

    # interior interfaces
    for j in range(nseg - 1):
        rows = slice(4 + 4 * j, 8 + 4 * j)
        left = seg_edge(j, at_right=True)
        right = seg_edge(j + 1, at_right=False)
        A[:, rows, seg_cols(j)] = np.concatenate(left, axis=1)
        A[:, rows, seg_cols(j + 1)] = -np.concatenate(right, axis=1)

    # right boundary: segment N-1 matches (t_a, t_b) exp(i k_out (z - z_R))
    val, der = seg_edge(nseg - 1, at_right=True)
    t_cols = [nunk - 2, nunk - 1]
    A[:, nunk - 4 : nunk - 2, seg_cols(nseg - 1)] = val
    A[:, nunk - 2 :, seg_cols(nseg - 1)] = der
    A[:, [nunk - 4, nunk - 3], t_cols] = -1.0
    A[:, t_cols, t_cols] = -1j * k_out

    cond = _condition_bound(A)
    bad = np.flatnonzero(~(cond <= CONDITION_LIMIT))  # inf and nan fail too
    if bad.size:
        i = bad[0]
        params = SystemParams(
            detuning[i].item(), coupling_length[i].item(), photon_number[i].item()
        )
        raise OracleSolveError(
            f"ill-conditioned boundary system (cond={cond[i]:.3e}) at "
            f"k={float(k[i])}, params={params}"
        )
    # rhs as a stack of one-column matrices, so every numpy reads it alike
    return np.linalg.solve(A, rhs[..., None])[..., 0], kb.real


def solve(mode: ModeFunction, k: float, params: SystemParams) -> SMatrixResult:
    """Scattering amplitudes for an atom incident in |a,n> from the left.

    Unit-amplitude incoming wave in channel a; outgoing-only (or decaying)
    waves on both sides.  Inside each segment the solution is written on
    exponentials anchored at the segment edges, so evanescent factors never
    exceed unity and the system stays well conditioned for long cavities.
    """
    if not k > 0.0:
        raise DomainError(f"incident wavenumber must be > 0, got {k}")
    x, kb_real = _solve_stack(
        mode.segments,
        np.array([k], dtype=float),
        *(np.array([v]) for v in (
            params.detuning_ratio, params.coupling_length, params.photon_number
        )),
    )
    amplitudes = (complex(x[0, i]) for i in (0, 1, -2, -1))
    return _result(k, float(kb_real[0]), *amplitudes)


def solve_mesa(k, detuning_ratio, coupling_length, photon_number) -> SMatrixResult:
    """`solve` for the mesa mode of each point, over arrays of points at once.

    Point i is `solve(ModeFunction.mesa(coupling_length[i]), k[i],
    SystemParams(detuning_ratio[i], coupling_length[i], photon_number[i]))`,
    with the same t_a and t_b bit for bit; every field of the result is an
    array over the points.  The inputs are 1-d arrays of one size, and no
    `SystemParams` is built unless a point is rejected: the first invalid
    point raises the `DomainError` its `SystemParams` raises (or one naming
    the point, where `SystemParams` accepts it: a nan n), and the first
    ill-conditioned one `OracleSolveError`, with its own k and parameters.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k > 0.0):
        raise DomainError(f"incident wavenumbers must be > 0, got {k.min()}")
    d = np.asarray(detuning_ratio, dtype=float)
    kl = np.asarray(coupling_length, dtype=float)
    n = np.asarray(photon_number)
    if k.ndim != 1 or any(v.shape != k.shape for v in (d, kl, n)):
        raise ValueError(
            "need one detuning, coupling length and photon number per point, got "
            f"shapes {d.shape}, {kl.shape} and {n.shape} for k of shape {k.shape}"
        )
    valid = np.isfinite(d) & (kl > 0.0) & np.isfinite(kl) & (n >= 0)
    if not valid.all():
        i = np.argmin(valid)
        point = d[i].item(), kl[i].item(), n[i].item()
        SystemParams(*point)  # raises for every point SystemParams rejects
        raise DomainError(f"invalid parameters (delta/g, kappa L, n) = {point}")
    x, kb_real = _solve_stack(((kl, 1.0),), k, d, kl, n)
    return _result(k, kb_real, x[:, 0], x[:, 1], x[:, -2], x[:, -1])


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
