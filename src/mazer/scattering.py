"""Exact mesa-mode transmission amplitudes and probabilities.

Implements the closed-form amplitudes tau_a (into |a,n>) and tau_b (into
|b,n+1>) for the mesa mode, valid at any incident wavenumber, detuning and
photon number.  All trigonometry is carried out in complex arithmetic so
evanescent channels need no special casing; the shared resonance
denominator is evaluated in cleared-fraction, exponentially scaled form so
cot/tan poles and cosh overflows never materialize.

The closed form is written once.  `scatter` evaluates it on Python scalars
at one point; `transmissions` evaluates it over a numpy array of k for one
parameter set, which is how sweeps and the velocity-selection pipeline use
it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    SystemParams,
    _ArrayOps,
    _flux_b,
    _ScalarOps,
    _sqrt_upper_c,
)

# Beyond this evanescent phase the transmission through the barrier-like
# dressed channel underflows double precision; tau is then exactly 0.
EVANESCENT_CUTOFF = 700.0

# Cleared numerator/denominator pairs both smaller than this (relative to
# the local wavenumber scale) are treated as a genuine degeneracy.
DEGENERACY_EPS = 1e-300

# `transmissions` evaluates this many points at a time, which bounds the
# memory held by its temporaries.
ARRAY_BLOCK = 1024


class DegeneracyError(ArithmeticError):
    """Raised when a characteristic-scale expression is 0/0 degenerate."""


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitudes and probabilities for one (k, params) point."""

    tau_a: complex
    tau_b: complex
    T_a: float
    T_b: float
    T_total: float


def _scaled_trig(z: complex, ops=_ScalarOps) -> tuple[complex, complex]:
    """(cos(z), sin(z)) both multiplied by exp(-|Im z|); overflow free."""
    y = z.imag
    ep = ops.exp(ops.complex(-y - abs(y), z.real))  # e^{iz} e^{-|y|}
    em = ops.exp(ops.complex(y - abs(y), -z.real))  # e^{-iz} e^{-|y|}
    return (ep + em) / 2.0, (ep - em) / 2j


def _dressed_k(
    sign: str, k_eval: complex, params: SystemParams, ops=_ScalarOps
) -> complex:
    """k+/- derived from the evaluation wavenumber (Im >= 0 branch)."""
    s = math.sqrt(params.photon_number + 1.0)
    if sign == "+":
        rad = k_eval * k_eval - s * params.tan_theta
    elif sign == "-":
        rad = k_eval * k_eval + s * params.cot_theta
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return ops.sqrt_upper(rad)


def _bracket(
    kpm: complex, sigma: complex, length: float, ops=_ScalarOps
) -> tuple[complex, float]:
    """Scaled inverse amplitude: returns (B * e^{-ls}, ls).

    B = cos(kpm L) - i sigma sin(kpm L) and ls = |Im(kpm L)|, so
    tau = e^{-ls} / B_scaled.
    """
    c, s = _scaled_trig(kpm * length, ops)
    return c - 1j * sigma * s, abs((kpm * length).imag)


def tau_pm(sign: str, k_eval: complex, params: SystemParams) -> complex:
    """Single dressed-channel transmission amplitude tau+/-.

    The dressed wavenumber k+/- and the symmetrized impedance
    Sigma = (k_pm/k + k/k_pm)/2 are both derived from k_eval.  For
    imaginary k+ the trigonometric factors turn hyperbolic automatically;
    past the underflow cutoff the amplitude is exactly 0.
    """
    if k_eval == 0:
        raise DomainError("tau_pm requires a nonzero evaluation wavenumber")
    kpm = _dressed_k(sign, complex(k_eval), params)
    if kpm == 0:
        raise DegeneracyError(
            f"degenerate threshold k{sign}_n = 0 at k_eval={k_eval}"
        )
    sigma = 0.5 * (kpm / k_eval + k_eval / kpm)
    b, ls = _bracket(kpm, sigma, params.coupling_length)
    if ls > EVANESCENT_CUTOFF:
        return 0.0 + 0.0j
    return cmath.exp(-ls) / b


def _denominator_pieces(
    k: float, params: SystemParams, ops=_ScalarOps
) -> tuple[complex, complex, complex, complex]:
    """Cleared-fraction pieces (Pc, Qc, Pt, Qt), all scaled by e^{-lsm-lsp}.

    k^c_n = i Pc/Qc and k^t_n = i Pt/Qt; the common scale cancels in every
    ratio the amplitudes need.
    """
    length = params.coupling_length
    kb = ops.sqrt_upper(ops.complex(k * k - params.detuning_ratio, 0.0))
    km = _dressed_k("-", ops.complex(k, 0.0), params, ops)
    kp = _dressed_k("+", ops.complex(k, 0.0), params, ops)
    cm, sm = _scaled_trig(km * length / 2.0, ops)
    cp, sp = _scaled_trig(kp * length / 2.0, ops)
    p_c = (k * sm + 1j * cm * km) * (kb * sp + 1j * cp * kp)
    q_c = cm * km * sp - cp * kp * sm
    p_t = (k * cm - 1j * sm * km) * (kb * cp - 1j * sp * kp)
    q_t = sp * kp * cm - sm * km * cp
    return p_c, q_c, p_t, q_t


def resonance_denominator_scales(
    k: float, params: SystemParams
) -> tuple[complex, complex]:
    """Characteristic scales (k^c_n, k^t_n) of the shared denominator."""
    if k <= 0.0:
        raise DomainError(f"incident wavenumber must be > 0, got {k}")
    p_c, q_c, p_t, q_t = _denominator_pieces(k, params)
    scale = max(abs(k), 1.0)
    for p, q, name in ((p_c, q_c, "k^c"), (p_t, q_t, "k^t")):
        if abs(p) < DEGENERACY_EPS * scale and abs(q) < DEGENERACY_EPS * scale:
            raise DegeneracyError(f"degenerate {name} expression at k={k}")
    return 1j * p_c / q_c, 1j * p_t / q_t


def _inverse_denominator(k: float, params: SystemParams, ops=_ScalarOps):
    """(1/D, nondegenerate): `inverse_denominator`, nan where it is degenerate."""
    p_c, q_c, p_t, q_t = _denominator_pieces(k, params, ops)
    kb = ops.sqrt_upper(ops.complex(k * k - params.detuning_ratio, 0.0))
    cos2 = math.cos(params.theta) ** 2
    w = cos2 * (k - kb)
    n_c = w * q_c - 1j * p_c
    n_t = w * q_t - 1j * p_t
    nondegenerate = (n_c != 0) & (n_t != 0)
    inv_d = -(p_c * p_t) / ops.where(nondegenerate, n_c * n_t, math.nan)
    return inv_d, nondegenerate


def inverse_denominator(k: float, params: SystemParams) -> complex:
    """1 / [(cos^2(t) (k-k_b)/k^c - 1)(cos^2(t) (k-k_b)/k^t - 1)].

    Evaluated with fractions cleared so the cot/tan poles of k^c and k^t
    cancel exactly instead of producing inf/inf artifacts.
    """
    inv_d, nondegenerate = _inverse_denominator(k, params)
    if not nondegenerate:
        raise DegeneracyError(f"degenerate resonance denominator at k={k}")
    return inv_d


def _scatter_closed_form(k: float, params: SystemParams, ops=_ScalarOps):
    """Closed-form (tau_a, tau_b, T_a, T_b, trusted) at k.

    `trusted` is false where the result is degenerate, not finite, or breaks
    the flux bound; the boundary-matching solve replaces it there.
    """
    length = params.coupling_length
    theta = params.theta
    kb = ops.sqrt_upper(ops.complex(k * k - params.detuning_ratio, 0.0))
    # exact two-channel threshold; take the open-side limit
    kb = ops.where(kb == 0, ops.complex(1e-12 * k, 0.0), kb)
    cos2 = math.cos(theta) ** 2
    sin2 = math.sin(theta) ** 2

    # The dressed wavenumbers are fixed by the incident energy; evaluating
    # tau at k_b only changes the impedance factor Sigma.  (Re-deriving
    # k+/- from k_b breaks agreement with the boundary-matching solution.)
    km_k = _dressed_k("-", ops.complex(k, 0.0), params, ops)
    kp_k = _dressed_k("+", ops.complex(k, 0.0), params, ops)

    def sig(kpm: complex, karg: complex) -> complex:
        return 0.5 * (kpm / karg + karg / kpm)

    def sig_tilde(kpm: complex) -> complex:
        return kpm / (k + kb) + (kb / (k + kb)) * (k / kpm)

    bm_k, ls_m_k = _bracket(km_k, sig(km_k, k), length, ops)
    bp_b, ls_p_b = _bracket(kp_k, sig(kp_k, kb), length, ops)
    bm_b, ls_m_b = _bracket(km_k, sig(km_k, kb), length, ops)
    btm, ls_tm = _bracket(km_k, sig_tilde(km_k), length, ops)
    btp, ls_tp = _bracket(kp_k, sig_tilde(kp_k), length, ops)

    inv_d, nondegenerate = _inverse_denominator(k, params, ops)

    # tau_minus(k) = e^{-ls_m_k} / bm_k  (k_minus is real, ls_m_k = 0)
    tau_m_k = ops.exp(-ls_m_k) / bm_k

    # cos^2(t) * [tau-(k)/tau-(k_b)] * tau+(k_b), exponents combined
    e1 = ls_m_b - ls_m_k - ls_p_b
    term_a1 = ops.where(
        e1 < -EVANESCENT_CUTOFF,
        0.0 + 0.0j,
        cos2 * (bm_b / bm_k) * ops.exp(e1) / bp_b,
    )
    tau_a = (term_a1 + sin2 * tau_m_k) * inv_d

    # [tau-(k)/ttau-(k,kb)] tau+(k_b)  -  [tau+(k_b)/ttau+(k,kb)] tau-(k)
    e2 = ls_tm - ls_m_k - ls_p_b
    t1 = ops.where(
        e2 > -EVANESCENT_CUTOFF, (btm / bm_k) * ops.exp(e2) / bp_b, 0.0
    )
    e3 = ls_tp - ls_p_b - ls_m_k
    t2 = ops.where(
        e3 > -EVANESCENT_CUTOFF, (btp / bp_b) * ops.exp(e3) / bm_k, 0.0
    )
    pref = (math.sin(2.0 * theta) / 4.0) * (1.0 + k / kb)
    tau_b = pref * (t1 - t2) * inv_d

    T_a = abs(tau_a) ** 2
    T_b = _flux_b(k, kb, tau_b, ops)
    T_total = T_a + T_b
    trusted = (
        nondegenerate
        & ops.isfinite(T_a)
        & ops.isfinite(T_b)
        & (-1e-9 <= T_total)
        & (T_total <= 1.0 + 1e-6)
    )
    return tau_a, tau_b, T_a, T_b, trusted


def _scatter_matching(k: float, params: SystemParams) -> ScatteringResult:
    """Fallback: direct 8-unknown boundary-matching solve (mesa mode)."""
    from .oracle import ModeFunction, solve

    res = solve(ModeFunction.mesa(params.coupling_length), k, params)
    kb = _sqrt_upper_c(complex(k * k - params.detuning_ratio))
    T_a = abs(res.t_a) ** 2
    T_b = _flux_b(k, kb, res.t_b)
    if not (math.isfinite(T_a) and math.isfinite(T_b)):
        raise ArithmeticError(f"scattering solve failed at k={k}, params={params}")
    return ScatteringResult(
        tau_a=res.t_a,
        tau_b=res.t_b,
        T_a=T_a,
        T_b=T_b,
        T_total=T_a + T_b,
    )


def scatter(k: float, params: SystemParams) -> ScatteringResult:
    """Exact transmission amplitudes/probabilities for the mesa mode.

    Uses the closed-form expressions; if they hit an algebraic degeneracy or
    produce non-finite values, falls back to the equivalent direct
    boundary-matching linear solve.
    """
    if k <= 0.0:
        raise DomainError(f"incident wavenumber must be > 0, got {k}")
    try:
        tau_a, tau_b, T_a, T_b, trusted = _scatter_closed_form(k, params)
    except ZeroDivisionError:
        trusted = False
    if not trusted:
        return _scatter_matching(k, params)
    return ScatteringResult(
        tau_a=tau_a, tau_b=tau_b, T_a=T_a, T_b=T_b, T_total=T_a + T_b
    )


def transmissions(k, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """`scatter`'s (T_a, T_b) at every point of the array k, for one params.

    The same closed form, evanescent cutoffs, threshold limit and guard as
    `scatter`, applied elementwise; each point the guard rejects is
    recomputed by the boundary-matching solve.  Agrees with `scatter` to a
    few ulp, because numpy's complex *, / and abs round differently from
    Python's.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise DomainError(f"incident wavenumbers must be > 0, got {k.min()}")
    flat = k.ravel()
    t_a = np.empty_like(flat)
    t_b = np.empty_like(flat)
    trusted = np.empty(flat.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, flat.size, ARRAY_BLOCK):
            block = slice(lo, lo + ARRAY_BLOCK)
            _, _, t_a[block], t_b[block], trusted[block] = _scatter_closed_form(
                flat[block], params, _ArrayOps
            )
    for i in np.flatnonzero(~trusted):
        res = _scatter_matching(float(flat[i]), params)
        t_a[i], t_b[i] = res.T_a, res.T_b
    return t_a.reshape(k.shape), t_b.reshape(k.shape)
