"""Exact mesa-mode transmission amplitudes and probabilities.

Implements the closed-form amplitudes tau_a (into |a,n>) and tau_b (into
|b,n+1>) for the mesa mode, valid at any incident wavenumber, detuning and
photon number.  All trigonometry is carried out in complex arithmetic so
evanescent channels need no special casing; the shared resonance
denominator is evaluated in cleared-fraction, exponentially scaled form so
cot/tan poles and cosh overflows never materialize.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import DomainError, SystemParams, _flux_b, _sqrt_upper_c

# Beyond this evanescent phase the transmission through the barrier-like
# dressed channel underflows double precision; tau is then exactly 0.
EVANESCENT_CUTOFF = 700.0

# Cleared numerator/denominator pairs both smaller than this (relative to
# the local wavenumber scale) are treated as a genuine degeneracy.
DEGENERACY_EPS = 1e-300


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


def _scaled_trig(z: complex) -> tuple[complex, complex]:
    """(cos(z), sin(z)) both multiplied by exp(-|Im z|); overflow free."""
    y = z.imag
    ep = cmath.exp(complex(-y - abs(y), z.real))  # e^{iz} e^{-|y|}
    em = cmath.exp(complex(y - abs(y), -z.real))  # e^{-iz} e^{-|y|}
    return (ep + em) / 2.0, (ep - em) / 2j


def _dressed_k(sign: str, k_eval: complex, params: SystemParams) -> complex:
    """k+/- derived from the evaluation wavenumber (Im >= 0 branch)."""
    s = math.sqrt(params.photon_number + 1.0)
    if sign == "+":
        rad = k_eval * k_eval - s * params.tan_theta
    elif sign == "-":
        rad = k_eval * k_eval + s * params.cot_theta
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return _sqrt_upper_c(rad)


def _bracket(kpm: complex, sigma: complex, length: float) -> tuple[complex, float]:
    """Scaled inverse amplitude: returns (B * e^{-ls}, ls).

    B = cos(kpm L) - i sigma sin(kpm L) and ls = |Im(kpm L)|, so
    tau = e^{-ls} / B_scaled.
    """
    c, s = _scaled_trig(kpm * length)
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
    k: float, params: SystemParams
) -> tuple[complex, complex, complex, complex]:
    """Cleared-fraction pieces (Pc, Qc, Pt, Qt), all scaled by e^{-lsm-lsp}.

    k^c_n = i Pc/Qc and k^t_n = i Pt/Qt; the common scale cancels in every
    ratio the amplitudes need.
    """
    length = params.coupling_length
    kb = _sqrt_upper_c(complex(k * k - params.detuning_ratio))
    km = _dressed_k("-", complex(k), params)
    kp = _dressed_k("+", complex(k), params)
    cm, sm = _scaled_trig(km * length / 2.0)
    cp, sp = _scaled_trig(kp * length / 2.0)
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


def inverse_denominator(k: float, params: SystemParams) -> complex:
    """1 / [(cos^2(t) (k-k_b)/k^c - 1)(cos^2(t) (k-k_b)/k^t - 1)].

    Evaluated with fractions cleared so the cot/tan poles of k^c and k^t
    cancel exactly instead of producing inf/inf artifacts.
    """
    p_c, q_c, p_t, q_t = _denominator_pieces(k, params)
    kb = _sqrt_upper_c(complex(k * k - params.detuning_ratio))
    cos2 = math.cos(params.theta) ** 2
    w = cos2 * (k - kb)
    n_c = w * q_c - 1j * p_c
    n_t = w * q_t - 1j * p_t
    if n_c == 0 or n_t == 0:
        raise DegeneracyError(f"degenerate resonance denominator at k={k}")
    return -(p_c * p_t) / (n_c * n_t)


def _scatter_closed_form(k: float, params: SystemParams) -> ScatteringResult:
    length = params.coupling_length
    theta = params.theta
    kb = _sqrt_upper_c(complex(k * k - params.detuning_ratio))
    if kb == 0:
        # exact two-channel threshold; take the open-side limit
        kb = complex(0.0, 0.0)
        kb += 1e-12 * k
    cos2 = math.cos(theta) ** 2
    sin2 = math.sin(theta) ** 2

    # The dressed wavenumbers are fixed by the incident energy; evaluating
    # tau at k_b only changes the impedance factor Sigma.  (Re-deriving
    # k+/- from k_b breaks agreement with the boundary-matching solution.)
    km_k = _dressed_k("-", complex(k), params)
    kp_k = _dressed_k("+", complex(k), params)

    def sig(kpm: complex, karg: complex) -> complex:
        return 0.5 * (kpm / karg + karg / kpm)

    def sig_tilde(kpm: complex) -> complex:
        return kpm / (k + kb) + (kb / (k + kb)) * (k / kpm)

    bm_k, ls_m_k = _bracket(km_k, sig(km_k, k), length)
    bp_b, ls_p_b = _bracket(kp_k, sig(kp_k, kb), length)
    bm_b, ls_m_b = _bracket(km_k, sig(km_k, kb), length)
    btm, ls_tm = _bracket(km_k, sig_tilde(km_k), length)
    btp, ls_tp = _bracket(kp_k, sig_tilde(kp_k), length)

    inv_d = inverse_denominator(k, params)

    # tau_minus(k) = e^{-ls_m_k} / bm_k  (k_minus is real, ls_m_k = 0)
    tau_m_k = cmath.exp(-ls_m_k) / bm_k

    # cos^2(t) * [tau-(k)/tau-(k_b)] * tau+(k_b), exponents combined
    e1 = ls_m_b - ls_m_k - ls_p_b
    if e1 < -EVANESCENT_CUTOFF:
        term_a1 = 0.0 + 0.0j
    else:
        term_a1 = cos2 * (bm_b / bm_k) * cmath.exp(e1) / bp_b
    tau_a = (term_a1 + sin2 * tau_m_k) * inv_d

    # [tau-(k)/ttau-(k,kb)] tau+(k_b)  -  [tau+(k_b)/ttau+(k,kb)] tau-(k)
    e2 = ls_tm - ls_m_k - ls_p_b
    t1 = (btm / bm_k) * cmath.exp(e2) / bp_b if e2 > -EVANESCENT_CUTOFF else 0.0
    e3 = ls_tp - ls_p_b - ls_m_k
    t2 = (btp / bp_b) * cmath.exp(e3) / bm_k if e3 > -EVANESCENT_CUTOFF else 0.0
    pref = (math.sin(2.0 * theta) / 4.0) * (1.0 + k / kb)
    tau_b = pref * (t1 - t2) * inv_d

    T_a = abs(tau_a) ** 2
    T_b = _flux_b(k, kb, tau_b)
    return ScatteringResult(
        tau_a=tau_a, tau_b=tau_b, T_a=T_a, T_b=T_b, T_total=T_a + T_b
    )


def _scatter_matching(k: float, params: SystemParams) -> ScatteringResult:
    """Fallback: direct 8-unknown boundary-matching solve (mesa mode)."""
    from .oracle import ModeFunction, solve

    res = solve(ModeFunction.mesa(params.coupling_length), k, params)
    kb = _sqrt_upper_c(complex(k * k - params.detuning_ratio))
    T_a = abs(res.t_a) ** 2
    T_b = _flux_b(k, kb, res.t_b)
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
        res = _scatter_closed_form(k, params)
        ok = (
            math.isfinite(res.T_a)
            and math.isfinite(res.T_b)
            and -1e-9 <= res.T_total <= 1.0 + 1e-6
        )
    except (DegeneracyError, ZeroDivisionError):
        ok = False
        res = None
    if not ok:
        res = _scatter_matching(k, params)
        if not (math.isfinite(res.T_a) and math.isfinite(res.T_b)):
            raise ArithmeticError(
                f"scattering solve failed at k={k}, params={params}"
            )
    return res
