"""Exact mesa-mode transmission amplitudes and probabilities.

Implements the closed-form amplitudes tau_a (into |a,n>) and tau_b (into
|b,n+1>) for the mesa mode, valid at any incident wavenumber, detuning and
photon number.  All trigonometry is carried out in complex arithmetic so
evanescent channels need no special casing; the shared resonance
denominator is evaluated in cleared-fraction, exponentially scaled form so
cot/tan poles and cosh overflows never materialize.

The closed form is written once, over numpy arrays of k, for one parameter
set or one per point (a `_Dressed` record, which a sweep builds once per
block); `transmissions` is how sweeps, `oracle-check` and the
velocity-selection pipeline use it.  Each scalar entry (`scatter`, `tau_pm`,
`inverse_denominator`) is a one-element call of the same array form, so its
result is the bits of the array's element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    SystemParams,
    _channels,
    _complex_array,
    _Dressed,
    _flux_b,
    _incident,
)

# Beyond this evanescent phase the transmission through the barrier-like
# dressed channel underflows double precision; tau is then exactly 0.
EVANESCENT_CUTOFF = 700.0

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


def _scaled_trig(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos(z) e^{-ls}, sin(z) e^{-ls}, ls) with ls = |Im z|; overflow free.

    An amplitude 1 / (cos(kpm L) - i Sigma sin(kpm L)) is then
    e^{-ls} / (c - i Sigma s) for z = kpm L.
    """
    y = z.imag
    ep = np.exp(_complex_array(-y - abs(y), z.real))  # e^{iz} e^{-|y|}
    em = np.exp(_complex_array(y - abs(y), -z.real))  # e^{-iz} e^{-|y|}
    return (ep + em) / 2.0, (ep - em) / 2j, abs(y)


def _sigma(kpm: np.ndarray, k_eval: np.ndarray) -> np.ndarray:
    """Symmetrized impedance Sigma = (kpm/k_eval + k_eval/kpm)/2."""
    return 0.5 * (kpm / k_eval + k_eval / kpm)


def _tau(kpm: np.ndarray, k_eval: np.ndarray, length) -> np.ndarray:
    """Single-channel amplitude tau = 1 / (cos(kpm L) - i Sigma sin(kpm L)).

    For imaginary kpm the trigonometric factors turn hyperbolic
    automatically; past the underflow cutoff the amplitude is exactly 0.
    """
    c, s, ls = _scaled_trig(kpm * length)
    # past the cutoff this bracket is ~(1 +- Sigma)/2, so the unused branch is finite
    tau = np.exp(-ls) / (c - 1j * _sigma(kpm, k_eval) * s)
    return np.where(ls > EVANESCENT_CUTOFF, 0.0 + 0.0j, tau)


def tau_pm(sign: str, k_eval: float, params: SystemParams) -> complex:
    """Single dressed-channel transmission amplitude tau+/- at k_eval.

    The dressed wavenumber k+/- and the impedance factor are both derived
    from k_eval.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    k_eval = _incident(k_eval)
    k = np.array([k_eval])
    _, k_minus, k_plus = _channels(k, params)
    kpm = k_plus if sign == "+" else k_minus
    if kpm[0] == 0:
        raise DegeneracyError(
            f"degenerate threshold k{sign}_n = 0 at k_eval={k_eval}"
        )
    with np.errstate(all="ignore"):
        return _tau(kpm, k, params.coupling_length).item()


def _inverse_denominator(k: np.ndarray, params: SystemParams, channels):
    """(1/D, nondegenerate): `inverse_denominator`, nan where it is degenerate.

    `channels` is `_channels(k, params)`, with the raw k_b.  Built from
    the cleared-fraction pieces k^c_n = i Pc/Qc and k^t_n = i Pt/Qt, all
    scaled by e^{-lsm-lsp}; the common scale cancels in 1/D.
    """
    kb, km, kp = channels
    length = params.coupling_length
    cm, sm, _ = _scaled_trig(km * length / 2.0)
    cp, sp, _ = _scaled_trig(kp * length / 2.0)
    p_c = (k * sm + 1j * cm * km) * (kb * sp + 1j * cp * kp)
    q_c = cm * km * sp - cp * kp * sm
    p_t = (k * cm - 1j * sm * km) * (kb * cp - 1j * sp * kp)
    q_t = sp * kp * cm - sm * km * cp
    w = params.cos2_theta * (k - kb)
    n_c = w * q_c - 1j * p_c
    n_t = w * q_t - 1j * p_t
    nondegenerate = (n_c != 0) & (n_t != 0)
    inv_d = -(p_c * p_t) / np.where(nondegenerate, n_c * n_t, math.nan)
    return inv_d, nondegenerate


def inverse_denominator(k: float, params: SystemParams) -> complex:
    """1 / [(cos^2(t) (k-k_b)/k^c - 1)(cos^2(t) (k-k_b)/k^t - 1)].

    Evaluated with fractions cleared so the cot/tan poles of k^c and k^t
    cancel exactly instead of producing inf/inf artifacts.
    """
    k = np.array([_incident(k)])
    with np.errstate(all="ignore"):
        inv_d, nondegenerate = _inverse_denominator(k, params, _channels(k, params))
    if not nondegenerate[0]:
        raise DegeneracyError(f"degenerate resonance denominator at k={k[0]}")
    return inv_d.item()


def _scatter_closed_form(k: np.ndarray, params: SystemParams):
    """Closed-form (tau_a, tau_b, T_a, T_b, trusted) at every point of k.

    `params` is a `SystemParams`, or a `_Dressed` record with one element
    per element of k.  `trusted` is false where the result
    is degenerate, not finite, or breaks the flux bound; the
    boundary-matching solve replaces it there.
    """
    length = params.coupling_length
    # The dressed wavenumbers are fixed by the incident energy; evaluating
    # tau at k_b only changes the impedance factor Sigma.  (Re-deriving
    # k+/- from k_b breaks agreement with the boundary-matching solution.)
    channels = _channels(k, params)
    kb_raw, km_k, kp_k = channels
    # exact two-channel threshold; the amplitudes take the open-side limit
    kb = np.where(kb_raw == 0, _complex_array(1e-12 * k, 0.0), kb_raw)

    def sig_tilde(kpm: complex) -> complex:
        return kpm / (k + kb) + (kb / (k + kb)) * (k / kpm)

    # The brackets B = cos(kpm L) - i Sigma sin(kpm L) of one channel share its
    # scale e^{-ls}, which cancels in a ratio of two of them.
    cm, sm, ls_m = _scaled_trig(km_k * length)
    cp, sp, ls_p = _scaled_trig(kp_k * length)
    exp_m = np.exp(-ls_m)
    exp_p = np.exp(-ls_p)
    bm_k = cm - 1j * _sigma(km_k, k) * sm
    bp_b = cp - 1j * _sigma(kp_k, kb) * sp
    bm_b = cm - 1j * _sigma(km_k, kb) * sm
    btm = cm - 1j * sig_tilde(km_k) * sm
    btp = cp - 1j * sig_tilde(kp_k) * sp

    inv_d, nondegenerate = _inverse_denominator(k, params, channels)

    # cos^2(t) * [tau-(k)/tau-(k_b)] * tau+(k_b)
    term_a1 = np.where(
        ls_p > EVANESCENT_CUTOFF,
        0.0 + 0.0j,
        params.cos2_theta * (bm_b / bm_k) * exp_p / bp_b,
    )
    tau_a = (term_a1 + params.sin2_theta * (exp_m / bm_k)) * inv_d

    # [tau-(k)/ttau-(k,kb)] tau+(k_b)  -  [tau+(k_b)/ttau+(k,kb)] tau-(k)
    t1 = np.where(ls_p < EVANESCENT_CUTOFF, (btm / bm_k) * exp_p / bp_b, 0.0)
    t2 = np.where(ls_m < EVANESCENT_CUTOFF, (btp / bp_b) * exp_m / bm_k, 0.0)
    pref = (np.sin(2.0 * params.theta) / 4.0) * (1.0 + k / kb)
    tau_b = pref * (t1 - t2) * inv_d

    T_a = abs(tau_a) ** 2
    T_b = _flux_b(k, kb, tau_b)
    T_total = T_a + T_b
    trusted = (
        nondegenerate
        & np.isfinite(T_a)
        & np.isfinite(T_b)
        & (-1e-9 <= T_total)
        & (T_total <= 1.0 + 1e-6)
    )
    return tau_a, tau_b, T_a, T_b, trusted


def _scatter_matching(k: float, params: SystemParams) -> ScatteringResult:
    """Fallback: direct 8-unknown boundary-matching solve (mesa mode)."""
    from .oracle import ModeFunction, solve

    res = solve(ModeFunction.mesa(params.coupling_length), k, params)
    T_a = abs(res.t_a) ** 2
    if not (math.isfinite(T_a) and math.isfinite(res.T_b)):
        raise ArithmeticError(f"scattering solve failed at k={k}, params={params}")
    return ScatteringResult(
        tau_a=res.t_a,
        tau_b=res.t_b,
        T_a=T_a,
        T_b=res.T_b,
        T_total=T_a + res.T_b,
    )


def scatter(k: float, params: SystemParams) -> ScatteringResult:
    """Exact transmission amplitudes/probabilities for the mesa mode.

    Uses the closed-form expressions; if they hit an algebraic degeneracy or
    produce non-finite values, falls back to the equivalent direct
    boundary-matching linear solve.  The one-element call of `transmissions`'
    evaluator, so T_a and T_b are its bits.
    """
    tau_a, tau_b, T_a, T_b = (
        v.item() for v in _evaluate(np.array([_incident(k)]), params)
    )
    return ScatteringResult(
        tau_a=tau_a, tau_b=tau_b, T_a=T_a, T_b=T_b, T_total=T_a + T_b
    )


def _evaluate(k: np.ndarray, dressed):
    """(tau_a, tau_b, T_a, T_b) over the 1-d block k, as `scatter` gives them.

    `dressed` is what the closed form reads for the block (a `SystemParams`
    or a `_Dressed` record); each point the guard rejects is recomputed
    alone by the boundary-matching solve, with its own `SystemParams`.
    """
    with np.errstate(all="ignore"):
        *out, trusted = _scatter_closed_form(k, dressed)
    for i in np.flatnonzero(~trusted):
        params = dressed if isinstance(dressed, SystemParams) else dressed.params(i)
        res = _scatter_matching(float(k[i]), params)
        for values, value in zip(out, (res.tau_a, res.tau_b, res.T_a, res.T_b)):
            values[i] = value
    return out


def _blockwise(k, params, evaluate, owner=None):
    """`evaluate(k, dressed)` over the points of k, `ARRAY_BLOCK` at a time.

    k (> 0) and params are as for `transmissions`.  `evaluate` gets a 1-d block
    of k and what the closed form reads for it: params itself, or the block's
    rows of the record; it returns arrays over the block, which come back
    joined in k's shape.  With `owner`, an integer array shaped like k,
    params is instead a record whose row owner[i] point i takes.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k > 0.0):
        raise DomainError(f"incident wavenumbers must be > 0, got {k.min()}")
    single = isinstance(params, SystemParams)
    if not (single or isinstance(params, _Dressed)):
        params = _Dressed.stack(params)
    if owner is not None:
        owner = np.asarray(owner).ravel()
        if owner.size != k.size:
            raise ValueError(f"need one owner per point, got {owner.size} for {k.size}")
    elif not single and (k.ndim != 1 or params.size != k.size):
        raise ValueError(
            f"need one SystemParams per point, got {params.size} for k of shape {k.shape}"
        )
    flat = k.ravel()
    blocks = []
    # an empty k still makes one (empty) call, so that every output has an array
    for lo in range(0, max(flat.size, 1), ARRAY_BLOCK):
        block = slice(lo, lo + ARRAY_BLOCK)
        if single:
            dressed = params
        else:
            dressed = params.take(block if owner is None else owner[block])
        blocks.append(evaluate(flat[block], dressed))
    return tuple(np.concatenate(out).reshape(k.shape) for out in zip(*blocks))


def transmissions(
    k, params: SystemParams | _Dressed | Sequence[SystemParams]
) -> tuple[np.ndarray, np.ndarray]:
    """`scatter`'s (T_a, T_b) at every point of the array k, as arrays shaped like k.

    params is one `SystemParams` for every point, or one parameter set per
    point of a 1-d k: a `_Dressed` record (`_Dressed.build`), or a sequence
    of `SystemParams`, which is stacked into one.  The same closed form,
    guard and fallback as `scatter`, in one call per `ARRAY_BLOCK` points,
    so every element is the bits `scatter` gives at its point.
    """
    return _blockwise(k, params, lambda k, dressed: _evaluate(k, dressed)[2:])
