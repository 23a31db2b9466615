"""Ultracold-regime closed forms and the transmission resonance catalog.

In the ultracold regime (k << kappa_n sqrt(tan theta_n), exp(kappa_n L) >> 1)
the total transmission factorizes as T = f(theta_n) * I(L) * |tau_minus(k)|^2;
the induced-emission probability P_em shares the resonance factor I(L).
Resonances occur where the cavity fits an integer number of half de Broglie
wavelengths of the lower dressed channel, k_minus * L = m * pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._brent import brentq, minimize_bounded
from .core import DomainError, SystemParams, _channels, _incident, _is_open
from .core import _ArrayOps, _Dressed, _ScalarOps
from .scattering import DegeneracyError, _blockwise, _inverse_denominator, _tau, tau_pm

# Operationalization of the paper-regime conditions "k << kappa_n sqrt(tan)"
# and "exp(kappa_n L) >> 1"; reported as flags, never enforced.
VALIDITY_K_FACTOR = 0.1
VALIDITY_MIN_KAPPA_N_L = 20.0


@dataclass(frozen=True)
class ResonancePeak:
    """One transmission resonance in k space (all in units of kappa)."""

    index: int
    position: float
    amplitude: float
    width: float
    refined: bool


def ultracold_valid(k: float, params: SystemParams) -> bool:
    kn = params.kappa_n
    return (
        k < VALIDITY_K_FACTOR * kn * math.sqrt(params.tan_theta)
        and kn * params.coupling_length > VALIDITY_MIN_KAPPA_N_L
    )


def _branching(kb_ratio: float, params: SystemParams) -> float:
    """f(theta_n) = sin^2 (sin^2 + (k_b/k) cos^2), given k_b/k (0 when b is closed)."""
    sin2 = params.sin2_theta
    return sin2 * (sin2 + kb_ratio * params.cos2_theta)


def _transmission_ultracold(k, params: SystemParams, ops=_ScalarOps):
    """(T, nondegenerate) at k, with T nan where degenerate.

    `params` is a `SystemParams`, or with `_ArrayOps` a `_Dressed` record.
    """
    channels = _channels(k, params, ops)
    k_b, k_minus, _ = channels
    # k_b.real is exactly 0 for a closed channel
    f = _branching(k_b.real / k, params)
    inv_d, nondegenerate = _inverse_denominator(k, params, channels, ops)
    tau2 = abs(_tau(k_minus, k, params.coupling_length, ops)) ** 2
    return f * abs(inv_d) ** 2 * tau2, nondegenerate


def _p_em_closed_form(k, params: SystemParams, ops=_ScalarOps):
    """(P_em, ok) at k; P_em is 0 where channel b is closed.

    The fast-varying phase is evaluated with the full lower-dressed
    wavenumber k_minus (= kappa_n sqrt(cot theta) at leading ultracold
    order), which keeps the expression in phase with the exact resonances.
    A degenerate denominator matters only where b is open: there `ok` is
    false and P_em is nan.
    """
    channels = _channels(k, params, ops)
    k_b, k_minus, _ = channels
    is_open = _is_open(k_b)
    inv_d, nondegenerate = _inverse_denominator(k, params, channels, ops)
    cot = params.cot_theta
    phase = k_minus.real * params.coupling_length
    kn = params.kappa_n
    i_of_l = abs(inv_d) ** 2
    num = 1.0 + 0.5 * cot * ops.sin(2.0 * phase)
    den = 1.0 + (kn / (2.0 * k)) ** 2 * cot * ops.sin(phase) ** 2
    value = (k_b.real / k) * 0.5 * i_of_l * num / den
    # value < 0 is a floating-point undershoot of the interference numerator
    value = ops.where(value < 0.0, 0.0, value)
    return ops.where(is_open, value, 0.0), ops.where(is_open, nondegenerate, True)


def _at_point(closed_form, k, params: SystemParams) -> float:
    """The scalar entry contract: closed_form at one k > 0, raising where not ok."""
    k = _incident(k)
    value, ok = closed_form(k, params)
    if not ok:
        raise DegeneracyError(f"degenerate resonance denominator at k={k}")
    return value


def _at_points(closed_form, k, params, owner=None) -> np.ndarray:
    """The array entry contract: closed_form over the array k, raising where not ok.

    k, params and owner are as for `scattering._blockwise`.
    """

    def evaluate(k, dressed, each):
        with np.errstate(all="ignore"):
            value, ok = closed_form(k, dressed, _ArrayOps)
        if not ok.all():
            raise DegeneracyError(f"degenerate resonance denominator at k={k[~ok][0]}")
        return (value,)

    return _blockwise(k, params, evaluate, owner)[0]


def transmission_ultracold(k: float, params: SystemParams) -> float:
    """T = f(theta_n) I(L) |tau_minus(k)|^2; `ultracold_valid` says where it holds."""
    return _at_point(_transmission_ultracold, k, params)


def transmissions_ultracold(k, params) -> np.ndarray:
    """Array `transmission_ultracold`, to ~1e-14 relative; k, params as for `transmissions`."""
    return _at_points(_transmission_ultracold, k, params)


def p_em_ultracold(k: float, params: SystemParams) -> float:
    """Induced-emission probability of one ultracold atom with wavenumber k.

    Vanishes identically when the emission channel is closed
    ((k/kappa)^2 <= delta/g).
    """
    return _at_point(_p_em_closed_form, k, params)


def _p_em_array(k, params: SystemParams) -> np.ndarray:
    """`p_em_ultracold` over the array k, to a few ulp, for one `SystemParams`."""
    return _at_points(_p_em_closed_form, k, params)


def _p_em_by_owner(params: Sequence[SystemParams]):
    """`_p_em_array` as f(k, owner), where point i of k takes params[owner[i]].

    The params are stacked once; each `ARRAY_BLOCK` slice of k gathers its
    rows of them, so no `SystemParams` is built or stacked per point.
    """
    record = _Dressed.stack(params)
    return lambda k, owner: _at_points(_p_em_closed_form, k, record, owner)


def loeffler_resonant(
    k: float, coupling_length: float, photon_number: int
) -> float:
    """Resonant (delta = 0) transmission T = |tau_minus(k)|^2 / 2."""
    k = _incident(k)
    params = SystemParams(0.0, coupling_length, photon_number)
    return 0.5 * abs(tau_pm("-", k, params)) ** 2


def hot_cold_boundary(k: float, photon_number: int) -> float:
    """Detuning delta/g below which the atom leaves the cold regime.

    Given by -delta/g = (n+1) (kappa/k)^2; returns the (negative) delta/g.
    """
    k = _incident(k)
    if photon_number < 0:
        raise DomainError(f"photon_number must be >= 0, got {photon_number}")
    return -(photon_number + 1.0) / (k * k)


def resonance_amplitude(peak_position: float, params: SystemParams) -> float:
    """Peak amplitude A_m ~ 4 f(theta) / (1 + k_b/k)^2, or 1 when b is closed."""
    if not peak_position > 0.0:
        raise DomainError(f"peak position must be > 0, got {peak_position}")
    k_b = _channels(peak_position, params)[0]
    if not _is_open(k_b):
        return 1.0
    ratio = k_b.real / peak_position
    return 4.0 * _branching(ratio, params) / (1.0 + ratio) ** 2


def analytic_position(m: int, params: SystemParams) -> float | None:
    """Eq.-(21)-style position sqrt((m pi / kL)^2 - sqrt(n+1) cot theta), m >= 1."""
    if m < 1:
        raise DomainError(f"resonance index must be >= 1, got {m}")
    rad = (m * math.pi / params.coupling_length) ** 2 - params.shift_minus
    if rad <= 0.0:
        return None
    return math.sqrt(rad)


def _peak_spacing(m: int, params: SystemParams) -> float:
    """Distance from peak m (which exists) to its nearest analytic neighbour."""
    here = analytic_position(m, params)
    lo = analytic_position(m - 1, params) if m > 1 else None
    hi = analytic_position(m + 1, params)  # exists wherever peak m does
    return min(abs(here - x) for x in (lo, hi) if x is not None)


def _refine_peak(seed: float, spacing: float, params: SystemParams) -> float:
    # the minimizer stops at sqrt(eps)|x| + xatol/3: positions good to ~1.5e-8 relative
    lo = max(seed - 0.5 * spacing, seed * 1e-6)
    hi = seed + 0.5 * spacing
    x = minimize_bounded(
        lambda q: -transmission_ultracold(q, params), (lo, hi), xatol=seed * 1e-10
    )
    return float(x)


def _locate_peak(m: int, params: SystemParams) -> tuple[float, bool] | None:
    """(position, refined) of peak m, or None if its radicand is not positive.

    Where channel b is closed at the analytic position (k^2 <= delta/g) the
    peak is refined by maximizing the ultracold transmission around it.
    """
    pos = analytic_position(m, params)
    if pos is None:
        return None
    if _is_open(_channels(pos, params)[0]):
        return pos, False
    return _refine_peak(pos, _peak_spacing(m, params), params), True


def peak_position(m: int, params: SystemParams) -> float | None:
    """Position of peak m (analytic, or refined where channel b is closed)."""
    located = _locate_peak(m, params)
    return None if located is None else located[0]


def _fwhm(
    position: float, amplitude: float, spacing: float, params: SystemParams
) -> float:
    """Full width at half the peak's own maximum, by bracketed bisection."""
    half = 0.5 * amplitude

    def g(q: float) -> float:
        return transmission_ultracold(q, params) - half

    def crossing(direction: int) -> float:
        step = spacing * 1e-4
        q = position
        while True:
            q_next = q + direction * step
            if q_next <= 0.0:
                return position  # no crossing inside the physical domain
            if g(q_next) < 0.0:
                lo, hi = (q, q_next) if direction > 0 else (q_next, q)
                return brentq(g, lo, hi, xtol=1e-16, rtol=1e-14)
            q = q_next
            step *= 2.0
            if abs(q - position) > spacing:
                return position + direction * spacing  # merged neighbours

    right = crossing(+1)
    left = crossing(-1)
    return right - left


def _peak(m: int, pos: float, refined: bool, params: SystemParams) -> ResonancePeak:
    """Peak m at its located position, with its amplitude and FWHM."""
    amplitude = transmission_ultracold(pos, params)
    width = _fwhm(pos, amplitude, _peak_spacing(m, params), params)
    return ResonancePeak(m, pos, amplitude, width, refined)


def resonance_positions(
    params: SystemParams, m_range: tuple[int, int]
) -> list[ResonancePeak]:
    """Catalog of resonance peaks m_min <= m <= m_max, for m_range = (m_min, m_max).

    Open-channel peaks use the analytic half-wavelength position; peaks in
    the closed-b-channel region are numerically refined by local
    maximization of the ultracold transmission (refined = True).  Indices
    whose radicand is not positive yield no peak.
    """
    m_min, m_max = m_range
    if m_min > m_max:
        raise DomainError(f"empty index range: m_min {m_min} > m_max {m_max}")
    located = [(m, _locate_peak(m, params)) for m in range(m_min, m_max + 1)]
    return [_peak(m, *loc, params) for m, loc in located if loc is not None]


def catalog_in_window(
    params: SystemParams, k_max: float, k_min: float = 0.0
) -> list[ResonancePeak]:
    """All resonance peaks with positions in (k_min, k_max].

    Each index is located first; only the peaks inside the window pay for
    their amplitude and width.
    """
    if k_min > k_max:
        raise DomainError(f"empty window: k_min {k_min} > k_max {k_max}")
    base = params.shift_minus
    scale = params.coupling_length / math.pi
    k_lo = max(k_min, 0.0)  # positions are > 0, so a negative k_min adds no peak
    m_lo = max(1, math.floor(math.sqrt(base + k_lo * k_lo) * scale))
    m_hi = math.ceil(math.sqrt(base + k_max * k_max) * scale) + 1
    located = [(m, _locate_peak(m, params)) for m in range(m_lo, m_hi + 1)]
    return [
        _peak(m, *loc, params)
        for m, loc in located
        if loc is not None and k_min < loc[0] <= k_max
    ]
