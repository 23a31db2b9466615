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

from .core import DomainError, SystemParams, _channels, _Dressed, _incident, _is_open
from .scattering import DegeneracyError, _blockwise, _inverse_denominator, _tau

# Operationalization of the paper-regime conditions "k << kappa_n sqrt(tan)"
# and "exp(kappa_n L) >> 1"; reported as flags, never enforced.
VALIDITY_K_FACTOR = 0.1
VALIDITY_MIN_KAPPA_N_L = 20.0


@dataclass(frozen=True)
class ResonancePeak:
    """One transmission resonance in k space (all in units of kappa).

    `resolved` is false where `width` is a bound, not a measured FWHM: a
    half-maximum crossing lies beyond the nearest neighbour (merged peaks) or
    below k = 0.
    """

    index: int
    position: float
    amplitude: float
    width: float
    resolved: bool
    refined: bool


def _ultracold_valid(k: np.ndarray, params) -> np.ndarray:
    """`ultracold_valid` at every point of k; params as for `_transmission_ultracold`.

    np.sqrt rounds correctly, as math.sqrt does, so each element is the
    scalar entry's.
    """
    kn = params.kappa_n
    return (k < VALIDITY_K_FACTOR * kn * np.sqrt(params.tan_theta)) & (
        kn * params.coupling_length > VALIDITY_MIN_KAPPA_N_L
    )


def ultracold_valid(k: float, params: SystemParams) -> bool:
    """Whether k lies in the ultracold regime the closed forms of this module assume."""
    return bool(_ultracold_valid(np.array([float(k)]), params)[0])


def _branching(kb_ratio: np.ndarray, params: SystemParams) -> np.ndarray:
    """f(theta_n) = sin^2 (sin^2 + (k_b/k) cos^2), given k_b/k (0 when b is closed)."""
    sin2 = params.sin2_theta
    return sin2 * (sin2 + kb_ratio * params.cos2_theta)


def _transmission_ultracold(k: np.ndarray, params: SystemParams):
    """(T, nondegenerate) at every point of k, with T nan where degenerate.

    `params` is a `SystemParams`, or a `_Dressed` record with one row per point.
    """
    channels = _channels(k, params)
    k_b, k_minus, _ = channels
    # k_b.real is exactly 0 for a closed channel
    f = _branching(k_b.real / k, params)
    inv_d, nondegenerate = _inverse_denominator(k, params, channels)
    tau2 = abs(_tau(k_minus, k, params.coupling_length)) ** 2
    return f * abs(inv_d) ** 2 * tau2, nondegenerate


def _p_em_closed_form(k: np.ndarray, params: SystemParams):
    """(P_em, ok) at every point of k; P_em is 0 where channel b is closed.

    The fast-varying phase is evaluated with the full lower-dressed
    wavenumber k_minus (= kappa_n sqrt(cot theta) at leading ultracold
    order), which keeps the expression in phase with the exact resonances.
    A degenerate denominator matters only where b is open: there `ok` is
    false and P_em is nan.
    """
    channels = _channels(k, params)
    k_b, k_minus, _ = channels
    is_open = _is_open(k_b)
    inv_d, nondegenerate = _inverse_denominator(k, params, channels)
    cot = params.cot_theta
    phase = k_minus.real * params.coupling_length
    kn = params.kappa_n
    i_of_l = abs(inv_d) ** 2
    num = 1.0 + 0.5 * cot * np.sin(2.0 * phase)
    den = 1.0 + (kn / (2.0 * k)) ** 2 * cot * np.sin(phase) ** 2
    value = (k_b.real / k) * 0.5 * i_of_l * num / den
    # value < 0 is a floating-point undershoot of the interference numerator
    value = np.where(value < 0.0, 0.0, value)
    return np.where(is_open, value, 0.0), np.where(is_open, nondegenerate, True)


def _checked(closed_form, k: np.ndarray, dressed) -> np.ndarray:
    """closed_form over the 1-d block k, raising at the first point not ok."""
    with np.errstate(all="ignore"):
        value, ok = closed_form(k, dressed)
    if not ok.all():
        raise DegeneracyError(f"degenerate resonance denominator at k={k[~ok][0]}")
    return value


def _at_points(closed_form, k, params, owner=None) -> np.ndarray:
    """The array entry contract: closed_form over the array k, raising where not ok.

    k, params and owner are as for `scattering._blockwise`.  Each scalar
    entry is `_checked` on one element, so it returns that element's bits.
    """
    return _blockwise(
        k, params, lambda k, dressed: (_checked(closed_form, k, dressed),), owner
    )[0]


def transmission_ultracold(k: float, params: SystemParams) -> float:
    """T = f(theta_n) I(L) |tau_minus(k)|^2; `ultracold_valid` says where it holds."""
    return _checked(_transmission_ultracold, np.array([_incident(k)]), params).item()


def transmissions_ultracold(k, params) -> np.ndarray:
    """`transmission_ultracold` at every point of the array k, bit for bit.

    k and params are as for `scattering.transmissions`.
    """
    return _at_points(_transmission_ultracold, k, params)


def p_em_ultracold(k: float, params: SystemParams) -> float:
    """Induced-emission probability of one ultracold atom with wavenumber k.

    Vanishes identically when the emission channel is closed
    ((k/kappa)^2 <= delta/g).
    """
    return _checked(_p_em_closed_form, np.array([_incident(k)]), params).item()


def _p_em_array(k, params: SystemParams) -> np.ndarray:
    """`p_em_ultracold` at every point of the array k, bit for bit, for one params."""
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
    k = np.array([_incident(k)])
    params = SystemParams(0.0, coupling_length, photon_number)
    k_minus = _channels(k, params)[1]  # > 0 at delta = 0, so tau_minus is regular
    with np.errstate(all="ignore"):
        return (0.5 * abs(_tau(k_minus, k, coupling_length)) ** 2).item()


def hot_cold_boundary(k: float, photon_number: int) -> float:
    """Detuning delta/g below which the atom leaves the cold regime.

    Given by -delta/g = (n+1) (kappa/k)^2; returns the (negative) delta/g.
    """
    k = _incident(k)
    if photon_number < 0:
        raise DomainError(f"photon_number must be >= 0, got {photon_number}")
    return -(photon_number + 1.0) / (k * k)


def _resonance_amplitudes(position: np.ndarray, params) -> np.ndarray:
    """`resonance_amplitude` at every (positive) peak position of the array.

    params is a `SystemParams`, or a `_Dressed` record with one row per peak.
    """
    k_b = _channels(position, params)[0]
    ratio = k_b.real / position
    amplitude = 4.0 * _branching(ratio, params) / (1.0 + ratio) ** 2
    return np.where(_is_open(k_b), amplitude, 1.0)


def resonance_amplitude(peak_position: float, params: SystemParams) -> float:
    """Peak amplitude A_m ~ 4 f(theta) / (1 + k_b/k)^2, or 1 when b is closed."""
    if not peak_position > 0.0:
        raise DomainError(f"peak position must be > 0, got {peak_position}")
    return _resonance_amplitudes(np.array([float(peak_position)]), params).item()


def _check_indices(m) -> None:
    if np.any(m < 1):
        raise DomainError(f"resonance index must be >= 1, got {np.min(m)}")


def _analytic_positions(m, params) -> np.ndarray:
    """`analytic_position` of every index in the array m; nan where it has no peak.

    params is a `SystemParams`, or a `_Dressed` record with one row per index.
    Each square is Python's ** (C pow), not numpy's x * x: the two differ in
    the last place on about 1 in 1,000 arguments.
    """
    x = m * math.pi / params.coupling_length
    rad = np.array([v**2 for v in x.tolist()]) - params.shift_minus
    return np.sqrt(np.where(rad > 0.0, rad, np.nan))


def analytic_position(m: int, params: SystemParams) -> float | None:
    """Eq.-(21)-style position sqrt((m pi / kL)^2 - sqrt(n+1) cot theta), m >= 1."""
    _check_indices(m)
    pos = float(_analytic_positions(np.array([m]), params)[0])
    return None if math.isnan(pos) else pos


def _peak_spacing(m, params) -> np.ndarray:
    """Distance from each peak m (where it exists) to its nearest analytic neighbour.

    m and params are as for `_analytic_positions`.
    """
    here = _analytic_positions(m, params)
    below = _analytic_positions(m - 1, params)  # nan for m = 1
    above = _analytic_positions(m + 1, params)  # exists wherever peak m does
    return np.fmin(here - below, above - here)


def _transmission_by_peak(record: _Dressed, owner: np.ndarray):
    """The ultracold T as f(k, i), where point j of k takes record row owner[i[j]]."""
    return lambda k, i: _at_points(_transmission_ultracold, k, record, owner[i])


def _located(record: _Dressed, owner: np.ndarray, m: np.ndarray):
    """(position, refined, spacing) of each peak m[i] of the record's row owner[i].

    position is nan where a peak does not exist.  Where channel b is closed
    at the analytic position (k^2 <= delta/g) the peak is refined (refined[i]
    is true): its position is the top of the ultracold transmission within
    half a spacing of the analytic one.
    """
    _check_indices(m)
    rows = record.take(owner)
    position = _analytic_positions(m, rows)
    spacing = _peak_spacing(m, rows)
    k_b = _channels(position, rows)[0]
    refined = ~np.isnan(position) & ~_is_open(k_b)
    if refined.any():
        seed, gap = position[refined], 0.5 * spacing[refined]
        position[refined] = _golden_max(
            _transmission_by_peak(record, owner[refined]),
            np.maximum(seed - gap, seed * 1e-6),
            seed + gap,
            seed * 1e-10,  # within ~1e-10 of a refined top, T is flat to rounding
        )
    return position, refined, spacing


_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def _golden_max(f, a, b, tol) -> np.ndarray:
    """Where each f(., i) is greatest in [a[i], b[i]], by golden-section search.

    f(x, i) evaluates element i[j] at x[j], for all the searches in one call
    per round.  Search i stops once its bracket is at most tol[i] wide, with
    the better of its two inner points, so it returns what it would alone.
    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 5.
    """
    out = np.empty_like(a)
    i = np.arange(a.size)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(f(np.concatenate((c, d)), np.concatenate((i, i))), 2)
    while i.size:
        done = b - a <= tol
        out[i[done]] = np.where(fc > fd, c, d)[done]
        i, a, b, c, d, fc, fd, tol = (v[~done] for v in (i, a, b, c, d, fc, fd, tol))
        left = fc > fd  # the top lies in [a, d]: d becomes b, and c becomes d
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx = f(x, i)
        c, d, fc, fd = (
            np.where(left, x, d),
            np.where(left, c, x),
            np.where(left, fx, fd),
            np.where(left, fc, fx),
        )
    return out


def peak_position(m: int, params: SystemParams) -> float | None:
    """Position of peak m (analytic, or refined where channel b is closed)."""
    pos = float(_peak_positions(m, _Dressed.stack([params]))[0])
    return None if math.isnan(pos) else pos


def _peak_positions(m: int, record: _Dressed) -> np.ndarray:
    """`peak_position` of peak m for every row of the record, in one batch; nan where none."""
    return _located(record, np.arange(record.size), np.full(record.size, m))[0]


def _widths(t, position, half, spacing) -> tuple[np.ndarray, np.ndarray]:
    """(FWHM, resolved) of each peak i, with T = t(k, i) and half its maximum.

    From the peak, each flank steps 1e-4 of the spacing out, doubling the
    step, until T drops below half; bisection then narrows that bracket to
    1e-16 + 1e-14 |k|.  A flank whose next step would reach k <= 0 ends at
    the peak, and one that walks further than the spacing ends there; the
    width is then not resolved.  All flanks walk, then bisect, in lockstep.
    """
    n = position.size
    # flank j < n is peak j's right one, flank n + j its left one
    peak = np.tile(np.arange(n), 2)
    direction = np.repeat([1.0, -1.0], n)
    start, reach, level = position[peak], spacing[peak], half[peak]
    crossing = start + direction * reach  # merged neighbours
    found = np.zeros(2 * n, dtype=bool)
    inner, outer = np.empty(2 * n), np.empty(2 * n)
    j, q, step = np.arange(2 * n), start, reach * 1e-4
    while j.size:
        q_next = q + direction[j] * step
        edge = q_next <= 0.0
        crossing[j[edge]] = start[j[edge]]  # no crossing inside the physical domain
        j, q, q_next, step = (v[~edge] for v in (j, q, q_next, step))
        below = t(q_next, peak[j]) < level[j]
        found[j[below]] = True
        inner[j[below]], outer[j[below]] = q[below], q_next[below]
        j, q, step = (v[~below] for v in (j, q_next, 2.0 * step))
        within = abs(q - start[j]) <= reach[j]
        j, q, step = j[within], q[within], step[within]
    j = np.flatnonzero(found)
    a, b = inner[j], outer[j]
    while j.size:
        mid = 0.5 * (a + b)
        done = abs(b - a) < 1e-16 + 1e-14 * abs(mid)
        crossing[j[done]] = mid[done]
        j, a, b, mid = (v[~done] for v in (j, a, b, mid))
        below = t(mid, peak[j]) < level[j]
        a, b = np.where(below, a, mid), np.where(below, mid, b)
    return crossing[:n] - crossing[n:], found[:n] & found[n:]


def _catalogs(
    params: Sequence[SystemParams],
    m_ranges: Sequence[tuple[int, int]],
    k_min: float,
    k_max: float,
) -> list[list[ResonancePeak]]:
    """Each params[i]'s catalog: its peaks m_ranges[i] with k_min < position <= k_max.

    Every index is located first; only the kept peaks pay for their
    amplitude and width.  Each round of the searches is one array call over
    all the peaks still searching, of every params.
    """
    owner = np.repeat(np.arange(len(params)), [hi - lo + 1 for lo, hi in m_ranges])
    m = np.concatenate(
        [np.empty(0, int), *(np.arange(lo, hi + 1) for lo, hi in m_ranges)]
    )
    record = _Dressed.stack(params)
    position, refined, spacing = _located(record, owner, m)
    kept = (k_min < position) & (position <= k_max)
    owner, m, position, refined, spacing = (
        v[kept] for v in (owner, m, position, refined, spacing)
    )
    t = _transmission_by_peak(record, owner)
    amplitude = t(position, np.arange(position.size))
    width, resolved = _widths(t, position, 0.5 * amplitude, spacing)
    catalogs: list[list[ResonancePeak]] = [[] for _ in params]
    for i, *peak in zip(
        owner.tolist(), m.tolist(), position.tolist(), amplitude.tolist(),
        width.tolist(), resolved.tolist(), refined.tolist(),
    ):
        catalogs[i].append(ResonancePeak(*peak))
    return catalogs


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
    return _catalogs([params], [m_range], -math.inf, math.inf)[0]


def catalog_in_window(
    params: SystemParams, k_max: float, k_min: float = 0.0
) -> list[ResonancePeak]:
    """All resonance peaks with positions in (k_min, k_max]."""
    return _catalogs_in_window([params], k_max, k_min)[0]


def _catalogs_in_window(
    params: Sequence[SystemParams], k_max: float, k_min: float = 0.0
) -> list[list[ResonancePeak]]:
    """`catalog_in_window` of every params, in one batch."""
    if k_min > k_max:
        raise DomainError(f"empty window: k_min {k_min} > k_max {k_max}")
    k_lo = max(k_min, 0.0)  # positions are > 0, so a negative k_min adds no peak
    m_ranges = []
    for p in params:
        scale = p.coupling_length / math.pi
        m_lo = max(1, math.floor(math.sqrt(p.shift_minus + k_lo * k_lo) * scale))
        m_hi = math.ceil(math.sqrt(p.shift_minus + k_max * k_max) * scale) + 1
        m_ranges.append((m_lo, m_hi))
    return _catalogs(params, m_ranges, k_min, k_max)
