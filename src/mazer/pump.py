"""Micromaser photon-field statistics driven by the ultracold atomic beam.

The induced-emission probability of a single traversing atom
(`ultracold.p_em_ultracold`) averaged over the incident velocity
distribution, and the stationary photon-number distribution that the
pumped, damped cavity settles into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ._qagp import QagpProblem, qagp
from .core import DomainError, SystemParams
from .scattering import ARRAY_BLOCK
from .ultracold import ResonancePeak, _catalogs_in_window, _p_em_by_owner

if TYPE_CHECKING:  # pragma: no cover
    from .selection import VelocityDistribution

QUAD_ABS_TOL = 1e-8
# `mean_p_em` integrates together the photon numbers whose first-pass Kronrod
# nodes fit in this many (the fig-4 config needs 7,600-8,100 for n = 0..63);
# a photon number that needs more runs alone
NODE_BUDGET = 16 * ARRAY_BLOCK


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
    ns: Sequence[int],
    initial: "VelocityDistribution",
    params_base: SystemParams,
) -> list[float]:
    """Beam-averaged induced-emission probability for each cavity photon number in ns.

    Integrates P_em(n, k) P_i(k) dk over the support of the initial
    distribution with breakpoints seeded at every catalogued resonance of n
    (the catalogs of all of ns are built in one batch);
    the transmission peaks are orders of magnitude narrower than the beam
    distribution and plain adaptive quadrature walks straight over them.
    P_em is `p_em_ultracold`, the whole lower-state flux, transmitted plus
    reflected.  The integrals run in lockstep (`qagp`), in groups whose
    first-pass Kronrod nodes stay within `NODE_BUDGET`; each n takes the
    bisections and returns the value it would alone.  Raises
    ArithmeticError, naming the lowest such n, if a quadrature stops at its
    subdivision limit or returns a non-finite value.
    """
    norm = initial.integral()
    if abs(norm - 1.0) > 1e-6:
        raise DomainError(
            f"initial velocity distribution must be normalized, integral={norm}"
        )
    lo = max(float(initial.grid[0]), 1e-12)
    hi = float(initial.grid[-1])
    params = [
        SystemParams(params_base.detuning_ratio, params_base.coupling_length, n)
        for n in ns
    ]
    problems = [_problem(c, lo, hi) for c in _catalogs_in_window(params, hi, lo)]
    results = []
    for group in _groups(zip(params, problems)):
        group_params, group_problems = zip(*group)
        results += qagp(_integrand(initial, group_params), group_problems)
    values = []
    for n, result in zip(ns, results):
        # ier = 2 (roundoff) is left alone: coarse but valid runs reach it
        if result.ier == 1:
            raise ArithmeticError(
                f"beam-averaged emission probability for n={n} stopped at the "
                f"subdivision limit (ier={result.ier}, abserr={result.abserr:.3g})"
            )
        if not math.isfinite(result.value):
            raise ArithmeticError(
                f"beam-averaged emission probability for n={n} is {result.value}"
            )
        values.append(min(max(result.value, 0.0), 1.0))
    return values


def _problem(catalog: Sequence[ResonancePeak], lo: float, hi: float) -> QagpProblem:
    """The quadrature over [lo, hi] for the photon number n whose catalog is given.

    Its breakpoints are n's catalogued peaks and the points 5 widths to
    either side of each.
    """
    points = []
    for peak in catalog:
        points.append(peak.position)
        for off in (-5.0, 5.0):
            q = peak.position + off * max(peak.width, 1e-12)
            if lo < q < hi:
                points.append(q)
    points = sorted(set(points))
    return QagpProblem(
        lo,
        hi,
        points,
        epsabs=QUAD_ABS_TOL,
        epsrel=1e-10,
        # room to bisect each of the len(points) + 1 intervals at least once
        limit=max(400, 2 * (len(points) + 1)),
    )


def _groups(pairs: Iterable[tuple[SystemParams, QagpProblem]]):
    """Runs of consecutive (params, problem) whose first-pass nodes fit in `NODE_BUDGET`."""
    group: list = []
    nodes = 0
    for pair in pairs:
        need = 21 * (len(pair[1].points) + 1)  # 21 Kronrod nodes per interval
        if group and nodes + need > NODE_BUDGET:
            yield group
            group, nodes = [], 0
        group.append(pair)
        nodes += need
    if group:
        yield group


def _integrand(initial: "VelocityDistribution", params: Sequence[SystemParams]):
    """P_em(k) P_i(k) as f(k, owner), point i taking params[owner[i]].

    Evaluated `ARRAY_BLOCK` points at a time, which bounds its temporaries.
    """
    p_em = _p_em_by_owner(params)

    def integrand(k: np.ndarray, owner: np.ndarray) -> np.ndarray:
        out = np.zeros_like(k)
        for lo in range(0, k.size, ARRAY_BLOCK):
            block = slice(lo, lo + ARRAY_BLOCK)
            kb, ob = k[block], owner[block]
            w = initial.density_at(kb)
            inside = w > 0.0
            out[block][inside] = w[inside] * p_em(kb[inside], ob[inside])
        return out

    return integrand


def stationary_distribution(
    pump: PumpParams, mean_em: Callable[[range], Sequence[float]]
) -> PhotonDistribution:
    """Stationary photon distribution of the pumped, damped cavity.

    P(n) proportional to prod_{m=1..n} [n_b + (r/C) Pbar_em(m-1)/m]/(n_b+1),
    built in log space and normalized.  The truncation grows until the tail
    probability drops below 1e-12.  `mean_em` takes a `range` of photon
    numbers and returns their Pbar_em in order: it is called once for
    0..N_max-1 and once more each time the truncation doubles.
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
        ns = range(len(log_ratios), to)
        for n, em in zip(ns, mean_em(ns), strict=True):
            if not math.isfinite(em):
                raise ConfigurationError(
                    f"mean emission probability for n={n} is {em}"
                )
            m = n + 1
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
        lambda ns: [0.0] * len(ns),
    )
