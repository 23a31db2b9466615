"""Acceptance gate: the eight quantitative anchors of the library.

Each test evaluates one criterion end to end at its stated tolerance and
prints a single PASS/FAIL line (run with -s or look at captured output).
"""

import math

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from mazer.core import SystemParams
from mazer.oracle import ModeFunction, solve
from mazer.pump import PumpParams, mean_p_em, stationary_distribution, thermal_distribution
from mazer.scattering import scatter
from mazer.selection import final_distribution, maxwell_boltzmann_initial
from mazer.ultracold import (
    analytic_position,
    catalog_in_window,
    loeffler_resonant,
    transmission_ultracold,
)

KL1000PI = 1e3 * math.pi
KL200PI = 200.0 * math.pi


def report(index: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} ({name}): {status} — {detail}")
    assert ok, f"acceptance criterion {index} ({name}): {detail}"


def test_acceptance_1_resonant_reduction():
    worst = 0.0
    for n in (0, 1, 2):
        kn = (n + 1) ** 0.25
        for kl in (KL200PI, KL1000PI):
            params = SystemParams(0.0, kl, n)
            for k in np.linspace(0.002, 0.1 * kn, 80):
                diff = abs(
                    scatter(float(k), params).T_total
                    - loeffler_resonant(float(k), kl, n)
                )
                worst = max(worst, diff)
    report(
        1,
        "resonant reduction to the factorized delta=0 form",
        worst < 1e-6,
        f"max |T_exact - T_reduced| = {worst:.3e} (tolerance 1e-6)",
    )


def test_acceptance_2_peak_geometry():
    params = SystemParams(0.0, KL1000PI, 0)
    worst_pos = 0.0
    worst_height = 0.0
    first = analytic_position(1001, params)
    for m in (1001, 1002, 1003, 1004):
        seed = analytic_position(m, params)
        lo = analytic_position(m - 1, params) or seed * 0.5
        hi = analytic_position(m + 1, params)
        opt = minimize_scalar(
            lambda q: -scatter(q, params).T_total,
            bounds=(0.5 * (lo + seed), 0.5 * (seed + hi)),
            method="bounded",
            options={"xatol": 1e-13},
        )
        worst_pos = max(worst_pos, abs(float(opt.x) - seed))
        worst_height = max(worst_height, abs(-opt.fun - 0.5))
    ok = worst_pos < 1e-8 and worst_height < 1e-6 and abs(first - 0.04473) < 5e-6
    report(
        2,
        "peak positions at the half-wavelength condition, height 1/2",
        ok,
        f"max position error {worst_pos:.3e} (tol 1e-8), "
        f"max height error {worst_height:.3e} (tol 1e-6), "
        f"first peak m=1001 at k/kappa={first:.6f}",
    )


def test_acceptance_3_closed_channel_amplitude():
    params = SystemParams(0.005, KL1000PI, 0)
    closed = [
        p for p in catalog_in_window(params, 0.08) if p.position < math.sqrt(0.005)
    ]
    assert closed, "no closed-channel peaks found"
    worst = 0.0
    for p in closed:
        opt = minimize_scalar(
            lambda q: -scatter(q, params).T_total,
            bounds=(p.position - 5 * p.width, p.position + 5 * p.width),
            method="bounded",
            options={"xatol": 1e-14},
        )
        worst = max(worst, abs(-opt.fun - 1.0))
    report(
        3,
        "closed-channel resonance amplitudes reach 1",
        worst < 1e-6,
        f"{len(closed)} peaks below sqrt(delta/g), max |T_peak - 1| = {worst:.3e}"
        " (tolerance 1e-6)",
    )


def test_acceptance_4_hot_cold_window_edge():
    k = 0.05
    takeoff = None
    for d in np.arange(-350.0, -500.0, -0.25):
        if scatter(k, SystemParams(float(d), 1000.0, 0)).T_total > 0.05:
            takeoff = float(d)
            break
    ok = takeoff is not None and -420.0 <= takeoff <= -380.0
    report(
        4,
        "transmission-vs-detuning curve changes abruptly near -400",
        ok,
        f"transmission first exceeds 0.05 at delta/g = {takeoff} "
        "(expected -400 +/- 5%)",
    )


def test_acceptance_5_width_in_hz():
    # kappa L = 1e5, k/kappa = 0.01, n = 0: FWHM of one resonance of T vs
    # delta/g, converted with g = 100 kHz (angular rate; reported in Hz)
    k = 0.01
    kl = 1e5
    g_hz = 1e5

    def t_of_delta(d: float) -> float:
        return transmission_ultracold(k, SystemParams(d, kl, 0))

    # seed the resonance nearest delta = 0: cot(theta) = (m pi / kL)^2 - k^2
    m = round(math.sqrt(k * k + 1.0) * kl / math.pi)
    c = (m * math.pi / kl) ** 2 - k * k
    seed = 1.0 / c - c
    opt = minimize_scalar(
        lambda d: -t_of_delta(d),
        bounds=(seed - 2e-5, seed + 2e-5),
        method="bounded",
        options={"xatol": 1e-14},
    )
    pos, height = float(opt.x), -opt.fun

    def crossing(direction: int) -> float:
        g = lambda d: t_of_delta(d) - 0.5 * height
        step = 1e-8
        d = pos
        while True:
            d_next = d + direction * step
            if g(d_next) < 0.0:
                lo, hi = sorted((d, d_next))
                return brentq(g, lo, hi, xtol=1e-16)
            d, step = d_next, step * 2.0

    width_delta = crossing(+1) - crossing(-1)
    width_hz = width_delta * g_hz / (2.0 * math.pi)
    ok = 1e-2 / 3.0 <= width_hz <= 3e-2
    report(
        5,
        "resonance width ~1e-2 Hz at kappa L = 1e5, g = 100 kHz",
        ok,
        f"FWHM = {width_delta:.3e} in delta/g = {width_hz:.4f} Hz "
        "(expected 1e-2 Hz within a factor of 3)",
    )


def test_acceptance_6_oracle_equivalence():
    rng = np.random.default_rng(20040217)
    worst_t = 0.0
    worst_flux = 0.0
    for _ in range(1000):
        k = 10.0 ** rng.uniform(-3, 0)
        d = rng.uniform(-500.0, 10.0)
        n = int(rng.integers(0, 4))
        kl = 10.0 ** rng.uniform(2, 4)
        params = SystemParams(d, kl, n)
        closed = scatter(k, params)
        o = solve(ModeFunction.mesa(kl), k, params)
        kb2 = k * k - d
        tb = (math.sqrt(kb2) / k) * abs(o.t_b) ** 2 if kb2 > 0 else 0.0
        worst_t = max(
            worst_t,
            abs(closed.T_a - abs(o.t_a) ** 2),
            abs(closed.T_b - tb),
        )
        worst_flux = max(worst_flux, abs(o.flux_sum - 1.0))
    ok = worst_t < 1e-9 and worst_flux < 1e-9
    report(
        6,
        "closed form vs coupled-channel solver over 1000 random points",
        ok,
        f"max |Delta T| = {worst_t:.3e}, max |flux - 1| = {worst_flux:.3e} "
        "(tolerance 1e-9)",
    )


def test_acceptance_7_detuning_and_thermal_limits():
    t_open = scatter(0.05, SystemParams(1e6, 1000.0, 0)).T_total
    n_b = 0.2
    thermal = thermal_distribution(n_b, 32)
    ratio = n_b / (1.0 + n_b)
    norm = 1.0 - ratio ** len(thermal.probabilities)
    worst = max(
        abs(p - (1.0 - ratio) * ratio**n / norm)
        for n, p in enumerate(thermal.probabilities)
    )
    ok = t_open > 0.999 and worst < 1e-12
    report(
        7,
        "large-detuning transparency and exact thermal limit",
        ok,
        f"T(delta/g=1e6) = {t_open:.10f} (> 0.999), "
        f"max thermal deviation {worst:.3e} (tolerance 1e-12)",
    )


def test_acceptance_8_velocity_selection_pipeline():
    init = maxwell_boltzmann_initial(0.05, np.linspace(0.0, 0.2, 1001))
    pump = PumpParams(thermal_photons=0.2, pump_ratio=100.0, truncation=64)

    results = {}
    for d in (0.0, 0.002, 0.005):
        base = SystemParams(d, KL200PI, 0)
        cache = {}

        def mem(ns: range) -> list[float]:
            missing = [n for n in ns if n not in cache]
            if missing:
                cache.update(zip(missing, mean_p_em(missing, init, base)))
            return [cache[n] for n in ns]

        dist = stationary_distribution(pump, mem)
        fin = final_distribution(init, dist, base)
        dens = np.asarray(fin.density)
        grid = np.asarray(fin.grid)
        i_max = int(np.argmax(dens))
        above_half = grid[dens > 0.5 * dens[i_max]]
        results[d] = {
            "peak_k": float(grid[i_max]),
            "peak_height": float(dens[i_max]),
            "half_span": float(above_half.max() - above_half.min()),
        }

    r0, r2, r5 = results[0.0], results[0.002], results[0.005]
    dominated = r0["half_span"] < 0.02
    moves = (
        abs(r2["peak_k"] - r0["peak_k"]) > 1e-3
        or abs(r5["peak_k"] - r0["peak_k"]) > 1e-3
    )
    grows = r0["peak_height"] < r2["peak_height"] < r5["peak_height"]
    ok = dominated and moves and grows
    report(
        8,
        "velocity selection: narrow dominant peak steered/enhanced by detuning",
        ok,
        f"delta=0 peak at k={r0['peak_k']:.4f} height {r0['peak_height']:.2f} "
        f"(half-max span {r0['half_span']:.4f}); "
        f"delta=0.002 -> k={r2['peak_k']:.4f} h={r2['peak_height']:.2f}; "
        f"delta=0.005 -> k={r5['peak_k']:.4f} h={r5['peak_height']:.2f}",
    )
