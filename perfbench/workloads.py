"""Workloads of the mazer benchmark and the checks on their outputs.

A workload is a fixed list of CLI jobs that one pass runs in sequence.
Each job writes one CSV file; its check reads that file back and records,
in a Tally, how many rows it verified and how many failed.  The seed only
chooses the oracle-check sample and which rows are spot-checked: the
figure and fig-4 configurations are the paper's.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from mazer import cli
from mazer.core import SystemParams
from mazer.oracle import ModeFunction, solve

HERE = Path(__file__).resolve().parent
PUMP_REFERENCE = HERE / "reference" / "pump_seed.json"

# Closed form vs coupled-channel oracle, the gate of `mazer oracle-check`.
ORACLE_TOL = 1e-9
# pump.QUAD_ABS_TOL at the seed commit; fixed here so the gate cannot move
# with the program.
QUAD_TOL = 1e-8
# selection.POPULATION_CUTOFF: photon states lighter than this are skipped.
POPULATION_CUTOFF = 1e-9
# Formula checks on values the program prints with 17 digits.
FORMULA_TOL = 1e-12
SAMPLE_ROWS = 50

# Fig. 4: kappa L = 200 pi, r/C = 100, n_b = 0.2, k0 = 0.05, k_max = 0.2.
FIG4_KL = 200.0 * math.pi
FIG4_K0 = 0.05
FIG4_KMAX = 0.2
FIG4_POINTS = 1001
PUMP_DELTAS = ("-0.002", "0", "0.002", "0.005")
SELECT_DELTA = "0.002"


class Tally:
    """Rows checked, rows failed, and the largest oracle deviation seen."""

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.max_dev = 0.0
        self.notes: list[str] = []

    def add(self, ok: bool, note: str = "") -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def deviation(self, dev: float) -> None:
        self.max_dev = max(self.max_dev, dev)


@dataclass(frozen=True)
class Job:
    """One `mazer` invocation; `--out <file>` is appended by the runner."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[Path, random.Random, Tally], None]


def pump_argv(delta: str) -> tuple[str, ...]:
    return (
        "pump", f"--delta={delta}", "--coupling-length", repr(FIG4_KL),
        "--pump-ratio", "100", "--n-b", "0.2", "--k0", repr(FIG4_K0),
        "--k-max", repr(FIG4_KMAX), "--points", str(FIG4_POINTS),
    )


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass of `workload`."""
    if workload == "select":
        return [Job(
            "select",
            ("select", "--preset", "fig4b", f"--delta={SELECT_DELTA}"),
            check_select,
        )]
    if workload == "pump":
        return [
            Job(f"pump.d{d}", pump_argv(d), _pump_check(d)) for d in PUMP_DELTAS
        ]
    if workload == "figures":
        fig1, fig3 = 1e3 * math.pi, 1000.0
        return [
            Job("fig1a", ("transmission", "--preset", "fig1a"), _transmission_check(fig1)),
            Job("fig1b", ("transmission", "--preset", "fig1b"), _transmission_check(fig1)),
            Job("fig2", ("amplitude", "--preset", "fig2"), _amplitude_check(fig1, 1001)),
            Job("fig3a", ("transmission", "--preset", "fig3a"), _transmission_check(fig3)),
            Job("fig3b", ("transmission", "--preset", "fig3b"), _transmission_check(fig3)),
        ]
    if workload == "oracle":
        return [Job(
            "oracle",
            ("oracle-check", "--samples", "10000", "--seed", str(seed)),
            _oracle_check(10000),
        )]
    raise ValueError(f"unknown workload {workload!r}")


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sample(rows: list, rng: random.Random) -> list:
    picks = rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows)))
    return [rows[i] for i in sorted(picks)]


def _oracle_transmissions(k: float, delta: float, kl: float, n: int) -> tuple[float, float]:
    """(T_a, T_b) from the boundary-matching solver, never the closed form."""
    o = solve(ModeFunction.mesa(kl), k, SystemParams(delta, kl, n))
    kb2 = k * k - delta
    t_b = (math.sqrt(kb2) / k) * abs(o.t_b) ** 2 if kb2 > 0.0 else 0.0
    return abs(o.t_a) ** 2, t_b


def _transmission_check(kl: float):
    def check(path: Path, rng: random.Random, tally: Tally) -> None:
        for row in _sample(_rows(path), rng):
            k, d = float(row["k"]), float(row["delta"])
            t_a, t_b = float(row["T_a"]), float(row["T_b"])
            o_a, o_b = _oracle_transmissions(k, d, kl, 0)
            dev = max(abs(t_a - o_a), abs(t_b - o_b))
            tally.deviation(dev)
            total_ok = abs(float(row["T_total"]) - (t_a + t_b)) <= FORMULA_TOL
            tally.add(dev <= ORACLE_TOL and total_ok,
                      f"{path.name} k={k!r} delta={d!r} dev={dev:.3e}")
    return check


def _amplitude_check(kl: float, m: int):
    """Fig. 2 rows: positions and amplitudes against the paper's formulas."""
    def check(path: Path, rng: random.Random, tally: Tally) -> None:
        for row in _sample(_rows(path), rng):
            d, pos, amp = float(row["delta"]), float(row["position"]), float(row["amplitude"])
            theta = 0.5 * math.atan2(2.0, -d)  # n = 0
            sin2, cos2 = math.sin(theta) ** 2, math.cos(theta) ** 2
            rad = (m * math.pi / kl) ** 2 - 1.0 / math.tan(theta)
            ok = int(row["m"]) == m and pos > 0.0 and rad > 0.0
            if ok and rad > d:  # open b channel: the position is analytic
                analytic = math.sqrt(rad)
                ok = abs(pos - analytic) <= FORMULA_TOL * analytic
            kb2 = pos * pos - d
            if kb2 <= 0.0:
                expected = 1.0
            else:
                ratio = math.sqrt(kb2) / pos
                expected = 4.0 * sin2 * (sin2 + ratio * cos2) / (1.0 + ratio) ** 2
            ok = ok and abs(amp - expected) <= FORMULA_TOL
            tally.add(ok, f"{path.name} delta={d!r} position={pos!r} amplitude={amp!r}")
    return check


def _oracle_check(samples: int):
    def check(path: Path, rng: random.Random, tally: Tally) -> None:
        rows = _rows(path)
        for row in rows:
            dev = max(float(row[c]) for c in ("delta_T_a", "delta_T_b", "flux_error"))
            tally.deviation(dev)
            tally.add(dev <= ORACLE_TOL, f"{path.name} k={row['k']} dev={dev:.3e}")
        for _ in range(samples - len(rows)):
            tally.add(False, f"{path.name}: missing row")
    return check


def _pump_reference() -> dict:
    with open(PUMP_REFERENCE) as fh:
        return json.load(fh)["deltas"]


def _pump_check(delta: str):
    """p_st is a distribution, mean_p_em a probability, both as recorded."""
    def check(path: Path, rng: random.Random, tally: Tally) -> None:
        ref = _pump_reference()[delta]
        rows = _rows(path)
        p_st = [float(r["p_st"]) for r in rows]
        sums_to_one = abs(math.fsum(p_st) - 1.0) <= FORMULA_TOL
        for i, row in enumerate(rows):
            p, mem = p_st[i], float(row["mean_p_em"])
            ok = (
                int(row["n"]) == i and sums_to_one and p >= 0.0 and 0.0 <= mem <= 1.0
                and i < len(ref["p_st"])
                and abs(p - ref["p_st"][i]) <= QUAD_TOL
                and abs(mem - ref["mean_p_em"][i]) <= QUAD_TOL
            )
            tally.add(ok, f"{path.name} n={i} p_st={p!r} mean_p_em={mem!r}")
        for i in range(len(rows), len(ref["p_st"])):
            tally.add(False, f"{path.name}: missing row n={i}")
    return check


def _initial_interpolator() -> PchipInterpolator:
    """The fig-4 Maxwell-Boltzmann beam density, as the CLI samples it."""
    grid = np.linspace(0.0, FIG4_KMAX, FIG4_POINTS)
    dens = grid * grid * np.exp(-((grid / FIG4_K0) ** 2))
    dens = dens / np.trapezoid(dens, grid)
    return PchipInterpolator(grid, dens, extrapolate=False)


def _density(pi: PchipInterpolator, k: float) -> float:
    value = float(pi(k))
    return value if math.isfinite(value) else 0.0


def check_select(path: Path, rng: random.Random, tally: Tally) -> None:
    """Recompute sampled rows with the oracle in place of `scatter`.

    final = P_i(k) <T_a(k)> + P_i(k') <T_b(k')> with k'^2 = k^2 + delta and
    <.> the average over the program's own stationary photon distribution.
    The deviation is taken in transmission units, divided by the sum of the
    two densities, so that the 1e-9 oracle gate applies.
    """
    delta = float(SELECT_DELTA)
    pump_out = path.with_name("select_check_pump.csv")
    if cli.main([*pump_argv(SELECT_DELTA), "--out", str(pump_out)]) != 0:
        tally.add(False, "photon distribution for the select check failed")
        return
    probs = [float(r["p_st"]) for r in _rows(pump_out)]
    pi = _initial_interpolator()

    def averaged(k: float, channel: int) -> float:
        return math.fsum(
            p * _oracle_transmissions(k, delta, FIG4_KL, n)[channel]
            for n, p in enumerate(probs)
            if p >= POPULATION_CUTOFF
        )

    for row in _sample(_rows(path), rng):
        k = float(row["k"])
        final = float(row["final_density"])
        pik = _density(pi, k)
        init_ok = abs(float(row["initial_density"]) - pik) <= FORMULA_TOL * max(pik, 1.0)
        delta_ok = float(row["delta"]) == delta
        if k <= 0.0:  # no incident atoms: the program writes 0, the oracle has no answer
            tally.add(delta_ok and init_ok and final == 0.0,
                      f"{path.name} k={k!r} final_density={final!r}, expected 0")
            continue
        expected, scale = pik * averaged(k, 0), pik
        if k * k + delta > 0.0:
            kp = math.sqrt(k * k + delta)
            pikp = _density(pi, kp)
            if pikp > 0.0:
                expected += pikp * averaged(kp, 1)
                scale += pikp
        dev = abs(final - expected) / scale if scale > 0.0 else abs(final)
        tally.deviation(dev)
        tally.add(
            delta_ok and init_ok and dev <= ORACLE_TOL,
            f"{path.name} k={k!r} dev={dev:.3e}",
        )


WORKLOADS = ("select", "pump", "figures", "oracle")
# Every job name of every workload, for the per-job trace metrics.
ALL_JOBS = tuple(job.name for w in WORKLOADS for job in jobs(w, 0))
