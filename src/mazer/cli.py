"""Command-line surface: sweeps, resonance catalogs, figure presets, oracle checks.

Output is deterministic (17 significant digits, '.' decimal separator,
'\\n' line endings) so identical configurations produce byte-identical
files.  Physical-unit conversion happens only here: with --g-hz the
coupling g is read as an angular rate in s^-1 and all reported frequency
widths are ordinary Hz (angular widths divided by 2 pi).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from .core import DomainError, SystemParams, _flux_b, _sqrt_upper_c
from .oracle import ModeFunction, solve
from .pump import PumpParams, mean_p_em, stationary_distribution
from .scattering import scatter, transmissions
from .selection import final_distribution, maxwell_boltzmann_initial, refined_grid
from .ultracold import (
    catalog_in_window,
    peak_position,
    resonance_amplitude,
    resonance_positions,
    transmission_ultracold,
)

TWO_PI = 2.0 * math.pi

PRESETS: dict[str, dict] = {
    # transmission vs k/kappa at kappa L = 1e3 pi, n = 0
    "fig1a": {
        "command": "transmission",
        "sweep": "k",
        "delta": [0.0],
        "k_min": 0.002,
        "k_max": 0.1,
        "points": 4000,
        "coupling_length": 1e3 * math.pi,
        "photon_number": 0,
        "refine": True,
    },
    "fig1b": {
        "command": "transmission",
        "sweep": "k",
        "delta": [-0.005, 0.005],
        "k_min": 0.002,
        "k_max": 0.1,
        "points": 4000,
        "coupling_length": 1e3 * math.pi,
        "photon_number": 0,
        "refine": True,
    },
    # amplitude of the 1001st resonance vs detuning
    "fig2": {
        "command": "amplitude",
        "m": 1001,
        "delta_min": -0.01,
        "delta_max": 0.01,
        "points": 2001,
        "coupling_length": 1e3 * math.pi,
        "photon_number": 0,
    },
    # transmission vs detuning, k/kappa = 0.05, kappa L = 1000, n = 0
    "fig3a": {
        "command": "transmission",
        "sweep": "delta",
        "k": 0.05,
        "delta_min": -5.0,
        "delta_max": 5.0,
        "points": 5001,
        "coupling_length": 1000.0,
        "photon_number": 0,
    },
    "fig3b": {
        "command": "transmission",
        "sweep": "delta",
        "k": 0.05,
        "delta_min": -600.0,
        "delta_max": 100.0,
        "points": 7001,
        "coupling_length": 1000.0,
        "photon_number": 0,
    },
    # velocity selection, kappa L = 200 pi, r/C = 100, n_b = 0.2
    "fig4a": {
        "command": "select",
        "delta": [0.0],
        "coupling_length": 200.0 * math.pi,
        "pump_ratio": 100.0,
        "n_b": 0.2,
        "k0": 0.05,
        "k_max": 0.2,
        "points": 1001,
    },
    "fig4b": {
        "command": "select",
        "delta": [-0.002, 0.002, 0.005],
        "coupling_length": 200.0 * math.pi,
        "pump_ratio": 100.0,
        "n_b": 0.2,
        "k0": 0.05,
        "k_max": 0.2,
        "points": 1001,
    },
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _emit(columns: Sequence[str], rows: Iterable[Sequence], args) -> None:
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        if args.format == "csv":
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            payload = [
                {c: (bool(v) if isinstance(v, bool) else v) for c, v in zip(columns, row)}
                for row in rows
            ]
            json.dump(
                {"columns": list(columns), "rows": payload},
                out,
                indent=2,
                default=float,
            )
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


_BOOLEAN_VALUES = {
    "1": True, "true": True, "yes": True, "0": False, "false": False, "no": False,
}


def _read_config(path: str, sp: argparse.ArgumentParser) -> dict:
    """key = value lines; keys mirror the long flag names (with underscores).

    Each value is parsed as the subcommand's own `--key value...` tokens, so
    the flag's type, nargs and choices apply; boolean flags take
    1/true/yes or 0/false/no.  Every bad line is reported as `path:lineno`.
    """
    known = vars(sp.parse_args([]))
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        sp.error(f"cannot read config: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            sp.error(f"{where}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in known:
            sp.error(f"{where}: unknown config key {key!r}")
        if isinstance(known[key], bool):
            if val.lower() not in _BOOLEAN_VALUES:
                sp.error(
                    f"{where}: {key}: expected 1/true/yes or 0/false/no, got {val!r}"
                )
            values[key] = _BOOLEAN_VALUES[val.lower()]
            continue
        sp.exit_on_error = False  # raise ArgumentError, to prefix `where`
        try:
            ns, extra = sp.parse_known_args(
                ["--" + key.replace("_", "-"), *val.split()]
            )
        except argparse.ArgumentError as exc:
            sp.error(f"{where}: {exc}")
        finally:
            sp.exit_on_error = True
        if extra:
            sp.error(f"{where}: unrecognized arguments: {' '.join(extra)}")
        values[key] = getattr(ns, key)
    return values


def _sweep_grid(lo: float, hi: float, points: int) -> np.ndarray:
    if points <= 0:
        return np.array([])
    return np.linspace(lo, hi, points)


def cmd_transmission(args) -> int:
    columns = ["k", "delta", "T_a", "T_b", "T_total", "T_ultracold", "uc_valid"]
    if args.g_hz is not None:
        columns.append("delta_hz")
    rows = []
    if args.sweep == "k":
        for d in args.delta:
            params = SystemParams(d, args.coupling_length, args.photon_number)
            grid = _sweep_grid(args.k_min, args.k_max, args.points)
            if args.refine and grid.size:
                grid = refined_grid(grid, args.k_min, args.k_max, [params])
            t_a, t_b = transmissions(grid, params)
            for k, a, b in zip(grid, t_a, t_b):
                rows.append(_transmission_row(float(k), d, params, a, b, args))
    else:
        # the parameters change on every row, so each row is one scalar call
        grid = _sweep_grid(args.delta_min, args.delta_max, args.points)
        for d in grid:
            params = SystemParams(float(d), args.coupling_length, args.photon_number)
            res = scatter(args.k, params)
            rows.append(
                _transmission_row(args.k, float(d), params, res.T_a, res.T_b, args)
            )
    _emit(columns, rows, args)
    return 0


def _transmission_row(k: float, d: float, params: SystemParams, t_a, t_b, args):
    uc = transmission_ultracold(k, params)
    row = [k, d, t_a, t_b, t_a + t_b, uc.value, uc.valid]
    if args.g_hz is not None:
        row.append(d * args.g_hz / TWO_PI)
    return row


def cmd_resonances(args) -> int:
    params = SystemParams(args.delta, args.coupling_length, args.photon_number)
    if args.k_max is not None:
        peaks = catalog_in_window(params, args.k_max, args.k_min or 0.0)
    else:
        peaks = resonance_positions(params, (args.m_min, args.m_max))
    columns = ["m", "position", "amplitude", "width", "refined"]
    if args.g_hz is not None:
        columns.append("width_hz")
    rows = []
    for p in peaks:
        row = [p.index, p.position, p.amplitude, p.width, p.refined]
        if args.g_hz is not None:
            # kinetic-energy width: E/hbar = g (k/kappa)^2, reported in Hz
            row.append(args.g_hz * 2.0 * p.position * p.width / TWO_PI)
        rows.append(row)
    _emit(columns, rows, args)
    return 0


def cmd_amplitude(args) -> int:
    columns = ["delta", "m", "position", "amplitude"]
    if args.g_hz is not None:
        columns.insert(1, "delta_hz")
    rows = []
    for d in _sweep_grid(args.delta_min, args.delta_max, args.points):
        params = SystemParams(float(d), args.coupling_length, args.photon_number)
        pos = peak_position(args.m, params)
        if pos is None:
            continue
        row = [float(d), args.m, pos, resonance_amplitude(pos, params)]
        if args.g_hz is not None:
            row.insert(1, float(d) * args.g_hz / TWO_PI)
        rows.append(row)
    _emit(columns, rows, args)
    return 0


def _photon_state(args, delta: float):
    base = SystemParams(delta, args.coupling_length, 0)
    grid = np.linspace(0.0, args.k_max, args.points)
    init = maxwell_boltzmann_initial(args.k0, grid)

    @functools.cache
    def mem(n: int) -> float:
        return mean_p_em(n, init, base, kernel=args.kernel)

    dist = stationary_distribution(
        PumpParams(args.n_b, args.pump_ratio, args.truncation), mem
    )
    return base, init, mem, dist


def cmd_pump(args) -> int:
    _, _, mem, dist = _photon_state(args, args.delta)
    rows = [[n, p, mem(n)] for n, p in enumerate(dist.probabilities)]
    _emit(["n", "p_st", "mean_p_em"], rows, args)
    return 0


def cmd_select(args) -> int:
    columns = ["delta", "k", "initial_density", "final_density"]
    rows = []
    for d in args.delta:
        base, init, _, dist = _photon_state(args, d)
        fin = final_distribution(init, dist, base, jacobian=args.jacobian)
        for k, pik, dens in zip(fin.grid, init.density_at(fin.grid), fin.density):
            rows.append([d, k, pik, dens])
    _emit(columns, rows, args)
    return 0


def cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    columns = [
        "k", "delta", "n", "coupling_length",
        "delta_T_a", "delta_T_b", "flux_error",
    ]
    rows = []
    worst = 0.0
    for _ in range(args.samples):
        k = 10.0 ** rng.uniform(math.log10(args.k_min), math.log10(args.k_max))
        d = rng.uniform(args.delta_min, args.delta_max)
        n = int(rng.integers(0, args.n_max + 1))
        kl = 10.0 ** rng.uniform(
            math.log10(args.kl_min), math.log10(args.kl_max)
        )
        params = SystemParams(d, kl, n)
        closed = scatter(k, params)
        o = solve(ModeFunction.mesa(kl), k, params)
        t_b_oracle = _flux_b(k, _sqrt_upper_c(complex(k * k - d)), o.t_b)
        d_ta = abs(closed.T_a - abs(o.t_a) ** 2)
        d_tb = abs(closed.T_b - t_b_oracle)
        flux_err = abs(o.flux_sum - 1.0)
        worst = max(worst, d_ta, d_tb, flux_err)
        rows.append([k, d, n, kl, d_ta, d_tb, flux_err])
    _emit(columns, rows, args)
    if worst > args.tolerance:
        print(
            f"oracle-check FAILED: max deviation {worst:.3e} > "
            f"tolerance {args.tolerance:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--preset", choices=sorted(PRESETS), help="named figure recipe")
    sp.add_argument("--config", help="key = value config file (keys = flag names)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument(
        "--g-hz",
        type=float,
        default=None,
        help="physical coupling g (angular rate, s^-1); adds Hz columns",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mazer",
        description=(
            "Transmission of ultracold two-level atoms through a detuned "
            "micromaser cavity (mesa mode). All wavenumbers are in units of "
            "kappa, detunings in units of g, lengths as kappa*L."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "transmission",
        help="T_a, T_b, T sweeps vs k/kappa or delta/g",
        description=(
            "Columns: k, delta, T_a, T_b, T_total, T_ultracold, uc_valid"
            " [, delta_hz]"
        ),
    )
    _add_common(sp)
    sp.add_argument("--sweep", choices=("k", "delta"), default="k")
    sp.add_argument("--k", type=float, default=0.05, help="fixed k for delta sweeps")
    sp.add_argument("--k-min", type=float, default=0.002)
    sp.add_argument("--k-max", type=float, default=0.1)
    sp.add_argument("--delta", type=float, nargs="+", default=[0.0],
                    help="fixed detuning(s) for k sweeps")
    sp.add_argument("--delta-min", type=float, default=-1.0)
    sp.add_argument("--delta-max", type=float, default=1.0)
    sp.add_argument("--points", type=int, default=2000)
    sp.add_argument("--coupling-length", type=float, default=1e3 * math.pi)
    sp.add_argument("--photon-number", type=int, default=0)
    sp.add_argument("--refine", action="store_true",
                    help="add grid points around catalogued resonances")
    sp.set_defaults(func=cmd_transmission, subparser=sp)

    sp = sub.add_parser(
        "resonances",
        help="resonance catalog (positions, amplitudes, FWHM)",
        description="Columns: m, position, amplitude, width, refined [, width_hz]",
    )
    _add_common(sp)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--coupling-length", type=float, default=1e3 * math.pi)
    sp.add_argument("--photon-number", type=int, default=0)
    sp.add_argument("--m-min", type=int, default=1)
    sp.add_argument("--m-max", type=int, default=1010)
    sp.add_argument("--k-min", type=float, default=None)
    sp.add_argument("--k-max", type=float, default=None,
                    help="catalog every peak with position <= k-max instead of an m range")
    sp.set_defaults(func=cmd_resonances, subparser=sp)

    sp = sub.add_parser(
        "amplitude",
        help="amplitude of one resonance vs detuning",
        description="Columns: delta [, delta_hz], m, position, amplitude",
    )
    _add_common(sp)
    sp.add_argument("--m", type=int, default=1001)
    sp.add_argument("--delta-min", type=float, default=-0.01)
    sp.add_argument("--delta-max", type=float, default=0.01)
    sp.add_argument("--points", type=int, default=2001)
    sp.add_argument("--coupling-length", type=float, default=1e3 * math.pi)
    sp.add_argument("--photon-number", type=int, default=0)
    sp.set_defaults(func=cmd_amplitude, subparser=sp)

    for name, helptext in (
        ("pump", "stationary photon distribution of the pumped cavity"),
        ("select", "velocity-selection pipeline (initial/final beam densities)"),
    ):
        sp = sub.add_parser(
            name,
            help=helptext,
            description=(
                "Columns: n, p_st, mean_p_em" if name == "pump"
                else "Columns: delta, k, initial_density, final_density"
            ),
        )
        _add_common(sp)
        if name == "pump":
            sp.add_argument("--delta", type=float, default=0.0)
        else:
            sp.add_argument("--delta", type=float, nargs="+", default=[0.0])
        sp.add_argument("--coupling-length", type=float, default=200.0 * math.pi)
        sp.add_argument("--n-b", type=float, default=0.2)
        sp.add_argument("--pump-ratio", type=float, default=100.0)
        sp.add_argument("--truncation", type=int, default=64)
        sp.add_argument("--k0", type=float, default=0.05)
        sp.add_argument("--k-max", type=float, default=0.2)
        sp.add_argument("--points", type=int, default=1001)
        sp.add_argument("--kernel", choices=("ultracold", "exact"), default="ultracold")
        sp.add_argument("--jacobian", action="store_true",
                        help="apply the dk'/dk density factor to the remapped term")
        sp.set_defaults(
            func=cmd_pump if name == "pump" else cmd_select, subparser=sp
        )

    sp = sub.add_parser(
        "oracle-check",
        help="closed form vs coupled-channel solver over a random grid",
        description=(
            "Columns: k, delta, n, coupling_length, delta_T_a, delta_T_b, "
            "flux_error.  Exits nonzero if any deviation exceeds the tolerance."
        ),
    )
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=20040217)
    sp.add_argument("--tolerance", type=float, default=1e-9)
    sp.add_argument("--k-min", type=float, default=1e-3)
    sp.add_argument("--k-max", type=float, default=1.0)
    sp.add_argument("--delta-min", type=float, default=-500.0)
    sp.add_argument("--delta-max", type=float, default=10.0)
    sp.add_argument("--n-max", type=int, default=3)
    sp.add_argument("--kl-min", type=float, default=1e2)
    sp.add_argument("--kl-max", type=float, default=1e4)
    sp.set_defaults(func=cmd_oracle_check, subparser=sp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.preset is not None or args.config is not None:
        # preset and config values become the subcommand's defaults, so a
        # second parse keeps every flag given explicitly, abbreviated or not
        sp = args.subparser
        if args.preset is not None:
            preset = dict(PRESETS[args.preset])
            if preset.pop("command") != args.command:
                sp.error(f"preset {args.preset!r} belongs to another subcommand")
            sp.set_defaults(**preset)
        if args.config is not None:
            sp.set_defaults(**_read_config(args.config, sp))
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"mazer: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
