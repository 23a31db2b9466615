"""Command-line surface: sweeps, resonance catalogs, figure presets, oracle checks.

Output is deterministic (17 significant digits, '.' decimal separator,
'\\n' line endings) so identical configurations produce byte-identical
files.  Physical-unit conversion happens only here: with --g-hz the
coupling g is read as an angular rate in s^-1 and all reported frequency
widths are ordinary Hz (angular widths divided by 2 pi).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Iterable, Sequence

import numpy as np

from .core import DomainError, SystemParams, _Dressed
from .oracle import solve_mesa
from .pump import PumpParams, mean_p_em, stationary_distribution
from .scattering import ARRAY_BLOCK, transmissions
from .selection import final_distribution, maxwell_boltzmann_initial, refined_grid
from .ultracold import (
    _catalogs_in_window,
    _peak_positions,
    _resonance_amplitudes,
    _ultracold_valid,
    catalog_in_window,
    resonance_positions,
    transmissions_ultracold,
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


# name and kind of every column each command emits, in order.  A column whose
# name ends in `_hz` appears only with --g-hz.
COLUMNS: dict[str, tuple[tuple[str, str], ...]] = {
    "transmission": (
        ("k", "float"), ("delta", "float"), ("T_a", "float"), ("T_b", "float"),
        ("T_total", "float"), ("T_ultracold", "float"), ("uc_valid", "flag"),
        ("delta_hz", "float"),
    ),
    "resonances": (
        ("m", "int"), ("position", "float"), ("amplitude", "float"),
        ("width", "float"), ("resolved", "flag"), ("refined", "flag"),
        ("width_hz", "float"),
    ),
    "amplitude": (
        ("delta", "float"), ("delta_hz", "float"), ("m", "int"),
        ("position", "float"), ("amplitude", "float"),
    ),
    "pump": (("n", "int"), ("p_st", "float"), ("mean_p_em", "float")),
    "select": (
        ("delta", "float"), ("k", "float"), ("initial_density", "float"),
        ("final_density", "float"),
    ),
    "oracle-check": (
        ("k", "float"), ("delta", "float"), ("n", "int"),
        ("coupling_length", "float"), ("delta_T_a", "float"),
        ("delta_T_b", "float"), ("flux_error", "float"),
    ),
}

# per column kind: its CSV field, and the Python type its values take
_CSV_FIELD = {"int": "%d", "flag": "%d", "float": "%.17g"}
_PYTHON_TYPE = {"int": int, "flag": bool, "float": float}
# how `json.dumps` spells a flag, and a float that is not finite
_JSON_FLAG = {True: "true", False: "false"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _columns_help(command: str) -> str:
    """'Columns: a, b [, b_hz], c' for the command's --help."""
    names: list[str] = []
    for name, _ in COLUMNS[command]:
        if name.endswith("_hz"):
            names[-1] += f" [, {name}]"
        else:
            names.append(name)
    return "Columns: " + ", ".join(names)


def _as_list(kind: str, values) -> list:
    """The column as Python values of its kind; an array converts in one call."""
    if isinstance(values, np.ndarray):
        return values.astype(_PYTHON_TYPE[kind]).tolist()
    return list(map(_PYTHON_TYPE[kind], values))


def _json_text(kind: str, values: list) -> list[str]:
    """The column's values as `json.dumps` spells them."""
    if kind == "flag":
        return [_JSON_FLAG[v] for v in values]
    text = list(map(repr, values))
    if kind == "float" and not all(map(math.isfinite, values)):
        text = [_JSON_NONFINITE.get(t, t) for t in text]
    return text


def _write(table: Sequence[tuple[str, str, Iterable]], fmt: str, out) -> None:
    """Write (name, kind, values) columns as CSV or JSON, one format per column.

    The JSON is the bytes of `json.dumps({"columns": names, "rows": [one
    dict per row]}, indent=2)` and a newline, written through a row template.
    """
    names = [name for name, _, _ in table]
    cols = [_as_list(kind, values) for _, kind, values in table]
    if fmt == "csv":
        out.write(",".join(names) + "\n")
        template = ",".join(_CSV_FIELD[kind] for _, kind, _ in table) + "\n"
        out.writelines(template % row for row in zip(*cols))
        return
    head = json.dumps({"columns": names}, indent=2)[:-2]  # without "\n}"
    fields = ",\n".join(f"      {json.dumps(name)}: %s" for name in names)
    template = "    {\n" + fields + "\n    }"
    text = [_json_text(kind, col) for (_, kind, _), col in zip(table, cols)]
    rows = ",\n".join(template % row for row in zip(*text))
    out.write(f'{head},\n  "rows": ' + (f"[\n{rows}\n  ]" if rows else "[]") + "\n}\n")


def _emit(args, values: dict) -> None:
    """Write the command's declared columns, each taking its values by name."""
    with_hz = getattr(args, "g_hz", None) is not None
    table = [
        (name, kind, values[name])
        for name, kind in COLUMNS[args.command]
        if with_hz or not name.endswith("_hz")
    ]
    out = sys.stdout if args.out is None else open(args.out, "w", newline="")
    try:
        _write(table, args.format, out)
        out.flush()  # a closed pipe fails here, inside `main`, not at exit
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


def _sweep(args):
    """(k, params) pairs whose rows, in order, are the sweep's.

    A delta sweep is one pair, whose params is the `_Dressed` record of
    every row; a k sweep is one pair per detuning, with its `SystemParams`.
    """
    if args.sweep == "delta":
        if args.refine:
            raise DomainError("--refine applies only to --sweep k")
        deltas = np.linspace(args.delta_min, args.delta_max, args.points)
        record = _Dressed.build(deltas, args.coupling_length, args.photon_number)
        return [(np.full(deltas.size, args.k), record)]
    rows = [
        SystemParams(d, args.coupling_length, args.photon_number) for d in args.delta
    ]
    grid = np.linspace(args.k_min, args.k_max, args.points)
    grids = [grid] * len(rows)
    if args.refine and grid.size:
        # every detuning's catalog in one batch; each grid takes its own peaks
        catalogs = _catalogs_in_window(rows, args.k_max, args.k_min)
        grids = [refined_grid(grid, args.k_min, args.k_max, [c]) for c in catalogs]
    return list(zip(grids, rows))


def cmd_transmission(args) -> int:
    parts = []
    for k, params in _sweep(args):
        t_a, t_b = transmissions(k, params)
        parts.append((
            k, np.broadcast_to(params.detuning_ratio, k.shape), t_a, t_b,
            transmissions_ultracold(k, params), _ultracold_valid(k, params),
        ))
    k, delta, t_a, t_b, t_uc, valid = map(np.concatenate, zip(*parts))
    values = {
        "k": k, "delta": delta, "T_a": t_a, "T_b": t_b, "T_total": t_a + t_b,
        "T_ultracold": t_uc, "uc_valid": valid,
    }
    if args.g_hz is not None:
        values["delta_hz"] = delta * args.g_hz / TWO_PI
    _emit(args, values)
    return 0


def cmd_resonances(args) -> int:
    params = SystemParams(args.delta, args.coupling_length, args.photon_number)
    if args.k_max is not None:
        peaks = catalog_in_window(params, args.k_max, args.k_min or 0.0)
    elif args.k_min is not None:
        raise DomainError("--k-min needs --k-max")
    else:
        peaks = resonance_positions(params, (args.m_min, args.m_max))
    values = {
        "m": [p.index for p in peaks],
        "position": [p.position for p in peaks],
        "amplitude": [p.amplitude for p in peaks],
        "width": [p.width for p in peaks],
        "resolved": [p.resolved for p in peaks],
        "refined": [p.refined for p in peaks],
    }
    if args.g_hz is not None:
        # kinetic-energy width: E/hbar = g (k/kappa)^2, reported in Hz
        values["width_hz"] = [
            args.g_hz * 2.0 * p.position * p.width / TWO_PI for p in peaks
        ]
    _emit(args, values)
    return 0


def cmd_amplitude(args) -> int:
    deltas = np.linspace(args.delta_min, args.delta_max, args.points)
    record = _Dressed.build(deltas, args.coupling_length, args.photon_number)
    position = _peak_positions(args.m, record)
    found = ~np.isnan(position)
    delta, position = deltas[found], position[found]
    values = {
        "delta": delta, "m": [args.m] * delta.size, "position": position,
        # one array call over the rows that have the peak
        "amplitude": _resonance_amplitudes(position, record.take(found)),
    }
    if args.g_hz is not None:
        values["delta_hz"] = delta * args.g_hz / TWO_PI
    _emit(args, values)
    return 0


def _photon_state(args, delta: float, ahead: int = 0):
    """(base params, initial distribution, Pbar_em lookup, stationary distribution).

    Each batch the lookup integrates also takes the `ahead` photon numbers
    past the largest one asked for.
    """
    base = SystemParams(delta, args.coupling_length, 0)
    grid = np.linspace(0.0, args.k_max, args.points)
    init = maxwell_boltzmann_initial(args.k0, grid)

    cache: dict[int, float] = {}

    def mem(ns: Sequence[int]) -> list[float]:
        """Pbar_em of each n in ns, integrating the uncached ones in one batch."""
        missing = [n for n in ns if n not in cache]
        if missing:
            last = max(ns)
            missing += [n for n in range(last + 1, last + 1 + ahead) if n not in cache]
            cache.update(zip(missing, mean_p_em(missing, init, base)))
        return [cache[n] for n in ns]

    dist = stationary_distribution(
        PumpParams(args.n_b, args.pump_ratio, args.truncation), mem
    )
    return base, init, mem, dist


def cmd_pump(args) -> int:
    # Pbar_em is printed up to the truncation N_max, one past what the
    # stationary distribution asks for: the same batch integrates it
    _, _, mem, dist = _photon_state(args, args.delta, ahead=1)
    n = range(len(dist.probabilities))
    _emit(args, {"n": n, "p_st": dist.probabilities, "mean_p_em": mem(n)})
    return 0


def cmd_select(args) -> int:
    delta, k, initial, final = [], [], [], []
    for d in args.delta:
        base, init, _, dist = _photon_state(args, d)
        fin = final_distribution(init, dist, base, jacobian=args.jacobian)
        delta += [d] * len(fin.grid)
        k += fin.grid
        initial += init.density_at(fin.grid).tolist()
        final += fin.density
    _emit(args, {
        "delta": delta, "k": k, "initial_density": initial, "final_density": final,
    })
    return 0


def cmd_oracle_check(args) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be >= 1, got {args.samples}")
    if not args.tolerance >= 0.0:
        raise DomainError(f"--tolerance must be >= 0, got {args.tolerance}")
    if args.n_max < 0:
        raise DomainError(f"--n-max must be >= 0, got {args.n_max}")
    # k and kappa L are drawn log-uniformly, so their ranges must be positive
    for name, positive in (("k", True), ("kl", True), ("delta", False)):
        lo, hi = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
        if positive and not lo > 0.0:
            raise DomainError(f"--{name}-min must be > 0, got {lo}")
        if lo > hi:
            raise DomainError(f"--{name}-min must be <= --{name}-max, got {lo} > {hi}")
    rng = np.random.default_rng(args.seed)
    log_k = (math.log10(args.k_min), math.log10(args.k_max))
    log_kl = (math.log10(args.kl_min), math.log10(args.kl_max))
    blocks = []
    # one block's draws at a time: holding all of them costs memory
    for start in range(0, args.samples, ARRAY_BLOCK):
        draws = []
        for _ in range(min(ARRAY_BLOCK, args.samples - start)):
            k = 10.0 ** rng.uniform(*log_k)
            d = rng.uniform(args.delta_min, args.delta_max)
            n = int(rng.integers(0, args.n_max + 1))
            kl = 10.0 ** rng.uniform(*log_kl)
            draws.append((k, d, n, kl))
        k, d, n, kl = map(np.array, zip(*draws))
        record = _Dressed.build(d, kl, n)
        # the oracle first, so an ill-conditioned sample is reported before a
        # later sample's closed-form fallback meets the same system
        o = solve_mesa(k, d, kl, n)
        t_a, t_b = transmissions(k, record)
        blocks.append((
            k, d, n, kl,
            abs(t_a - abs(o.t_a) ** 2), abs(t_b - o.T_b), abs(o.flux_sum - 1.0),
        ))
    k, delta, n, kl, *devs = map(np.concatenate, zip(*blocks))
    _emit(args, {
        "k": k, "delta": delta, "n": n, "coupling_length": kl,
        "delta_T_a": devs[0], "delta_T_b": devs[1], "flux_error": devs[2],
    })
    worst = np.max(devs)
    if not worst <= args.tolerance:  # a nan deviation fails too
        print(
            f"oracle-check FAILED: max deviation {worst:.3e} > "
            f"tolerance {args.tolerance:.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


# argparse of Python 3.10 and 3.11 reads only -5 and -.5 as negative numbers,
# and -5e-3 as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_common(sp: argparse.ArgumentParser, command: str) -> None:
    sp._negative_number_matcher = _NEGATIVE_NUMBER
    presets = sorted(name for name, p in PRESETS.items() if p["command"] == command)
    if presets:
        sp.add_argument("--preset", choices=presets, help="named figure recipe")
    sp.add_argument("--config", help="key = value config file (keys = flag names)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", help="output path (default: stdout)")
    if command in ("transmission", "resonances", "amplitude"):
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
        description=_columns_help("transmission"),
    )
    _add_common(sp, "transmission")
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
        description=_columns_help("resonances"),
    )
    _add_common(sp, "resonances")
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
        description=_columns_help("amplitude"),
    )
    _add_common(sp, "amplitude")
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
        sp = sub.add_parser(name, help=helptext, description=_columns_help(name))
        _add_common(sp, name)
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
        if name == "select":
            sp.add_argument("--jacobian", action="store_true",
                            help="apply the dk'/dk density factor to the remapped term")
        sp.set_defaults(
            func=cmd_pump if name == "pump" else cmd_select, subparser=sp
        )

    sp = sub.add_parser(
        "oracle-check",
        help="closed form vs coupled-channel solver over a random grid",
        description=(
            _columns_help("oracle-check")
            + ".  Exits nonzero if any deviation exceeds the tolerance."
        ),
    )
    _add_common(sp, "oracle-check")
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
    preset = getattr(args, "preset", None)
    if preset is not None or args.config is not None:
        # preset and config values become the subcommand's defaults, so a
        # second parse keeps every flag given explicitly, abbreviated or not
        sp = args.subparser
        if preset is not None:
            sp.set_defaults(**PRESETS[preset])  # its "command" is this subcommand
        if args.config is not None:
            sp.set_defaults(**_read_config(args.config, sp))
        args = parser.parse_args(argv)
    try:
        for key, value in vars(args).items():
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                flag = "--" + key.replace("_", "-")
                raise DomainError(f"{flag} must be finite, got {value}")
        points = getattr(args, "points", None)
        # pump and select sample the beam on a grid of at least two points
        least = 2 if args.command in ("pump", "select") else 0
        if points is not None and points < least:
            raise DomainError(f"--points must be >= {least}, got {points}")
        g_hz = getattr(args, "g_hz", None)
        if g_hz is not None and not g_hz > 0.0:
            raise DomainError(f"--g-hz must be > 0, got {g_hz}")
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly, with stdout pointed at
        # devnull so that the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DomainError, OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"mazer: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
