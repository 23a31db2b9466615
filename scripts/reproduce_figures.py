#!/usr/bin/env python3
"""Regenerate the CSV data behind every figure preset.

Each preset encodes one published-figure configuration (see `mazer --help`
and docs/csv_schema.md for the column layouts).  Output lands in one CSV
per preset; plot with any CSV-aware tool, e.g.:

    python3 scripts/reproduce_figures.py --outdir out fig1a fig2
    python3 -c "import pandas as pd, matplotlib.pyplot as plt; \
        d = pd.read_csv('out/fig1a.csv'); plt.plot(d.k, d.T_total); plt.show()"

fig4a/fig4b run the full pump + selection pipeline and take tens of seconds.
"""

import argparse
import sys
import time

from mazer.cli import PRESETS, build_parser, main as mazer_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "figures",
        nargs="*",
        help=f"presets to regenerate (default: all of {', '.join(sorted(PRESETS))})",
    )
    parser.add_argument("--outdir", default="figures-data")
    parser.add_argument(
        "--g-hz",
        type=float,
        default=None,
        help="coupling g as an angular rate in s^-1; adds Hz columns to the "
        "presets whose command takes it",
    )
    args = parser.parse_args(argv)
    names = args.figures or sorted(PRESETS)
    unknown = [n for n in names if n not in PRESETS]
    if unknown:
        parser.error(f"unknown preset(s): {', '.join(unknown)}")

    from pathlib import Path

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name in names:
        subcommand = PRESETS[name]["command"]
        out = outdir / f"{name}.csv"
        cli_args = [subcommand, "--preset", name, "--out", str(out)]
        takes_g_hz = "g_hz" in vars(build_parser().parse_args([subcommand]))
        if args.g_hz is not None and takes_g_hz:
            cli_args += ["--g-hz", str(args.g_hz)]
        start = time.perf_counter()
        rc = mazer_main(cli_args)
        elapsed = time.perf_counter() - start
        if rc != 0:
            print(f"{name}: FAILED (exit {rc})", file=sys.stderr)
            return rc
        print(f"{name}: wrote {out} ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
