"""Record the pump outputs the benchmark's `pump` check compares against.

    python3 perfbench/record_reference.py

Runs the `pump` workload's four jobs once and writes p_st and mean_p_em
per photon number to perfbench/reference/pump_seed.json, tagged with the
commit they came from.  Run it only at a commit whose pump numbers are
trusted; the check then holds later commits to them within QUAD_TOL.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the thread variables before numpy loads)
import workloads  # noqa: E402
from mazer import cli  # noqa: E402


def main() -> int:
    deltas = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=HERE.parent) as tmp:
        for job in workloads.jobs("pump", 0):
            out = Path(tmp) / f"{job.name}.csv"
            if cli.main([*job.argv, "--out", str(out)]) != 0:
                return 1
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            deltas[job.name.removeprefix("pump.d")] = {
                "p_st": [float(r["p_st"]) for r in rows],
                "mean_p_em": [float(r["mean_p_em"]) for r in rows],
            }
    workloads.PUMP_REFERENCE.parent.mkdir(exist_ok=True)
    with open(workloads.PUMP_REFERENCE, "w") as fh:
        json.dump({"git_sha": run._git_sha(), "argv": list(workloads.pump_argv("<delta>")),
                   "deltas": deltas}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
