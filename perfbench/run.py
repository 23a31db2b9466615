"""Benchmark of the mazer CLI: one workload per process, closed loop.

    python3 perfbench/run.py --workload select --seed 1 --seconds 25 --trace 0

One client drives ``mazer.cli.main(argv)`` in this process, one job after
another, each job writing its CSV to ``--out`` in a scratch directory
inside the checkout.  A pass is one run of the workload's job list; passes
repeat while the next one is expected to end within ``--seconds``, and at
least one pass always runs.  Times are medians over passes.

--trace 0 reports the end-to-end metrics: wall_s, rows_per_s, setup_s and
peak_rss_mib.  --trace 1 alternates untraced passes with passes traced by
tracing.py, and reports the per-layer metrics; the span tree goes to
stderr.  Either way the outputs of the last pass are checked
(workloads.py).  The last line of stdout is the JSON result; the
line before it records the run and its environment.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP in this process and in the set-up processes;
# must be set before numpy is imported.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5

# Set-up as a user pays it: import the CLI, build its parser, one scatter.
SETUP_CODE = """\
import time
start = time.perf_counter()
import math
import mazer.cli
from mazer import SystemParams, scatter
mazer.cli.build_parser()
scatter(0.05, SystemParams(0.002, 200.0 * math.pi, 0))
print(time.perf_counter() - start)
"""


@dataclass
class Pass:
    wall_s: float
    job_s: dict[str, float]
    exit_codes: dict[str, int]
    rows: int = 0
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)


def _run_pass(cli, jobs, out_dir: Path) -> Pass:
    job_s, codes = {}, {}
    start = perf_counter()
    for job in jobs:
        t0 = perf_counter()
        codes[job.name] = cli.main([*job.argv, "--out", str(out_dir / f"{job.name}.csv")])
        job_s[job.name] = perf_counter() - t0
    done = Pass(perf_counter() - start, job_s, codes)
    digest = hashlib.sha256()
    for job in jobs:
        data = (out_dir / f"{job.name}.csv").read_bytes()
        digest.update(data)
        done.rows += max(data.count(b"\n") - 1, 0)  # minus the header
    done.digest = digest.hexdigest()
    return done


def _run_loop(cli, jobs, out_dir: Path, budget_s: float, trace: int) -> list[list[Pass]]:
    """Closed loop of rounds; start another round only if it should end within budget_s.

    A round is one untraced pass, then (with trace 1) one traced pass, so
    that both kinds sample the same stretch of time.  Returns the untraced
    passes, then the traced ones.
    """
    import tracing
    import workloads

    rounds: list[list[Pass]] = []
    start = perf_counter()
    while True:
        round_ = [_run_pass(cli, jobs, out_dir)]
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                done = _run_pass(cli, jobs, out_dir)
            done.layers = tracer.metrics()
            done.layers.update(
                {f"cli.job_s.{name}": done.job_s.get(name, 0.0) for name in workloads.ALL_JOBS}
            )
            round_.append(done)
        rounds.append(round_)
        expected = statistics.median(sum(p.wall_s for p in r) for r in rounds)
        if perf_counter() - start + expected > budget_s:
            break
    if trace:
        tracer.print_edges()
    return [list(kind) for kind in zip(*rounds)]


def _check(jobs, passes: list[Pass], out_dir: Path, seed: int):
    """Check the last pass's files; every pass must exit 0 and agree byte for byte."""
    import workloads

    tally = workloads.Tally()
    for p in passes:
        for name, code in p.exit_codes.items():
            tally.add(code == 0, f"{name} exited with {code}")
        tally.add(p.digest == passes[0].digest, "outputs differ between passes")
    rng = random.Random(seed)
    for job in jobs:
        job.check(out_dir / f"{job.name}.csv", rng, tally)
    return tally


def _setup_s() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _median(passes: list[Pass], value) -> float:
    return statistics.median(value(p) for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="select, pump, figures or oracle")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mazer" / "__init__.py").is_file():
        print(f"perfbench: no mazer sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mazer

    if Path(mazer.__file__).resolve().parent != (SRC / "mazer").resolve():
        print(f"perfbench: imported mazer from {mazer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from mazer import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    jobs = workloads.jobs(args.workload, args.seed)
    # warm-up, so lazy imports and first-call costs stay out of the passes
    cli.build_parser()
    mazer.scatter(0.05, mazer.SystemParams(0.002, 200.0 * math.pi, 0))

    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp", dir=ROOT))
    try:
        if args.trace:
            plain, traced = _run_loop(cli, jobs, out_dir, args.seconds, trace=1)
            tally = _check(jobs, plain + traced, out_dir, args.seed)
            values = {
                name: _median(traced, lambda p: p.layers[name]) for name in traced[0].layers
            }
            values["oracle.max_dev"] = tally.max_dev
            values["trace.overhead_frac"] = (
                _median(traced, lambda p: p.wall_s) / _median(plain, lambda p: p.wall_s) - 1.0
            )
            passes = plain + traced
        else:
            setup_s = _setup_s()
            (passes,) = _run_loop(cli, jobs, out_dir, args.seconds, trace=0)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tally = _check(jobs, passes, out_dir, args.seed)
            values = {
                "wall_s": _median(passes, lambda p: p.wall_s),
                "rows_per_s": _median(passes, lambda p: p.rows / p.wall_s),
                "setup_s": setup_s,
                "peak_rss_mib": peak_rss,
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for note in tally.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [round(p.wall_s, 6) for p in passes],
        "rows_per_pass": passes[0].rows, "max_oracle_dev": tally.max_dev,
        "env": _environment(),
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.checked,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in _declared_units(args.trace).items()
        },
    }))
    return 0


def _declared_units(trace: int) -> dict[str, str]:
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


if __name__ == "__main__":
    sys.exit(main())
