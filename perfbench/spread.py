"""Run the benchmark over several seeds and summarise the spread per metric.

    python3 perfbench/spread.py [--workloads select pump] [--out FILE]

Each run is a fresh `run.py --trace 0` process, seeds 1 to 10, one after
another.  For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json.  With --out, the summary and every run's result and
environment are written as JSON: a point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in SEEDS:
            record, result = _run(workload, seed, bench["run_seconds"])
            runs.append({"seed": seed, "record": record, "result": result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} passes={record['passes']}",
                  file=sys.stderr)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {
                "median": median, "q1": q1, "q3": q3,
                "iqr_frac": (q3 - q1) / median if median else None,
                "bound": bounds.get(name),
            }
            frac = summary[name]["iqr_frac"]
            print(f"{workload:8} {name:45} median={median:<12.6g} "
                  f"iqr/median={'-' if frac is None else f'{frac:.4f}'} "
                  f"bound={bounds.get(name)}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
