"""Run-to-run spread of the end-to-end metrics, measured the way the bounds are judged.

Usage: python3 bench/spread.py WORKLOAD [--runs 10] [--first-seed 1] [--seconds S]

Runs ``run.py --trace 0`` once per seed, one process at a time, and prints
for every end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (Q3 - Q1) / median
next to a third of its bound from BENCHMARK.json. The raw values go to
``.bench_out/spread-WORKLOAD.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in BENCHMARK["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = BENCHMARK["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: the oracle failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    for metric in BENCHMARK["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(
            f"{metric['name']:<20} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"spread {spread:.4f} (bound/3 {metric['bound'] / 3:.4f}) {flag}"
        )
    workloads.OUT_DIR.mkdir(exist_ok=True)
    (workloads.OUT_DIR / f"spread-{args.workload}.json").write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
