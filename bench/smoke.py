"""Smoke test of the benchmark itself: every workload once, in its shortest mode.

Usage: python3 bench/smoke.py

For each workload and for ``--trace 0`` and ``--trace 1`` it runs
``run.py --seconds 0`` (one set-up probe, no warm-up, one pass) and asserts
that the run exits 0, that its last line is the result object with exactly
the expected keys, that the oracle passed (``correct``), and that every
metric named in BENCHMARK.json is printed with its unit. It then checks that
the benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and ``bench/``. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(done: subprocess.CompletedProcess, expected: list[dict]) -> str:
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True:
        return "the oracle failed:\n" + done.stdout
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        return f"attempted {result['attempted']} failed {result['failed']}"
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics {got}, expected {want}"
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        return "a metric value is not a number"
    return ""


def main() -> int:
    failures = 0
    for workload in workloads.WORKLOADS:
        for trace, expected in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
            problem = check_result(run(workloads.ROOT, workload, trace), expected)
            print(f"{workload} trace {trace}: {'FAIL ' + problem if problem else 'ok'}", flush=True)
            failures += bool(problem)

    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as bare:
        bare = Path(bare)
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(workloads.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, workloads.WORKLOADS[0], 0)
        refused = done.returncode != 0 and not any(line.startswith("{") for line in done.stdout.splitlines())
        print(f"bare directory refused: {'ok' if refused else 'FAIL'}", flush=True)
        failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
