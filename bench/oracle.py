"""Correctness oracle: compare a pass's outcomes with the outputs recorded in ``oracle.json``.

An operation *fails* if it raises, exits with another code or stage than the
record, or departs from the recorded outputs by more than the tolerances
below. A failure is also *incorrect* (the run's ``correct`` flag turns false)
unless it is a recorded known failure reproduced as recorded: the rich limit
solves that raise ``MaxIterExceededError`` at the recorded commit. When such
a solve later succeeds, its solution is checked against values recorded from
a re-solve of the same grid at a looser tolerance, and it no longer fails.

Tolerances. Values (E, sandwich margins and widths, solution values) may
move by ``RTOL`` of the largest recorded magnitude of their column (or of the
solution) plus ``ATOL``: far above the ~1-ulp moves of array-valued evaluation, amplified
by the ~nx^2 condition of the stencils, and far below what a wrong table
changes. Residuals are roundoff, so they are only held under ``RESIDUAL_FACTOR``
times the larger of the recorded residual and the default solver tolerance.
Howard iterations may exceed the record by at most ``EXTRA_ITERATIONS``.

Record with ``python3 bench/oracle.py --record`` (seed 0; the recorded
outputs do not depend on the seed, which only sets the representation-check
draw).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import workloads

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

RTOL = 1e-6
ATOL = 1e-12
RESIDUAL_FACTOR = 10.0
DEFAULT_TOL = 1e-10
EXTRA_ITERATIONS = 1
KNOWN_FAILURE = "MaxIterExceededError"
ROW_EXACT = ("eps", "nx", "ny", "certified")
ROW_VALUES = ("sup_error", "sandwich_lower_margin", "sandwich_upper_margin", "sandwich_width")
# tolerance of the re-solve that records values for grids the default tolerance cannot finish
RECORD_LOOSE_TOL = 1e-8


def load() -> dict:
    return json.loads(ORACLE_PATH.read_text())


def check(outcome: dict, record: dict | None) -> tuple[bool, bool, str]:
    """(failed, incorrect, reason) for one operation against its record."""
    if record is None:
        return True, True, "no recorded output for this operation"
    if "error" in outcome:
        return True, True, f"raised {outcome['error']}"
    if "exit_code" in outcome:
        return _check_pipeline(outcome, record)
    return _check_solve(outcome, record)


def _check_pipeline(out: dict, rec: dict) -> tuple[bool, bool, str]:
    if (out["exit_code"], out["stage"]) != (rec["exit_code"], rec["stage"]):
        return True, True, (
            f"exit {out['exit_code']} at stage {out['stage']}, recorded exit {rec['exit_code']} at stage {rec['stage']}"
        )
    rows, rec_rows = out["rows"], rec["rows"]
    if len(rows) != len(rec_rows):
        return True, True, f"{len(rows)} convergence rows, recorded {len(rec_rows)}"
    scale = {k: max((abs(r[k]) for r in rec_rows if math.isfinite(r[k])), default=0.0) for k in ROW_VALUES}
    for i, (row, want) in enumerate(zip(rows, rec_rows)):
        for key in ROW_EXACT:
            if row[key] != want[key]:
                return True, True, f"row {i} {key}={row[key]}, recorded {want[key]}"
        for key in ROW_VALUES:
            if not _close(row[key], want[key], scale[key]):
                return True, True, f"row {i} {key}={row[key]!r}, recorded {want[key]!r}"
        problem = _solver_departure(row["eps_residual"], row["iterations"], want["eps_residual"], want["iterations"])
        if problem:
            return True, True, f"row {i} {problem}"
    verdict = "SUCCESS" if rec["exit_code"] == 0 else f"exit {rec['exit_code']} at stage {rec['stage']}"
    return False, False, f"{verdict} with {len(rows)} rows, as recorded"


def _check_solve(out: dict, rec: dict) -> tuple[bool, bool, str]:
    got, want = out["outcome"], rec["outcome"]
    if got == KNOWN_FAILURE and want == KNOWN_FAILURE:
        return True, False, (
            f"raises {got} as recorded: residual {out['residual']:.3e} after {out['iterations']} iterations"
        )
    if got != "ok":
        return True, True, f"{got} (residual {out.get('residual', math.nan):.3e}), recorded {want}"
    if len(out["values"]) != len(rec["values"]):
        return True, True, f"{len(out['values'])} shared nodes, recorded {len(rec['values'])}"
    scale = max(abs(v) for v in rec["values"])
    for i, (v, w) in enumerate(zip(out["values"], rec["values"])):
        if not _close(v, w, scale):
            return True, True, f"shared node {i}: u={v!r}, recorded {w!r}"
    if want == "ok":
        problem = _solver_departure(out["residual"], out["iterations"], rec["residual"], rec["iterations"])
        if problem:
            return True, True, problem
        return False, False, f"converged in {out['iterations']} iterations, values as recorded"
    return False, False, (
        f"converged in {out['iterations']} iterations (recorded {want}); values match the loose-tolerance record"
    )


def _solver_departure(residual: float, iterations: int, rec_residual: float, rec_iterations: int) -> str:
    ceiling = RESIDUAL_FACTOR * max(rec_residual, DEFAULT_TOL)
    if not residual <= ceiling:
        return f"residual {residual:.3e} above {ceiling:.3e}"
    if iterations > rec_iterations + EXTRA_ITERATIONS:
        return f"{iterations} iterations, recorded {rec_iterations}"
    return ""


def _close(value: float, want: float, scale: float) -> bool:
    if math.isnan(want):
        return math.isnan(value)
    return abs(value - want) <= RTOL * scale + ATOL


def record() -> dict:
    """One pass of every workload at seed 0, plus loose-tolerance values for the known failures."""
    data: dict = {
        "tolerances": {
            "rtol_of_largest_recorded_magnitude_per_column": RTOL,
            "atol": ATOL,
            "residual_factor": RESIDUAL_FACTOR,
            "extra_iterations": EXTRA_ITERATIONS,
        },
    }
    for workload in workloads.WORKLOADS:
        inputs = workloads.setup(workload)
        ops = {}
        for out in workloads.run_pass(workload, inputs, seed=0):
            out = {k: v for k, v in out.items() if k not in ("seconds", "nodes")}
            if out.get("outcome") == KNOWN_FAILURE:
                nx = int(out["op"].removeprefix("rich_limit_nx"))
                loose = workloads.solve_op(out["op"], "limit", inputs["rich_limit"], nx, tol=RECORD_LOOSE_TOL)
                if loose["outcome"] != "ok":
                    raise RuntimeError(f"{out['op']}: the loose-tolerance re-solve failed too: {loose}")
                out["values"] = loose["values"]
                out["values_recorded_with_tol"] = RECORD_LOOSE_TOL
            ops[out.pop("op")] = out
        data[workload] = ops
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite oracle.json from the current program")
    args = parser.parse_args()
    if not args.record:
        parser.error("nothing to do without --record")
    data = record()
    ORACLE_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
