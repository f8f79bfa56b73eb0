"""The three benchmark workloads: how their inputs are set up and what one pass runs.

A pass is a list of operations. Each operation is timed around the library
call alone; its outcome (exit code and stage, convergence rows, or solver
outcome and solution values at shared nodes) is collected afterwards for the
oracle in ``oracle.py``.

This module imports only the standard library at load time, so that
``setup_probe.py`` can time ``import thinpde`` from a cold start.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("flat_pipeline", "oblique_pipeline", "solver_sweep")

# Pipelines run each config at its shipped [experiment] settings.
PIPELINE_CONFIGS = {
    "flat_pipeline": ("reference", "slice_exact"),
    "oblique_pipeline": ("distorted",),
}

# solver_sweep sizes. The rich limit problem (2x2 controls, switching policy)
# raises MaxIterExceededError at nx 1024 and 2048 today; the 512x128
# reference strip fails the same way at ~43 s per attempt, so it is left out.
RICH_NX = (256, 512, 1024, 2048)
REFERENCE_STRIPS = ((128, 32), (256, 64))
STRIP_EPS = 0.05

# Solution values are compared at the nodes every sweep grid shares:
# x = k/16 and, on the strips, the 9 levels of an 8-interval split of y.
SHARED_X_INTERVALS = 16
SHARED_Y_INTERVALS = 8


class MissingProgram(RuntimeError):
    """The checkout does not hold the thinpde sources next to the benchmark."""


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on the import path, or refuse to run."""
    if not (SRC / "thinpde" / "__init__.py").is_file():
        raise MissingProgram(f"no thinpde package under {SRC}")
    for name in ("reference", "slice_exact", "distorted"):
        if not (CONFIGS / f"{name}.cfg").is_file():
            raise MissingProgram(f"missing config {CONFIGS / name}.cfg")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(workload: str):
    """Import the program and build a workload's inputs; this is what ``setup_s`` times."""
    use_checkout_sources()
    if workload in PIPELINE_CONFIGS:
        from thinpde import cli, config  # noqa: F401 - cli is the program a pass runs

        inputs = []
        for name in PIPELINE_CONFIGS[workload]:
            path = CONFIGS / f"{name}.cfg"
            config.load_problem(path)
            inputs.append((name, path, config.load_experiment_settings(path)))
        return inputs
    if workload == "solver_sweep":
        from thinpde import config, presets, reduction

        return {
            "rich_limit": reduction.reduce_problem(presets.rich_problem()),
            "reference": config.load_problem(CONFIGS / "reference.cfg"),
        }
    raise ValueError(f"unknown workload {workload!r}")


def sizes(workload: str, inputs) -> str:
    """One line naming the grid sizes a pass solves."""
    if workload in PIPELINE_CONFIGS:
        parts = []
        for name, _, s in inputs:
            eps = ",".join(f"{e:g}" for e in s.eps_list)
            parts.append(
                f"{name}.cfg eps={eps} strip {s.nx}x{s.ny} limit nx {s.limit_resolution}+{2 * s.limit_resolution}"
            )
        return "; ".join(parts)
    strips = ", ".join(f"{nx}x{ny}" for nx, ny in REFERENCE_STRIPS)
    return f"rich limit nx {','.join(map(str, RICH_NX))}; reference.cfg eps={STRIP_EPS:g} strips {strips}"


def run_pass(workload: str, inputs, seed: int) -> list[dict]:
    """Run one pass; return one outcome dict per operation, each with its ``seconds``."""
    if workload in PIPELINE_CONFIGS:
        return [_pipeline_op(name, path, settings, seed) for name, path, settings in inputs]
    ops = []
    for nx in RICH_NX:
        ops.append(solve_op(f"rich_limit_nx{nx}", "limit", inputs["rich_limit"], nx))
    for nx, ny in REFERENCE_STRIPS:
        ops.append(solve_op(f"reference_strip_{nx}x{ny}", "strip", inputs["reference"], nx, ny))
    return ops


def _pipeline_op(name: str, path: Path, settings, seed: int) -> dict:
    from thinpde import cli

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as out:
        argv = ["pipeline", "--config", str(path), "--seed", str(seed), "--out", out]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            return {"op": f"pipeline_{name}", "seconds": time.perf_counter() - t0, "error": repr(exc), "nodes": 0}
        seconds = time.perf_counter() - t0
        outcome = {"op": f"pipeline_{name}", "seconds": seconds, "exit_code": code}
        outcome.update(_read_pipeline_outputs(Path(out)))
    rows = outcome.get("rows", [])
    nodes = sum((int(r["nx"]) + 1) * (int(r["ny"]) + 1) for r in rows)
    if rows:  # the table exists only once both limit solves succeeded
        nodes += (settings.limit_resolution + 1) + (2 * settings.limit_resolution + 1)
    outcome["nodes"] = nodes
    return outcome


def _read_pipeline_outputs(out: Path) -> dict:
    result: dict = {"stage": None, "rows": []}
    report = out / "pipeline_report.txt"
    if report.is_file():
        last = report.read_text().strip().splitlines()[-1]
        if last == "pipeline: SUCCESS":
            result["stage"] = "done"
        elif last.startswith("pipeline: FAILED at stage "):
            result["stage"] = last[len("pipeline: FAILED at stage ") :].split(" ")[0]
    table = out / "convergence.csv"
    if table.is_file():
        with table.open(newline="") as fh:
            result["rows"] = [_typed_row(r) for r in csv.DictReader(fh)]
    return result


def _typed_row(row: dict) -> dict:
    ints = {"nx", "ny", "iterations", "certified"}
    return {k: int(v) if k in ints else float(v) for k, v in row.items()}


def solve_op(op: str, kind: str, data, nx: int, ny: int | None = None, **solver_kw) -> dict:
    from thinpde import solver

    t0 = time.perf_counter()
    try:
        if kind == "limit":
            fld = solver.solve_limit(data, nx, **solver_kw)
        else:
            fld = solver.solve_eps(data, STRIP_EPS, nx=nx, ny=ny, **solver_kw)
    except solver.MaxIterExceededError as exc:
        return {
            "op": op,
            "seconds": time.perf_counter() - t0,
            "outcome": type(exc).__name__,
            "residual": exc.residual,
            "iterations": exc.iterations,
            "nodes": 0,
        }
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return {"op": op, "seconds": time.perf_counter() - t0, "outcome": "error", "error": repr(exc), "nodes": 0}
    seconds = time.perf_counter() - t0
    return {
        "op": op,
        "seconds": seconds,
        "outcome": "ok",
        "residual": fld.residual,
        "iterations": fld.iterations,
        "values": shared_values(fld.values, nx, ny),
        "nodes": fld.grid.size,
    }


def shared_values(values, nx: int, ny: int | None) -> list[float]:
    """Solution values at the nodes shared by every grid of the sweep."""
    sx = nx // SHARED_X_INTERVALS
    if ny is None:
        return [float(v) for v in values[::sx]]
    sy = ny // SHARED_Y_INTERVALS
    return [float(v) for v in values[::sx, ::sy].ravel()]
