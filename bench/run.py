"""thinpde benchmark: time-to-verdict on the flat and oblique pipelines and a solver grid sweep.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for the sizes):
    flat_pipeline     ``thinpde pipeline`` on reference.cfg then slice_exact.cfg
    oblique_pipeline  ``thinpde pipeline`` on distorted.cfg
    solver_sweep      rich limit problem at nx 256..2048, reference strips 128x32 and 256x64

The seed is passed only as the pipeline's ``--seed`` (the representation-check
draw); the sweep has no random input.

One run, in one single-threaded process:
  1. One untimed warm-up pass.
  2. Timed passes until ``--seconds`` have elapsed (at least one). Each
     operation is timed around its library call and checked against the
     oracle (``oracle.py``). With ``--trace 1`` untraced and traced passes
     alternate; the traced ones give the per-layer metrics, and their
     difference in median wall time is ``trace.overhead_s``.
  3. ``setup_s`` (``--trace 0``): the median of several fresh processes
     (``setup_probe.py``) that each import thinpde and build the workload's
     inputs. They run between passes, spread evenly over the timed run, so
     that they sample the host's speed as the passes do; their own time does
     not count against ``--seconds``.
``--seconds 0`` is the smoke mode: one set-up probe, no warm-up, one pass of
each kind.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` is
the number of distinct operations in a pass and ``failed`` the number that
failed in any pass, so ``failed/attempted`` is the workload's fail ratio.
Spans of a traced run are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP threads before numpy/scipy load, here and in every probe.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thinpde benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed length of the run; 0 = smoke mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    smoke = args.seconds <= 0

    try:
        workloads.use_checkout_sources()
    except workloads.MissingProgram as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    say(environment())
    inputs = workloads.setup(args.workload)
    say(f"sizes: {workloads.sizes(args.workload, inputs)}")

    record = oracle.load()[args.workload]
    run = Run(args.workload, inputs, args.seed, record)
    if not smoke:
        run.one_pass("warm-up")
    if args.trace:
        metrics = run.traced(args.seconds, smoke)
    else:
        metrics = run.untraced(args.seconds, 1 if smoke else SETUP_PROBES)

    failed = sorted(run.failures)
    for op in run.op_names:
        say(f"op {op}: {'FAIL' if op in run.failures else 'ok'} - {run.reasons[op]}")
    say(f"fail_ratio {len(failed)}/{len(run.op_names)}" + (f" ({', '.join(failed)})" if failed else ""))
    for name, (value, unit, note) in metrics.items():
        say(f"{name} = {value!r} {unit}" + (f"  [{note}]" if note else ""))
    result = {
        "correct": not run.incorrect,
        "attempted": len(run.op_names),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def environment() -> str:
    import numpy
    import scipy

    load = ",".join(f"{v:.2f}" for v in os.getloadavg())
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"nproc {len(os.sched_getaffinity(0))} python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__} loadavg {load} {threads}"
    )


def probe_setup(workload: str) -> float:
    """Set-up seconds measured in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def timed_passes(seconds: float):
    """Yield pass numbers until ``seconds`` of wall time have gone; at least one."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        yield k
        k += 1


class Run:
    """Passes of one workload with their timings and oracle verdicts."""

    def __init__(self, workload: str, inputs, seed: int, record: dict):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.record = record
        self.op_names: list[str] = []
        self.failures: set[str] = set()
        self.reasons: dict[str, str] = {}
        self.incorrect = False

    def one_pass(self, label: str) -> tuple[float, int]:
        """Run and check one pass; return its wall seconds and the nodes its successful solves held."""
        ops = workloads.run_pass(self.workload, self.inputs, self.seed)
        if not self.op_names:
            self.op_names = [op["op"] for op in ops]
        nodes = 0
        for op in ops:
            failed, incorrect, reason = oracle.check(op, self.record.get(op["op"]))
            if failed:
                self.failures.add(op["op"])
            else:
                nodes += op["nodes"]
            self.incorrect |= incorrect
            if failed or op["op"] not in self.reasons:
                self.reasons[op["op"]] = reason
        wall = sum(op["seconds"] for op in ops)
        say(f"pass {label}: {wall:.4f} s, " + ", ".join(f"{op['op']} {op['seconds']:.4f} s" for op in ops))
        return wall, nodes

    def untraced(self, seconds: float, probes: int) -> dict:
        walls, rates, setup_s = [], [], []
        nodes = 0
        probe_s = 0.0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start - probe_s < seconds:
            wall, nodes = self.one_pass(str(len(walls)))
            walls.append(wall)
            rates.append(nodes / wall)
            if len(setup_s) < probes and time.perf_counter() - start - probe_s >= len(setup_s) * seconds / probes:
                t0 = time.perf_counter()
                setup_s.append(probe_setup(self.workload))
                probe_s += time.perf_counter() - t0
        setup_s += [probe_setup(self.workload) for _ in range(probes - len(setup_s))]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n = len(walls)
        return {
            "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} fresh processes"),
            "wall_s": (statistics.median(walls), "s", f"median of {n} passes; too few for a tail percentile"),
            "solved_nodes_per_s": (statistics.median(rates), "nodes/s", f"{nodes} nodes per pass, median of {n}"),
            "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
        }

    def traced(self, seconds: float, smoke: bool) -> dict:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            setup_loads = []
            for k in range(1 if smoke else 3):
                tracer.pass_id = f"setup-{k}"
                t0 = time.perf_counter()
                workloads.setup(self.workload)
                wall = time.perf_counter() - t0
                setup_loads.append(tracer.pass_metrics(tracer.pass_id, wall)["config.load_s"])
        finally:
            tracer.uninstall()

        plain, traced, per_pass = [], [], []
        for k in timed_passes(seconds):
            plain.append(self.one_pass(f"{k} untraced")[0])
            tracer.pass_id = k
            tracer.install()
            try:
                wall = self.one_pass(f"{k} traced")[0]
            finally:
                tracer.uninstall()
            traced.append(wall)
            per_pass.append(tracer.pass_metrics(k, wall))
        self._write_spans(tracer)

        out = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if tracing.UNITS[name] == "count":
                if len(set(values)) > 1:
                    say(f"warning: count {name} differs between passes: {values}")
                out[name] = (statistics.median(values), "count", "per pass")
            else:
                out[name] = (statistics.median(values), "s", f"median of {len(values)} traced passes")
        out["config.load_s"] = (statistics.median(setup_loads), "s", f"median of {len(setup_loads)} traced set-ups")
        out["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain),
            "s",
            f"median traced minus untraced wall, {len(traced)} passes each",
        )
        if self.workload != "oblique_pipeline":
            for name in ("distortion.inverse_calls", "distortion.d2q_calls"):
                if out[name][0] != 0:
                    self.incorrect = True
                    say(f"{name} is {out[name][0]} on {self.workload}; expected 0")
        return dict(sorted(out.items()))

    def _write_spans(self, tracer) -> None:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps({"workload": self.workload, "seed": self.seed, **tracer.dump()}))
        say(f"spans written to {path.relative_to(workloads.ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
