"""Experiment harness: convergence measurement and the pipeline.

The convergence experiment solves the thin problem for a decreasing list of
eps, solves the limit problem once, and measures

    E(eps) = max over strip nodes |u_eps(x, y) - I[u0](x)|

with I the linear interpolation of the limit solution in x.  The verdict
requires E to decrease strictly and the final E to be within ten times the
limit solver's Richardson-estimated discretization error.  The sup over
*all* bounded solutions is approximated by the single policy-iteration
solution; the barrier sandwich, evaluated alongside, bounds where any other
solution could live, and its width is reported next to E.

The barrier pair comes from :func:`thinpde.barriers.search_barriers`, run
by the caller (the pipeline's barrier stage, or ``thinpde converge``) and
passed in; None measures no sandwich.  Barrier strictness is only certified
for eps below the searched eps1; when the requested eps list extends above
it (the default list does, for the reference data), those rows are flagged
uncertified and the sandwich is still measured empirically.

The run settings (eps list, strip and limit grids, Howard tolerance and
cap) are one :class:`thinpde.config.ExperimentPlan`, range-checked where it
is built; the problem is passed next to it, so one plan serves any problem.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import barriers as bar
from . import solver as sol
from .config import ExperimentPlan
from .distortion import HatBoundary, build_map, transplant_ellipticity
from .ellipticity import boundary_certificate, equivalence_check, interior_certificate
from .problem import ThinProblem, validate
from .reduction import reduce_problem, representation_check

__all__ = [
    "ExperimentPlan",
    "ConvergenceRow",
    "ConvergenceTable",
    "convergence_experiment",
    "PipelineResult",
    "run_pipeline",
    "fmt_float",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_BARRIER = 4
EXIT_SOLVER = 5


def fmt_float(v: float) -> str:
    """Shortest round-trip decimal; keeps CSV output byte-stable."""
    return repr(float(v))


@dataclass
class ConvergenceRow:
    eps: float
    nx: int
    ny: int
    sup_error: float
    eps_residual: float
    iterations: int
    certified: bool
    sandwich_lower_margin: float  # min(u - psi_low); negative means violated
    sandwich_upper_margin: float  # min(psi_bar - u)
    sandwich_width: float


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow]
    limit_residual: float
    disc_error_estimate: float
    eps1: float | None
    strictly_decreasing: bool
    final_within_tolerance: bool
    within_noise_floor: bool = False  # every E below the discretization estimate
    runtimes: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # strict decrease is meaningless once every gap sits below the
        # discretization noise floor (the slice-exact regime)
        return (self.strictly_decreasing or self.within_noise_floor) and self.final_within_tolerance

    def to_csv(self) -> str:
        headers = [
            "eps",
            "nx",
            "ny",
            "sup_error",
            "eps_residual",
            "iterations",
            "certified",
            "sandwich_lower_margin",
            "sandwich_upper_margin",
            "sandwich_width",
        ]
        lines = [",".join(headers)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        fmt_float(r.eps),
                        str(r.nx),
                        str(r.ny),
                        fmt_float(r.sup_error),
                        fmt_float(r.eps_residual),
                        str(r.iterations),
                        str(int(r.certified)),
                        fmt_float(r.sandwich_lower_margin),
                        fmt_float(r.sandwich_upper_margin),
                        fmt_float(r.sandwich_width),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def format(self) -> str:
        lines = ["convergence of u_eps to the limit solution:"]
        for r, t in zip(self.rows, self.runtimes + [math.nan] * len(self.rows)):
            cert = "certified" if r.certified else "uncertified eps"
            lines.append(
                f"  eps={r.eps:<8g} E={r.sup_error:.6e} residual={r.eps_residual:.2e} "
                f"iters={r.iterations} sandwich=[{r.sandwich_lower_margin:+.2e}, "
                f"{r.sandwich_upper_margin:+.2e}] width={r.sandwich_width:.3g} ({cert}, {t:.2f}s)"
            )
        lines.append(f"  limit residual {self.limit_residual:.2e}")
        lines.append(f"  limit discretization error estimate {self.disc_error_estimate:.3e}")
        if self.eps1 is not None:
            lines.append(f"  barrier eps1 = {self.eps1:.6g}")
        lines.append(
            f"  verdict: {'PASS' if self.passed else 'FAIL'} "
            f"(strictly decreasing: {self.strictly_decreasing}, "
            f"below noise floor: {self.within_noise_floor}, "
            f"E(eps_min) <= 10 x disc: {self.final_within_tolerance})"
        )
        return "\n".join(lines)


def sandwich_margins(pair: bar.BarrierPair, eps: float, fld: sol.GridField) -> tuple[float, float, float]:
    """(min(u - psi_low), min(psi_bar - u), max width) over the grid nodes of a strip solution at eps."""
    nodes = fld.grid.nodes()
    x, y = nodes[:, :-1], nodes[:, -1]
    u = fld.flat()
    hi, lo = pair.values(x, y, eps)
    return float((u - lo).min()), float((hi - u).min()), max(0.0, float((hi - lo).max()))


def convergence_experiment(problem: ThinProblem, plan: ExperimentPlan, barrier: bar.BarrierPair | None) -> ConvergenceTable:
    """Solve the strips and the limit problem of ``problem`` as ``plan`` sets them and tabulate E(eps).

    ``barrier`` is the pair from :func:`thinpde.barriers.search_barriers`,
    whose sandwich is measured on every strip, or None for no sandwich.
    """
    # every strip grid first: a strip the eps solver cannot grid stops the run before the limit solves
    grids = [sol.make_eps_grid(problem, eps, plan.nx, plan.ny) for eps in plan.eps_list]
    lp = reduce_problem(problem)
    u0 = sol.solve_limit(lp, plan.limit_resolution, tol=plan.tol, max_iter=plan.max_iter)
    u0_fine = sol.solve_limit(lp, 2 * plan.limit_resolution, tol=plan.tol, max_iter=plan.max_iter)
    # Richardson gap on the shared (coarse) nodes
    disc_est = float(np.abs(u0.flat() - u0_fine.flat()[::2]).max())

    xs_limit = u0.grid.axes[0]
    rows: list[ConvergenceRow] = []
    runtimes: list[float] = []
    for eps, grid in zip(plan.eps_list, grids):
        t0 = time.perf_counter()
        fld = sol.solve_eps(problem, eps, tol=plan.tol, max_iter=plan.max_iter, grid=grid)
        xs_eps = fld.grid.axes[0]
        u0_interp = np.interp(xs_eps, xs_limit, u0.flat())
        gap = float(np.abs(fld.values - u0_interp[:, None]).max())
        lo_m = hi_m = math.nan
        width = math.nan
        certified = False
        if barrier is not None:
            certified = eps < barrier.params.eps1
            lo_m, hi_m, width = sandwich_margins(barrier, eps, fld)
        rows.append(
            ConvergenceRow(
                eps=eps,
                nx=plan.nx,
                ny=plan.ny,
                sup_error=gap,
                eps_residual=fld.residual,
                iterations=fld.iterations,
                certified=certified,
                sandwich_lower_margin=lo_m,
                sandwich_upper_margin=hi_m,
                sandwich_width=width,
            )
        )
        runtimes.append(time.perf_counter() - t0)

    errs = [r.sup_error for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:])) if len(errs) > 1 else False
    floor = max(disc_est, 1e-15)
    final_ok = errs[-1] <= 10.0 * floor
    return ConvergenceTable(
        rows=rows,
        limit_residual=u0.residual,
        disc_error_estimate=disc_est,
        eps1=barrier.params.eps1 if barrier is not None else None,
        strictly_decreasing=decreasing,
        final_within_tolerance=final_ok,
        within_noise_floor=all(e <= floor for e in errs),
        runtimes=runtimes,
    )


# --- pipeline ----------------------------------------------------------------


@dataclass
class PipelineResult:
    exit_code: int
    stage: str
    report: str
    table: ConvergenceTable | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == EXIT_OK


def run_pipeline(
    problem: ThinProblem, plan: ExperimentPlan = ExperimentPlan(), seed: int = 0, out_dir: str | None = None
) -> PipelineResult:
    """validate -> certify -> reduce -> transform -> barrier -> solve -> converge.

    The first failing stage stops the run; its name and diagnostic land in
    the report, and partially completed tables are still written.
    """
    lines: list[str] = []

    def finish(code: int, stage: str, table=None) -> PipelineResult:
        lines.append(f"pipeline: {'SUCCESS' if code == EXIT_OK else f'FAILED at stage {stage} (exit {code})'}")
        report = "\n".join(lines)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "pipeline_report.txt").write_text(report + "\n")
            if table is not None:
                (out / "convergence.csv").write_text(table.to_csv())
        return PipelineResult(exit_code=code, stage=stage, report=report, table=table)

    lines.append("[stage validate]")
    diag = validate(problem)
    lines.append(diag.format())
    if not diag.passed:
        return finish(EXIT_VALIDATION, "validate")

    lines.append("[stage certify]")
    interior = interior_certificate(problem)
    boundary = boundary_certificate(problem)
    equiv = equivalence_check(problem)
    lines += [interior.format(), boundary.format(), equiv.format()]
    if not (interior.passed and boundary.passed and equiv.passed):
        return finish(EXIT_CERTIFICATE, "certify")

    lines.append("[stage reduce]")
    lp = reduce_problem(problem)
    rep = representation_check(problem, lp, samples=1000, seed=seed)
    lines.append(rep.format())
    if not rep.passed:
        return finish(EXIT_FAILURE, "reduce")

    view = bar.flat_view(problem)
    dmap = None
    if view.needs_distortion:
        lines.append("[stage transform]")
        try:
            dmap = build_map(problem)
            tr = transplant_ellipticity(problem, dmap)
            exact = HatBoundary(problem, dmap).check_exactness()
            lines += [tr.format(), exact.format()]
            if not (tr.passed and exact.passed):
                return finish(EXIT_FAILURE, "transform")
        except Exception as exc:  # noqa: BLE001 - report, classify, stop
            lines.append(f"transform failed: {exc}")
            return finish(EXIT_FAILURE, "transform")

    lines.append("[stage barrier]")
    try:
        barrier = bar.search_barriers(problem, view, dmap)
        lines.append("parameters: " + barrier.params.format())
    except bar.SearchExhaustedError as exc:
        lines.append(str(exc))
        return finish(EXIT_BARRIER, "barrier")

    lines.append("[stage solve + converge]")
    try:
        table = convergence_experiment(problem, plan, barrier=barrier)
    except sol.SOLVER_ERRORS as exc:
        lines.append(f"solver failed: {exc}")
        return finish(EXIT_SOLVER, "solve")
    lines.append(table.format())
    if not table.passed:
        return finish(EXIT_FAILURE, "converge", table)
    return finish(EXIT_OK, "done", table)
