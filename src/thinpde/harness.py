"""Experiment harness: the pipeline stages, the convergence measurement and the pipeline.

It computes only: each stage and the pipeline return a :class:`Stage`, which
:mod:`thinpde.cli` formats, prints and writes; nothing here writes a file.

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
by the barrier stage (in the pipeline and in ``thinpde converge``) and
passed in.  Barrier strictness is only certified for eps below the searched
eps1; when the requested eps list extends above it (the default list does,
for the reference data), those rows are flagged uncertified and the
sandwich is still measured empirically, except where a pulled-back pair
does not reach the strip (it leaves the distortion map's slab): there the
sandwich columns are NaN.

The run settings (eps list, strip and limit grids, Howard tolerance and
cap) are one :class:`thinpde.config.ExperimentPlan`, range-checked where it
is built; the problem is passed next to it, so one plan serves any problem.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import barriers as bar
from . import solver as sol
from .config import ExperimentPlan
from .distortion import DISTORTION_ERRORS, DistortionMap, build_map, check_exactness, transplant_ellipticity
from .ellipticity import boundary_certificate, equivalence_check, interior_certificate
from .problem import ThinProblem, validate
from .reduction import reduce_problem, representation_check

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_CERTIFICATE = 3
EXIT_BARRIER = 4
EXIT_SOLVER = 5


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
    eps1: float
    strictly_decreasing: bool
    final_within_tolerance: bool
    within_noise_floor: bool = False  # every E below the discretization estimate
    runtimes: list[float] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # strict decrease is meaningless once every gap sits below the
        # discretization noise floor (the slice-exact regime)
        return (self.strictly_decreasing or self.within_noise_floor) and self.final_within_tolerance

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


def convergence_experiment(problem: ThinProblem, plan: ExperimentPlan, barrier: bar.BarrierPair) -> ConvergenceTable:
    """Solve the strips and the limit problem of ``problem`` as ``plan`` sets them and tabulate E(eps).

    ``barrier`` is the pair from :func:`thinpde.barriers.search_barriers`,
    whose sandwich is measured on every strip it reaches.
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
        fld = sol.policy_iteration(sol.discretize_eps(problem, grid), tol=plan.tol, max_iter=plan.max_iter)
        xs_eps = fld.grid.axes[0]
        u0_interp = np.interp(xs_eps, xs_limit, u0.flat())
        gap = float(np.abs(fld.values - u0_interp[:, None]).max())
        lo_m = hi_m = math.nan
        width = math.nan
        certified = False
        # eps1 <= r / sup|g|, so a strip the pair does not reach is never certified
        if barrier.reaches(eps):
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
        eps1=barrier.params.eps1,
        strictly_decreasing=decreasing,
        final_within_tolerance=final_ok,
        within_noise_floor=all(e <= floor for e in errs),
        runtimes=runtimes,
    )


# --- stages and the pipeline --------------------------------------------------

# the pipeline runs each stage at the single-stage subcommands' default options
VALIDATE_SAMPLES = 8
CERTIFY_SAMPLES = 16
REPRESENTATION_SAMPLES = 1000

# every library failure a stage reports instead of raising:
# (its classes, the stage it stops, the prefix of its one report line, the exit code)
FAILURES = (
    (DISTORTION_ERRORS, "transform", "transform failed: ", EXIT_FAILURE),
    ((bar.SearchExhaustedError,), "barrier", "", EXIT_BARRIER),
    (sol.SOLVER_ERRORS, "solve", "solver failed: ", EXIT_SOLVER),
)


@dataclass
class Stage:
    """What one stage function returns; the pipeline and the single-stage subcommands run the same functions."""

    name: str  # the stage it ends at
    code: int  # its exit code, 0 on pass
    lines: list[str]  # its report lines
    product: object  # what the next stage needs (LimitProblem, DistortionMap, BarrierPair, ConvergenceTable) or None


def failure(exc: Exception) -> Stage:
    """The stopped stage that ``FAILURES`` gives for a library failure; any other exception is raised again."""
    for classes, stage, prefix, code in FAILURES:
        if isinstance(exc, classes):
            return Stage(stage, code, [f"{prefix}{exc}"], None)
    raise exc


def _verdict(name: str, reports: list, fail_code: int, product: object = None) -> Stage:
    """A stage whose reports each print one block and pass or fail."""
    code = EXIT_OK if all(r.passed for r in reports) else fail_code
    return Stage(name, code, [r.format() for r in reports], product)


def validate_stage(problem: ThinProblem, samples: int) -> Stage:
    return _verdict("validate", [validate(problem, samples)], EXIT_VALIDATION)


def certify_stage(problem: ThinProblem, samples: int) -> Stage:
    checks = (interior_certificate, boundary_certificate, equivalence_check)
    return _verdict("certify", [check(problem, samples) for check in checks], EXIT_CERTIFICATE)


def reduce_stage(problem: ThinProblem, samples: int, seed: int) -> Stage:
    lp = reduce_problem(problem)
    return _verdict("reduce", [representation_check(problem, lp, samples=samples, seed=seed)], EXIT_FAILURE, lp)


def transform_stage(problem: ThinProblem) -> Stage:
    """Build the distortion map and check its transplanted ellipticity and its straightened boundary data."""
    try:
        dmap = build_map(problem)
        reports = [transplant_ellipticity(problem, dmap), check_exactness(problem, dmap)]
    except DISTORTION_ERRORS as exc:
        return failure(exc)
    return _verdict("transform", reports, EXIT_FAILURE, dmap)


def barrier_stage(problem: ThinProblem, dmap: DistortionMap | None) -> Stage:
    """Search the barrier pair; a distorted problem given no ``dmap`` builds it here."""
    if dmap is None and bar.needs_distortion(problem):
        try:
            dmap = build_map(problem)
        except DISTORTION_ERRORS as exc:
            return failure(exc)
    try:
        pair = bar.search_barriers(problem, dmap)
    except bar.SearchExhaustedError as exc:
        return failure(exc)
    return Stage("barrier", EXIT_OK, ["parameters: " + pair.params.format()], pair)


def converge_stage(problem: ThinProblem, plan: ExperimentPlan, pair: bar.BarrierPair) -> Stage:
    try:
        table = convergence_experiment(problem, plan, pair)
    except sol.SOLVER_ERRORS as exc:
        return failure(exc)
    return _verdict("converge", [table], EXIT_FAILURE, table)


def _pipeline_stages(problem: ThinProblem, plan: ExperimentPlan, seed: int):
    """(report header, Stage) in pipeline order; each stage runs only when the caller asks for the next."""
    yield "validate", validate_stage(problem, VALIDATE_SAMPLES)
    yield "certify", certify_stage(problem, CERTIFY_SAMPLES)
    yield "reduce", reduce_stage(problem, REPRESENTATION_SAMPLES, seed)
    dmap = None
    if bar.needs_distortion(problem):
        transform = transform_stage(problem)
        dmap = transform.product
        yield "transform", transform
    barrier = barrier_stage(problem, dmap)
    yield "barrier", barrier
    yield "solve + converge", converge_stage(problem, plan, barrier.product)


def run_pipeline(problem: ThinProblem, plan: ExperimentPlan = ExperimentPlan(), seed: int = 0) -> Stage:
    """validate -> certify -> reduce -> transform -> barrier -> solve -> converge.

    The first failing stage stops the run. The last stage run is returned
    with its product (the convergence table once measured) and the whole
    report: each stage's header and lines, then the pipeline's verdict line.
    The transform stage runs only when gamma0 does not vanish.
    """
    lines: list[str] = []
    for header, stage in _pipeline_stages(problem, plan, seed):
        lines += [f"[stage {header}]", *stage.lines]
        if stage.code != EXIT_OK:
            break
    verdict = "SUCCESS" if stage.code == EXIT_OK else f"FAILED at stage {stage.name} (exit {stage.code})"
    return replace(stage, lines=[*lines, f"pipeline: {verdict}"])
