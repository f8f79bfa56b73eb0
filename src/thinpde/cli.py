"""Command-line driver.

Subcommands: validate | certify | reduce | transform | barrier | solve |
converge | counterexample | pipeline.  All tables are CSV with a header
row; reports are plain structured text on stdout (and under --out when
given).  Exit codes: 0 success, 2 validation failure, 3 certificate
failure, 4 barrier search failure, 5 solver failure, 1 other failures.

A subcommand named after a pipeline stage runs the pipeline's stage function
(``converge``: the barrier stage, then the converge stage) and adds only its
extras: CSV tables, the limit bounds of ``reduce``, the map and profile
lines of ``transform`` and the margins of ``barrier`` (exit 4 when they fail).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import barriers as bar
from . import harness, solver as sol
from .config import SETTING_RANGES, ConfigError, ExperimentPlan, int_at_least, load_experiment_settings, load_problem, positive_float
from .distortion import hat_coefficients, top_profile
from .ellipticity import certificate_forms, circle_obstruction_demo, interior_rows
from .expressions import EvalDomainError
from .harness import EXIT_BARRIER, EXIT_FAILURE, EXIT_OK, ConvergenceRow
from .problem import EpsOutOfRangeError, box_lattice
from .reduction import DegenerateThicknessError, estimate_limit_bounds, reduce_problem


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, help="problem config file")
    parser.add_argument("--out", type=str, help="output directory for reports and CSV tables")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads (accepted for interface compatibility; execution is single-threaded)",
    )


def _need_config(args) -> "ThinProblem":
    if not args.config:
        print("error: this subcommand needs --config PATH", file=sys.stderr)
        raise SystemExit(EXIT_FAILURE)
    return load_problem(args.config)


def _report(args, name: str, lines: list[str], code: int, tables: dict[str, str] | None = None) -> int:
    """Print the report, write it and the CSV ``tables`` under --out (created here), and return the exit code."""
    text = "\n".join(lines)
    print(text)
    try:
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            for file, content in {name: text + "\n", **(tables or {})}.items():
                Path(args.out, file).write_text(content)
    except OSError as exc:  # an --out that cannot be created or written
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return code


def _table(columns: dict) -> str:
    """The CSV of named columns, in order, under a header row of their names.

    Labels are written as they are, integers and bools as integers, and other numbers as ``repr(float)``;
    a cell that holds a comma or a double quote is quoted as RFC 4180 says.  Each number is formatted
    only as the writer takes its row, so a large table holds no list of cell strings or of rows.
    """
    cells = []
    for column in map(np.asarray, columns.values()):
        if column.dtype.kind == "U":
            cells.append(column.tolist())
        elif column.dtype.kind in "biu":
            cells.append(map(int, column.tolist()))  # str(True) is "True", str(1) is "1"
        else:
            cells.append(map(repr, column.astype(float).tolist()))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns.keys())
    writer.writerows(zip(*cells, strict=True))
    return text.getvalue()


def _points(points, name: str = "x") -> dict:
    """Columns of base points: ``x`` on a 1-D base, ``x1..xN`` otherwise (or ``z``, ``z1..zN``)."""
    n = points.shape[1]
    return dict(zip([name] if n == 1 else [f"{name}{k + 1}" for k in range(n)], points.T))


def _per_pair(problem, head: dict, columns: dict) -> dict:
    """Columns of each point under each control pair in ``pairs()`` order: the point's ``head``, lambda, mu, then ``columns``.

    ``head`` holds one value per point; a column of ``columns`` one per point and pair, shape (m, nL, nM) or (m, nL * nM).
    """
    lam, mu = (np.array(labels) for labels in zip(*problem.controls.pairs()))
    m = len(next(iter(head.values())))
    per_point = {name: np.repeat(column, len(lam)) for name, column in head.items()}
    per_pair = {name: np.asarray(column).reshape(-1) for name, column in columns.items()}
    return {**per_point, "lambda": np.tile(lam, m), "mu": np.tile(mu, m), **per_pair}


def _coefficients(problem, head: dict, tag: str, coeffs) -> str:
    """One row per point and control pair: a_ij, b_i, c, f over the base axes, each column named ``*_{tag}``."""
    n = problem.n
    a = {f"a_{tag}_{i + 1}{j + 1}": coeffs.a[..., i, j] for i in range(n) for j in range(n)}
    b = {f"b_{tag}_{i + 1}": coeffs.b[..., i] for i in range(n)}
    return _table(_per_pair(problem, head, {**a, **b, f"c_{tag}": coeffs.c, f"f_{tag}": coeffs.f}))


def _convergence(stage: harness.Stage) -> dict[str, str]:
    """``convergence.csv``, one column per ConvergenceRow field, once the converge stage has measured its table."""
    if stage.name != "converge":
        return {}
    columns = {f.name: [getattr(r, f.name) for r in stage.product.rows] for f in fields(ConvergenceRow)}
    return {"convergence.csv": _table(columns)}


def cmd_validate(args) -> int:
    stage = harness.validate_stage(_need_config(args), args.samples)
    return _report(args, "validate_report.txt", stage.lines, stage.code)


def cmd_certify(args) -> int:
    problem = _need_config(args)
    stage = harness.certify_stage(problem, args.samples)
    tables = {}
    if args.csv:
        xs, vs = interior_rows(problem, args.samples)
        forms = {"quadratic_form": certificate_forms(problem, xs, vs)[0].reshape(len(xs), -1)}
        tables["certify_interior.csv"] = _table(_per_pair(problem, _points(xs), forms))
    return _report(args, "certify_report.txt", stage.lines, stage.code, tables)


def cmd_reduce(args) -> int:
    problem = _need_config(args)
    stage = harness.reduce_stage(problem, args.samples_random, args.seed)
    lp = stage.product
    xs = box_lattice(problem.geom.lower, problem.geom.upper, args.samples)
    head = {f"x{k + 1}": column for k, column in enumerate(xs.T)}  # numbered on a 1-D base too
    table = _coefficients(problem, head, "tilde", lp.coefficients(xs))
    report = stage.lines + [estimate_limit_bounds(lp).format()]
    return _report(args, "reduce_report.txt", report, stage.code, {"reduced_coefficients.csv": table})


def cmd_transform(args) -> int:
    problem = _need_config(args)
    eps = args.eps
    problem.geom.check_eps(eps)
    stage = harness.transform_stage(problem)
    dmap = stage.product
    if dmap is None:
        return _report(args, "transform_report.txt", stage.lines, stage.code)
    lo, hi = dmap.omega_hat
    zs = box_lattice(lo, hi, args.samples)
    heights = {"plus": problem.geom.g_plus, "minus": problem.geom.g_minus}
    profiles = {f"g_eps_{side}": top_profile(dmap, g, eps, zs) for side, g in heights.items()}
    profiles |= {f"eps_g_{side}": eps * g.value(zs) for side, g in heights.items()}
    co = hat_coefficients(problem, dmap, zs, np.zeros(len(zs)))
    report = [
        f"distortion map: r={dmap.r:g} sup|gamma|={dmap.gamma_sup:.6g} sup|Dgamma|={dmap.dgamma_sup:.6g}",
        f"profiles written for eps={eps:g} over {' x '.join(f'[{a:g}, {b:g}]' for a, b in zip(lo, hi))}",
    ]
    tables = {
        "profiles.csv": _table({**_points(zs, "z"), **profiles}),
        "hat_coefficients.csv": _coefficients(problem, _points(zs, "z"), "hat", co),
    }
    return _report(args, "transform_report.txt", report + stage.lines, stage.code, tables)


def cmd_barrier(args) -> int:
    problem = _need_config(args)
    if args.eps is not None:
        problem.geom.check_eps(args.eps)
    stage = harness.barrier_stage(problem, None)
    pair = stage.product
    if pair is None:
        return _report(args, "barrier_report.txt", stage.lines, stage.code)
    eps = args.eps if args.eps is not None else pair.params.eps1 / 2
    if not pair.reaches(eps):
        raise EpsOutOfRangeError(
            f"pulled-back barriers undefined beyond the map slab; need eps*sup|g| <= r (eps={eps}, r={pair.dmap.r})"
        )
    view = pair.view
    margins = bar.verify_barrier(view, pair, eps, grid=(args.nx, args.ny))
    tables = {}
    if args.csv:
        x, ys = bar.strip_nodes(view, box_lattice(view.lower, view.upper, args.nx), eps, args.ny)
        upper, lower = pair.values(x, ys, eps)
        tables["barrier_grids.csv"] = _table({**_points(x), "y": ys, "psi_upper": upper, "psi_lower": lower})
    code = EXIT_OK if margins.passed else EXIT_BARRIER
    return _report(args, "barrier_report.txt", stage.lines + [margins.format()], code, tables)


def cmd_solve(args) -> int:
    problem = _need_config(args)
    try:
        if args.limit:
            lp = reduce_problem(problem)
            fld = sol.solve_limit(lp, args.nx, tol=args.tol, max_iter=args.max_iter)
        else:
            if args.eps is None:
                print("error: solve needs --eps (or --limit)", file=sys.stderr)
                return EXIT_FAILURE
            fld = sol.solve_eps(problem, args.eps, nx=args.nx, ny=args.ny, tol=args.tol, max_iter=args.max_iter)
    except sol.SOLVER_ERRORS as exc:
        stop = harness.failure(exc)
        return _report(args, "solve_report.txt", stop.lines, stop.code)
    nodes = fld.grid.nodes()
    y = np.zeros(len(nodes)) if args.limit else nodes[:, -1]
    lam = np.asarray(problem.controls.min_labels)[fld.policy_min]
    mu = np.asarray(problem.controls.max_labels)[fld.policy_max]
    report = (
        f"solved {'limit' if args.limit else f'eps={args.eps}'} problem: residual {fld.residual:.3e} "
        f"(diagonal-scaled {fld.scaled_residual:.3e}) in {fld.iterations} iteration(s), "
        f"{fld.policy_switch_count} policy switch(es)"
    )
    table = _table({**_points(nodes[:, :problem.n]), "y": y, "u": fld.flat(), "active_lambda": lam, "active_mu": mu})
    return _report(args, "solve_report.txt", [report], EXIT_OK, {"solution.csv": table})


def cmd_converge(args) -> int:
    problem = _need_config(args)
    plan = load_experiment_settings(args.config)
    if args.eps is not None:
        try:
            args.eps = SETTING_RANGES["eps_list"](args.eps)
        except ValueError as exc:  # each value was checked as parsed, the list as a whole only here
            args.usage_error(f"argument --eps: {exc}")
    overrides = {"eps_list": args.eps, "nx": args.nx, "ny": args.ny, "limit_resolution": args.limit_nx}
    plan = replace(plan, **{k: v for k, v in overrides.items() if v is not None})
    stage = harness.barrier_stage(problem, None)
    if stage.code == EXIT_OK:
        stage = harness.converge_stage(problem, plan, stage.product)
    return _report(args, "converge_report.txt", stage.lines, stage.code, _convergence(stage))


def cmd_counterexample(args) -> int:
    report = circle_obstruction_demo(n_theta=args.n_theta)
    tables = {}
    if args.csv:
        candidate, theta, q = zip(*((r.candidate, r.theta_min, r.q_min) for r in report.rows))
        tables["counterexample.csv"] = _table({"candidate": candidate, "theta": theta, "quadratic_form": q})
    code = EXIT_OK if report.passed else EXIT_FAILURE
    return _report(args, "counterexample_report.txt", [report.format()], code, tables)


def cmd_pipeline(args) -> int:
    problem = _need_config(args)
    stage = harness.run_pipeline(problem, load_experiment_settings(args.config), seed=args.seed)
    return _report(args, "pipeline_report.txt", stage.lines, stage.code, _convergence(stage))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once per process; ``main`` runs ``cmd_<subcommand>``."""
    parser = argparse.ArgumentParser(prog="thinpde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the standing assumptions by sampling")
    _common(p)
    p.add_argument("--samples", type=int_at_least(4), default=harness.VALIDATE_SAMPLES)

    p = sub.add_parser("certify", help="interior/boundary ellipticity certificates")
    _common(p)
    p.add_argument("--samples", type=int_at_least(1), default=harness.CERTIFY_SAMPLES)
    p.add_argument("--csv", action="store_true", help="dump the per-node quadratic form")

    p = sub.add_parser("reduce", help="build the limit problem and dump its coefficients")
    _common(p)
    p.add_argument("--samples", type=int_at_least(1), default=16)
    p.add_argument("--samples-random", type=int_at_least(1), default=harness.REPRESENTATION_SAMPLES)

    p = sub.add_parser("transform", help="emit distorted-boundary profiles and hatted coefficients")
    _common(p)
    p.add_argument("--eps", type=positive_float, default=0.1)
    p.add_argument("--samples", type=int_at_least(1), default=32)

    p = sub.add_parser("barrier", help="search barrier parameters and verify the margins")
    _common(p)
    p.add_argument("--eps", type=positive_float, default=None)
    p.add_argument("--nx", type=int_at_least(1), default=bar.VERIFY_GRID[0])
    p.add_argument("--ny", type=int_at_least(1), default=bar.VERIFY_GRID[1])
    p.add_argument("--csv", action="store_true", help="dump the barrier grids")

    p = sub.add_parser("solve", help="solve the eps-problem (or the limit problem with --limit)")
    _common(p)
    p.add_argument("--eps", type=positive_float, default=None)
    p.add_argument("--nx", type=SETTING_RANGES["nx"], default=ExperimentPlan.nx)  # the plan's class attributes are its defaults
    p.add_argument("--ny", type=SETTING_RANGES["ny"], default=ExperimentPlan.ny, help="strip intervals in y (8 nodes at least)")
    p.add_argument("--tol", type=SETTING_RANGES["tol"], default=ExperimentPlan.tol)
    p.add_argument("--max-iter", type=SETTING_RANGES["max_iter"], default=ExperimentPlan.max_iter)
    p.add_argument("--limit", action="store_true")

    p = sub.add_parser("converge", help="measure sup|u_eps - u0| over a decreasing eps list")
    _common(p)
    p.add_argument("--eps", type=positive_float, nargs="*", default=None, help="a strictly decreasing list")
    p.add_argument("--nx", type=SETTING_RANGES["nx"], default=None)
    p.add_argument("--ny", type=SETTING_RANGES["ny"], default=None, help="strip intervals in y (8 nodes at least)")
    p.add_argument("--limit-nx", type=SETTING_RANGES["limit_resolution"], default=None)
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("counterexample", help="rotating-field obstruction sweep on the unit circle")
    _common(p)
    p.add_argument("--n-theta", type=int_at_least(64), default=4096)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("pipeline", help="run every stage in order")
    _common(p)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_FAILURE
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up at each call, so a patched cmd_* runs
    except (ConfigError, DegenerateThicknessError, EpsOutOfRangeError, EvalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except BrokenPipeError:
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
