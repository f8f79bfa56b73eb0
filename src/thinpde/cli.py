"""Command-line driver.

Subcommands: validate | certify | reduce | transform | barrier | solve |
converge | counterexample | pipeline.  All tables are CSV with a header
row; reports are plain structured text on stdout (and under --out when
given).  Exit codes: 0 success, 2 validation failure, 3 certificate
failure, 4 barrier search failure, 5 solver failure, 1 other failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import barriers as bar
from . import harness, solver as sol
from .config import load_experiment_settings, load_problem
from .distortion import build_map, pushforward, top_profile, bottom_profile
from .ellipticity import (
    _forms,
    _interior_rows,
    boundary_certificate,
    circle_obstruction_demo,
    equivalence_check,
    interior_certificate,
)
from .harness import (
    EXIT_BARRIER,
    EXIT_CERTIFICATE,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    fmt_float,
)
from .problem import validate as validate_problem
from .reduction import estimate_limit_bounds, reduce_problem, representation_check

__all__ = ["main"]


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


def _emit(args, name: str, text: str) -> None:
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + ("\n" if not text.endswith("\n") else ""))


def _write_csv(args, name: str, text: str) -> None:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)


def _per_pair(coeffs, k: int):
    """(a, b, c, f) of each control pair at node k, in ``control_pairs()`` order."""
    return zip(*(v[k].reshape(-1, *v.shape[3:]) for v in (coeffs.a, coeffs.b, coeffs.c, coeffs.f)))


def cmd_validate(args) -> int:
    problem = _need_config(args)
    report = validate_problem(problem, samples_per_axis=args.samples)
    _emit(args, "validate_report.txt", report.format())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_certify(args) -> int:
    problem = _need_config(args)
    interior = interior_certificate(problem, samples_per_axis=args.samples)
    boundary = boundary_certificate(problem, samples_per_axis=args.samples)
    equiv = equivalence_check(problem, samples_per_axis=args.samples)
    _emit(args, "certify_report.txt", "\n".join([interior.format(), boundary.format(), equiv.format()]))
    if args.csv:
        lines = ["x,lambda,mu,quadratic_form"]
        xs, vs = _interior_rows(problem, args.samples)
        forms = _forms(problem, xs, vs)[0].reshape(len(xs), -1)
        for x, q_row in zip(xs, forms):
            for (lam, mu), q in zip(problem.control_pairs(), q_row):
                lines.append(f"{fmt_float(x[0])},{lam},{mu},{fmt_float(q)}")
        _write_csv(args, "certify_interior.csv", "\n".join(lines) + "\n")
    ok = interior.passed and boundary.passed and equiv.passed
    return EXIT_OK if ok else EXIT_CERTIFICATE


def cmd_reduce(args) -> int:
    problem = _need_config(args)
    lp = reduce_problem(problem)
    rep = representation_check(problem, lp, samples=args.samples_random, seed=args.seed)
    bounds = estimate_limit_bounds(lp)
    n = problem.n
    head = [f"x{k + 1}" for k in range(n)] + ["lambda", "mu"]
    head += [f"a_tilde_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    head += [f"b_tilde_{i + 1}" for i in range(n)] + ["c_tilde", "f_tilde"]
    lines = [",".join(head)]
    xs = problem.geom.lattice(args.samples)
    co = lp.coefficients(xs)
    pairs = problem.control_pairs()
    for k, x in enumerate(xs):
        for (lam, mu), (a, b, c, f) in zip(pairs, _per_pair(co, k)):
            row = [fmt_float(v) for v in x] + [lam, mu]
            row += [fmt_float(v) for v in a.ravel()]
            row += [fmt_float(v) for v in b]
            row += [fmt_float(c), fmt_float(f)]
            lines.append(",".join(row))
    _write_csv(args, "reduced_coefficients.csv", "\n".join(lines) + "\n")
    _emit(args, "reduce_report.txt", rep.format() + "\n" + bounds.format())
    return EXIT_OK if rep.passed else EXIT_FAILURE


def cmd_transform(args) -> int:
    problem = _need_config(args)
    dmap = build_map(problem)
    hat = pushforward(problem, dmap)
    eps = args.eps
    lines = ["z,g_eps_plus,g_eps_minus,eps_g_plus,eps_g_minus"]
    lo, hi = dmap.omega_hat
    zs = np.linspace(lo[0], hi[0], args.samples + 1)
    za = zs[:, None]
    g_plus, g_minus = problem.geom.g_plus, problem.geom.g_minus
    columns = (
        zs,
        top_profile(dmap, g_plus, eps, za),
        bottom_profile(dmap, g_minus, eps, za),
        eps * g_plus.value(za),
        eps * g_minus.value(za),
    )
    lines += [",".join(fmt_float(v) for v in row) for row in zip(*columns)]
    _write_csv(args, "profiles.csv", "\n".join(lines) + "\n")
    clines = ["z,lambda,mu,a_hat_11,b_hat_1,c_hat,f_hat"]
    co = hat.coefficients(za, np.zeros(len(zs)))
    pairs = problem.control_pairs()
    for k, z in enumerate(zs):
        for (lam, mu), (a, b, c, f) in zip(pairs, _per_pair(co, k)):
            clines.append(",".join([fmt_float(z), lam, mu] + [fmt_float(v) for v in (a[0, 0], b[0], c, f)]))
    _write_csv(args, "hat_coefficients.csv", "\n".join(clines) + "\n")
    _emit(
        args,
        "transform_report.txt",
        f"distortion map: r={dmap.r:g} sup|gamma|={dmap.gamma_sup:.6g} sup|Dgamma|={dmap.dgamma_sup:.6g}\n"
        f"profiles written for eps={eps:g} over [{lo[0]:g}, {hi[0]:g}]",
    )
    return EXIT_OK


def cmd_barrier(args) -> int:
    problem = _need_config(args)
    try:
        params, make_pair = harness._barrier_pair_factory(problem)
    except bar.SearchExhaustedError as exc:
        _emit(args, "barrier_report.txt", str(exc))
        return EXIT_BARRIER
    eps = args.eps if args.eps is not None else params.eps1 / 2
    pair = make_pair(eps)
    margins = bar.verify_barrier(problem, pair, eps=eps, grid=(args.nx, args.ny))
    _emit(args, "barrier_report.txt", "parameters: " + params.format() + "\n" + margins.format())
    if args.csv:
        lines = ["x,y,psi_upper,psi_lower"]
        view = bar.flat_view(problem)
        xs = view.base_lattice(args.nx)
        x_idx, ys = view.strip_nodes(xs, eps, args.ny)
        x = xs[x_idx]
        columns = (x[:, 0], ys, pair.upper.values(x, ys), pair.lower.values(x, ys))
        lines += [",".join(fmt_float(v) for v in row) for row in zip(*columns)]
        _write_csv(args, "barrier_grids.csv", "\n".join(lines) + "\n")
    return EXIT_OK if margins.passed else EXIT_BARRIER


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
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    pairs = problem.control_pairs()
    lines = ["x,y,u,active_lambda,active_mu"]
    nodes = fld.grid.nodes()
    u = fld.flat()
    for i, z in enumerate(nodes):
        lam = problem.controls.min_labels[fld.policy_min[i]]
        mu = problem.controls.max_labels[fld.policy_max[i]]
        y = z[-1] if fld.grid.kind == "eps" else 0.0
        lines.append(f"{fmt_float(z[0])},{fmt_float(y)},{fmt_float(u[i])},{lam},{mu}")
    _write_csv(args, "solution.csv", "\n".join(lines) + "\n")
    _emit(
        args,
        "solve_report.txt",
        f"solved {'limit' if args.limit else f'eps={args.eps}'} problem: residual {fld.residual:.3e} "
        f"in {fld.iterations} iteration(s), {fld.policy_switch_count} policy switch(es)",
    )
    return EXIT_OK


def cmd_converge(args) -> int:
    problem = _need_config(args)
    settings = load_experiment_settings(args.config)
    eps_list = tuple(args.eps) if args.eps else settings.eps_list
    plan = harness.ExperimentPlan(
        problem=problem,
        eps_list=eps_list,
        nx=args.nx or settings.nx,
        ny=args.ny or settings.ny,
        limit_resolution=args.limit_nx or settings.limit_resolution,
        tol=settings.tol,
        max_iter=settings.max_iter,
        seed=args.seed,
    )
    try:
        table = harness.convergence_experiment(plan)
    except sol.SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_csv(args, "convergence.csv", table.to_csv())
    _emit(args, "converge_report.txt", table.format())
    return EXIT_OK if table.passed else EXIT_FAILURE


def cmd_counterexample(args) -> int:
    report = circle_obstruction_demo(n_theta=args.n_theta)
    _emit(args, "counterexample_report.txt", report.format())
    if args.csv:
        lines = ["candidate,theta,quadratic_form"]
        for row in report.rows:
            lines.append(f"{row.candidate},{fmt_float(row.theta_min)},{fmt_float(row.q_min)}")
        _write_csv(args, "counterexample.csv", "\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_pipeline(args) -> int:
    problem = _need_config(args)
    settings = load_experiment_settings(args.config)
    result = harness.run_pipeline(
        problem,
        eps_list=settings.eps_list,
        nx=settings.nx,
        ny=settings.ny,
        limit_resolution=settings.limit_resolution,
        seed=args.seed,
        out_dir=args.out,
        tol=settings.tol,
        max_iter=settings.max_iter,
    )
    print(result.report)
    return result.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="thinpde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the standing assumptions by sampling")
    _common(p)
    p.add_argument("--samples", type=int, default=8)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("certify", help="interior/boundary ellipticity certificates")
    _common(p)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--csv", action="store_true", help="dump the per-node quadratic form")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reduce", help="build the limit problem and dump its coefficients")
    _common(p)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--samples-random", type=int, default=1000)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("transform", help="emit distorted-boundary profiles and hatted coefficients")
    _common(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=32)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("barrier", help="search barrier parameters and verify the margins")
    _common(p)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--nx", type=int, default=32)
    p.add_argument("--ny", type=int, default=8)
    p.add_argument("--csv", action="store_true", help="dump the barrier grids")
    p.set_defaults(func=cmd_barrier)

    p = sub.add_parser("solve", help="solve the eps-problem (or the limit problem with --limit)")
    _common(p)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--limit", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="measure sup|u_eps - u0| over a decreasing eps list")
    _common(p)
    p.add_argument("--eps", type=float, nargs="*", default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--limit-nx", type=int, default=None)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("counterexample", help="rotating-field obstruction sweep on the unit circle")
    _common(p)
    p.add_argument("--n-theta", type=int, default=4096)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("pipeline", help="run every stage in order")
    _common(p)
    p.set_defaults(func=cmd_pipeline)

    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_FAILURE
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
