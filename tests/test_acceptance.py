"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none is deferred to calibration.
"""

import math
from dataclasses import replace

import numpy as np

from thinpde import barriers as bar
from thinpde import distortion
from thinpde.distortion import build_map, hat_coefficients, top_profile
from thinpde.config import ExperimentPlan
from thinpde.ellipticity import circle_obstruction_demo, equivalence_check
from thinpde.harness import convergence_experiment, sandwich_margins
from thinpde.problem import operator_infsup
from problems import reference_problem, slice_exact_problem, transform_demo_problem
from thinpde.presets import rich_problem
from thinpde.reduction import reduce_problem, representation_check
from thinpde.solver import perturbation_certificate, solve_eps, solve_limit
from tests.test_harness import manufactured_solution_test
from tests.test_solver import _two_control_problem

EPS_LIST = (0.2, 0.1, 0.05, 0.025)


def _report(k: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {k:2d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {k} ({name}): {detail}"


def test_criterion_01_representation_identity():
    rich = rich_problem()
    rep = representation_check(rich, reduce_problem(rich), samples=1000, seed=0)
    _report(1, "representation identity", rep.worst <= 1e-8, f"max |G - F| = {rep.worst:.3e} <= 1e-8")


def test_criterion_02_equivalence_suite():
    worst = 0.0
    for prob in (reference_problem(), reference_problem(c="1"), reference_problem(gamma0="0.2*x1"), rich_problem()):
        worst = max(worst, equivalence_check(prob).worst)
    _report(2, "norm/quadratic form equivalence", worst <= 1e-10, f"max discrepancy {worst:.3e} <= 1e-10")


def test_criterion_03_circle_obstruction():
    rep = circle_obstruction_demo(n_theta=4096)
    worst = max(r.ratio for r in rep.rows)
    ok = len(rep.rows) == 5 and worst <= 1e-3
    _report(3, "circle obstruction", ok, f"5 candidates, worst min/max ratio {worst:.3e} <= 1e-3")


def test_criterion_04_transform_suite():
    prob = transform_demo_problem()
    dmap = build_map(prob)
    lo, hi = dmap.omega_hat
    worst_id = 0.0
    worst_disp = 0.0
    for x in np.linspace(lo[0], hi[0], 9):
        for y in np.linspace(-dmap.r, dmap.r, 7):
            z = dmap.inverse(np.array([[x]]), np.array([y]))[0]
            worst_id = max(worst_id, float(np.abs(dmap.forward(z[None], np.array([y]))[0] - [x, y]).max()))
            fwd = dmap.forward(np.array([[x]]), np.array([y]))[0]
            worst_id = max(worst_id, float(np.abs(dmap.inverse(fwd[None, :-1], np.array([y]))[0] - [x]).max()))
            worst_disp = max(worst_disp, float(np.abs(np.append(z, y) - [x, y]).max()) - dmap.r * dmap.gamma_sup)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    gaps = []
    for eps in eps_list:
        gaps.append(
            max(
                abs(top_profile(dmap, prob.geom.g_plus, eps, np.array([[z]]))[0] - eps * prob.geom.g_plus.value([[z]])[0])
                for z in np.linspace(lo[0], hi[0], 17)
            )
        )
    slope = float(np.polyfit(np.log(eps_list), np.log(gaps), 1)[0])
    ok = worst_id <= 1e-10 and worst_disp <= 1e-12 and slope >= 1.9
    _report(
        4,
        "transform suite",
        ok,
        f"round-trip {worst_id:.2e} <= 1e-10, displacement bound holds, profile-gap slope {slope:.3f} >= 1.9",
    )


def test_criterion_05_barrier_suite():
    details = []
    ok = True
    for c in ("0", "1"):
        prob = reference_problem(c=c)
        view = bar.flat_view(prob)
        params = bar.search_parameters(prob)
        for eps in (params.eps1 / 2, params.eps1 / 4):
            for grid in ((24, 8), (48, 16)):
                m = bar.verify_barrier(view, bar.BarrierPair(view, params), eps, grid=grid)
                ok = ok and m.passed
        details.append(f"c={c}: eps1={params.eps1:.4g}")
    distorted = reference_problem(gamma0="0.2*x1")
    pair = bar.search_barriers(distorted, dmap=build_map(distorted))
    for eps in (pair.params.eps1 / 2, pair.params.eps1 / 4):
        for grid in ((24, 8), (48, 16)):
            m = bar.verify_barrier(bar.flat_view(distorted), pair, eps, grid=grid)
            ok = ok and m.passed
    details.append(f"distorted: eps1={pair.params.eps1:.4g}")
    _report(5, "barrier search and margins", ok, "; ".join(details) + " (7 margins > 0 at eps1/2, eps1/4, two grids)")


def test_criterion_06_chain_rule_identity(monkeypatch):
    distorted = reference_problem(gamma0="0.2*x1")
    monkeypatch.setattr(distortion, "_FIXED_POINT_TOL", 1e-14)
    dmap = build_map(distorted)
    pair = bar.search_barriers(distorted, dmap=dmap)
    eps = pair.params.eps1 / 2
    rng = np.random.default_rng(7)
    zs, ys = [], []
    for _ in range(200):
        z = np.array([rng.uniform(0, 1)])
        zs.append(z)
        lo, hi = (top_profile(dmap, g, eps, z[None])[0] for g in (distorted.geom.g_minus, distorted.geom.g_plus))
        ys.append(float(rng.uniform(lo, hi)))
    z, y = np.array(zs), np.array(ys)
    x = dmap.forward(z, y)[:, :-1]
    # psi_bar pulled back, under F at x, and psi_bar^ under F^ at z = Q(x, y)
    (val, grad, hess), _ = pair.arrays(x, y, eps)
    lhs = operator_infsup(bar.flat_view(distorted).coefficients(x, y), hess, grad, val)[0]
    (val, grad, hess), _ = replace(pair, dmap=None).arrays(z, y, eps)
    rhs = operator_infsup(hat_coefficients(distorted, dmap, z, y), hess, grad, val)[0]
    worst = float(np.abs(lhs - rhs).max())
    _report(6, "chain-rule identity", worst <= 1e-6, f"max |F - F^| = {worst:.3e} <= 1e-6 at 200 nodes")


def test_criterion_07_solver_suite():
    pure = manufactured_solution_test()
    drift = manufactured_solution_test(drift=1.0)
    lp2 = reduce_problem(_two_control_problem())
    fld2 = solve_limit(lp2, 32)
    xs = fld2.grid.axes[0]
    two_ctrl_err = float(np.abs(fld2.flat() - xs * (1 - xs)).max())
    residuals_ok = True
    iter_ok = True
    prob = reference_problem()
    fields = [fld2, solve_limit(reduce_problem(prob), 64)]
    for eps in (0.1, 0.05):
        fields.append(solve_eps(prob, eps, nx=32, ny=16))
    for f in fields:
        residuals_ok = residuals_ok and f.residual <= 1e-10
        iter_ok = iter_ok and f.iterations <= 10
    ok = pure.rate >= 1.7 and drift.rate >= 0.9 and two_ctrl_err <= 1e-12 and residuals_ok and iter_ok
    _report(
        7,
        "solver suite",
        ok,
        f"rates {pure.rate:.2f}/{drift.rate:.2f} (>=1.7/0.9), two-control err {two_ctrl_err:.1e} <= 1e-12, "
        f"residuals <= 1e-10 in <= 10 iterations",
    )


def test_criterion_08_sandwich():
    prob = reference_problem()
    pair = bar.search_barriers(prob, None)
    worst = math.inf
    for eps in EPS_LIST:
        fld = solve_eps(prob, eps, nx=64, ny=16)
        lo_m, hi_m, _ = sandwich_margins(pair, eps, fld)
        worst = min(worst, lo_m, hi_m)
    _report(8, "barrier sandwich", worst >= 0.0, f"min nodewise margin {worst:.3e} >= 0 at eps in {EPS_LIST}")


def test_criterion_09_convergence():
    prob = reference_problem()
    table = convergence_experiment(prob, ExperimentPlan(eps_list=EPS_LIST), bar.search_barriers(prob, None))
    errs = [r.sup_error for r in table.rows]
    slice_exact = slice_exact_problem()
    se = convergence_experiment(slice_exact, ExperimentPlan(eps_list=EPS_LIST), bar.search_barriers(slice_exact, None))
    slice_ok = all(r.sup_error <= se.disc_error_estimate for r in se.rows)
    ok = table.strictly_decreasing and table.final_within_tolerance and slice_ok
    _report(
        9,
        "convergence to the limit",
        ok,
        f"E = {['%.2e' % e for e in errs]} strictly decreasing, E(min) <= 10 x {table.disc_error_estimate:.2e}; "
        f"slice-exact E <= disc error",
    )


def test_criterion_10_comparison_perturbation():
    rep = perturbation_certificate(reduce_problem(reference_problem()), 64)
    _report(
        10,
        "comparison perturbation",
        rep.passed and rep.worst <= -0.5,
        f"discrete homogeneous operator on psi <= {rep.worst:.3f} <= -1/2 (alpha={rep.alpha:g})",
    )


def test_criterion_11_pointwise_dirichlet():
    prob = reference_problem(beta="x1")
    lp = reduce_problem(prob)
    fld = solve_limit(lp, 64)
    left = fld.flat()[0] - lp.dirichlet_trace(np.array([[0.0]]))[0]
    right = fld.flat()[-1] - lp.dirichlet_trace(np.array([[1.0]]))[0]
    ok = left == 0.0 and right == 0.0
    _report(11, "pointwise Dirichlet attainment", ok, "limit boundary nodes equal beta(x,0) exactly")
