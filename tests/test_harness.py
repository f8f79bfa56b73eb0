import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from thinpde.barriers import search_barriers
from thinpde.config import ExperimentPlan, load_experiment_settings
from thinpde.harness import (
    EXIT_CERTIFICATE,
    EXIT_OK,
    EXIT_VALIDATION,
    convergence_experiment,
    converge_stage,
    run_pipeline,
)
from problems import reference_problem
from thinpde.presets import _entry
from thinpde.reduction import reduce_problem
from thinpde.solver import solve_limit

# two eps on a coarse strip and limit grid
SMALL = ExperimentPlan(eps_list=(0.1, 0.05), nx=16, ny=8, limit_resolution=16)


@dataclass
class RateReport:
    nx_list: tuple[int, ...]
    errors: tuple[float, ...]
    rate: float
    threshold: float
    passed: bool


def manufactured_solution_test(
    nx_list: tuple[int, ...] = (32, 64, 128, 256),
    drift: float = 0.0,
    target: str = "sine",
) -> RateReport:
    """Measure the limit solver's convergence order against a known solution.

    ``target="sine"`` uses u* = sin(pi x) (rate ~2 for pure diffusion,
    degrading toward 1 with upwinded drift); ``target="linear"`` uses
    u* = x, which the stencil reproduces exactly.
    """
    if target == "sine":
        f = f"pi*pi*sin(pi*x1) - {drift!r}*pi*cos(pi*x1)"
        beta = "sin(pi*x1)"
        exact = lambda x: np.sin(np.pi * x)
        threshold = 1.7 if drift == 0.0 else 0.9
    elif target == "linear":
        f = f"0 - {drift!r}"
        beta = "x1"
        exact = lambda x: x
        threshold = math.nan
    else:
        raise ValueError("target must be 'sine' or 'linear'")
    problem = reference_problem(f=f, beta=beta, b1=repr(float(drift)))
    lp = reduce_problem(problem)
    errors = []
    for nx in nx_list:
        fld = solve_limit(lp, nx)
        xs = fld.grid.axes[0]
        errors.append(float(np.abs(fld.flat() - exact(xs)).max()))
    if target == "linear":
        return RateReport(tuple(nx_list), tuple(errors), math.nan, math.nan, all(e <= 1e-12 for e in errors))
    hs = np.log([1.0 / nx for nx in nx_list])
    rate = float(np.polyfit(hs, np.log(errors), 1)[0])
    return RateReport(tuple(nx_list), tuple(errors), rate, threshold, rate >= threshold)


def test_plan_requires_decreasing_eps():
    with pytest.raises(ValueError):
        ExperimentPlan(eps_list=(0.1, 0.2))
    ExperimentPlan(eps_list=(0.2, 0.1))


@pytest.mark.parametrize("grid", [dict(nx=1), dict(limit_resolution=1)], ids=["nx", "limit_resolution"])
def test_plan_requires_an_interior_column(grid):
    with pytest.raises(ValueError, match="must be >= 2"):
        ExperimentPlan(**grid)
    ExperimentPlan(nx=2, limit_resolution=2)


@pytest.mark.parametrize(
    "setting, want",
    [
        (dict(eps_list=()), "^eps_list: must be a non-empty"),  # once an IndexError
        (dict(eps_list=(math.nan,)), "^eps_list: must be a finite number > 0, got nan$"),  # once an EvalDomainError
        (dict(eps_list=(-0.1,)), "^eps_list: must be a finite number > 0, got -0.1$"),  # once a NonMonotoneStencilError
        (dict(eps_list=(0.1, 0.0)), "^eps_list: must be a finite number > 0, got 0.0$"),  # once a SingularSystemError
        (dict(tol=math.nan), "^tol: must be a finite number > 0, got nan$"),  # once a PASS on any residual
        (dict(max_iter=0), "^max_iter: must be >= 1, got 0$"),
        (dict(ny=3), "^ny: must be >= 7, got 3$"),  # once a ValueError after the barrier stage
        # nx and limit_resolution share a range, so only the name tells them apart
        (dict(nx=1), "^nx: must be >= 2, got 1$"),
        (dict(limit_resolution=1), "^limit_resolution: must be >= 2, got 1$"),
    ],
    ids=["eps-empty", "eps-nan", "eps-negative", "eps-0", "tol-nan", "max_iter-0", "ny-3", "nx-1", "limit_resolution-1"],
)
def test_plan_range_checks_every_setting_on_construction(setting, want):
    with pytest.raises(ValueError, match=want):
        ExperimentPlan(**setting)
    with pytest.raises(ValueError, match=want):
        replace(ExperimentPlan(), **setting)


def test_plan_defaults_are_the_config_defaults(tmp_path):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text("[controls]\nL = 1\n")
    assert load_experiment_settings(cfg) == ExperimentPlan()
    assert ExperimentPlan(eps_list=[0.2, 0.1]).eps_list == (0.2, 0.1)


def test_manufactured_rates():
    pure = manufactured_solution_test(nx_list=(32, 64, 128))
    assert pure.passed and pure.rate >= 1.7
    drift = manufactured_solution_test(nx_list=(32, 64, 128), drift=1.0)
    assert drift.passed and 0.9 <= drift.rate <= 2.1
    linear = manufactured_solution_test(nx_list=(16, 32), target="linear")
    assert linear.passed and all(e <= 1e-12 for e in linear.errors)
    linear_drift = manufactured_solution_test(nx_list=(16, 32), target="linear", drift=1.0)
    assert linear_drift.passed


@pytest.fixture(scope="module")
def ref_table(reference):
    plan = ExperimentPlan(nx=32, ny=16, limit_resolution=32)
    return convergence_experiment(reference, plan, search_barriers(reference, None))


def test_convergence_reference(ref_table):
    table = ref_table
    assert table.strictly_decreasing
    assert table.final_within_tolerance
    assert table.passed
    errs = [r.sup_error for r in table.rows]
    assert errs == sorted(errs, reverse=True)
    # sandwich holds at every eps, certified or not
    for row in table.rows:
        assert row.sandwich_lower_margin > 0
        assert row.sandwich_upper_margin > 0


def test_single_eps_plan(reference):
    plan = ExperimentPlan(eps_list=(0.1,), nx=16, ny=8, limit_resolution=16)
    table = convergence_experiment(reference, plan, search_barriers(reference, None))
    assert len(table.rows) == 1
    assert not table.strictly_decreasing  # no monotonicity verdict from one row


def test_slice_exact_gap_below_discretization(slice_exact):
    plan = ExperimentPlan(nx=32, ny=16, limit_resolution=32)
    table = convergence_experiment(slice_exact, plan, search_barriers(slice_exact, None))
    for row in table.rows:
        assert row.sup_error <= table.disc_error_estimate
    # machine-zero gaps are not held to strict monotonicity
    assert table.within_noise_floor
    assert table.passed


def test_csv_deterministic(reference):
    from thinpde import cli

    stages = [converge_stage(reference, SMALL, search_barriers(reference, None)) for _ in range(2)]
    a, b = (cli._convergence(stage)["convergence.csv"] for stage in stages)
    assert a == b
    assert a.splitlines()[0].startswith("eps,")


def test_verdict_invariant_under_s_shift():
    base = reference_problem(s="x1")
    shifted = reference_problem(s="x1 + 1")
    ta = convergence_experiment(base, SMALL, search_barriers(base, None))
    tb = convergence_experiment(shifted, SMALL, search_barriers(shifted, None))
    assert ta.passed == tb.passed
    for ra, rb in zip(ta.rows, tb.rows):
        assert ra.sup_error == pytest.approx(rb.sup_error, abs=1e-14)


def test_pipeline_reference(reference):
    # the pipeline returns its last stage, the whole report and the measured table; the command line writes them
    result = run_pipeline(reference, SMALL)
    assert (result.code, result.name) == (EXIT_OK, "converge")
    assert result.lines[0] == "[stage validate]" and result.lines[-1] == "pipeline: SUCCESS"
    assert result.product.passed


def test_pipeline_stops_at_validation():
    result = run_pipeline(reference_problem(c="-1"))
    assert result.code == EXIT_VALIDATION
    assert result.name == "validate"
    assert result.lines[-1] == "pipeline: FAILED at stage validate (exit 2)"


def test_pipeline_slice_exact_passes(slice_exact):
    result = run_pipeline(slice_exact, SMALL)
    assert result.code == EXIT_OK


def test_pipeline_distorted_flags_converge_stage(distorted):
    # first-order thin-to-limit gap: the final threshold is out of reach at
    # desk-scale grids, so the pipeline must stop at converge with its table
    result = run_pipeline(distorted, ExperimentPlan(eps_list=(0.1, 0.05), nx=32, ny=16, limit_resolution=32))
    assert result.code == 1
    assert result.name == "converge"
    assert result.product is not None
    assert result.product.strictly_decreasing


def test_pipeline_stops_at_certificate():
    broken = reference_problem()
    broken.coeffs.entries[("1", "1")] = _entry(1, [["0", "0"], ["0", "1"]], ["0", "0"], "0", "0")
    result = run_pipeline(broken)
    assert result.code == EXIT_CERTIFICATE
    assert result.name == "certify"


@pytest.mark.parametrize("case", ["reference", "distorted"])
def test_pipeline_searches_barriers_once(case, monkeypatch, reference, distorted):
    from thinpde import barriers, distortion, harness

    calls = {"search_parameters": 0, "build_map": 0, "hat_view": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(barriers, "search_parameters", counted("search_parameters", barriers.search_parameters))
    monkeypatch.setattr(barriers, "hat_view", counted("hat_view", barriers.hat_view))
    monkeypatch.setattr(
        distortion.DistortionMap, "inverse", counted("inverse", distortion.DistortionMap.inverse)
    )
    build_map = counted("build_map", distortion.build_map)
    for mod in (distortion, harness):
        monkeypatch.setattr(mod, "build_map", build_map)
    problem = reference if case == "reference" else distorted
    plan = ExperimentPlan(eps_list=(0.1, 0.05, 0.025), nx=16, ny=8, limit_resolution=16)
    run_pipeline(problem, plan)
    assert calls["search_parameters"] == 1
    assert calls["build_map"] <= 1
    # the distorted view is built once, and each eps's sandwich inverts its strip nodes once
    assert calls["hat_view"] == (case == "distorted")
    assert calls["inverse"] == (len(plan.eps_list) if case == "distorted" else 0)


def test_pipeline_lets_an_unexpected_transform_error_propagate(distorted, monkeypatch):
    # only the named distortion failures become a "transform failed" verdict; a defect must surface
    from thinpde import harness

    def broken(problem):
        raise TypeError("a defect in build_map")

    monkeypatch.setattr(harness, "build_map", broken)
    with pytest.raises(TypeError, match="a defect in build_map"):
        run_pipeline(distorted, SMALL)
