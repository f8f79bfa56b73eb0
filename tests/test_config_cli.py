import csv
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configgen import config_text, run_pipeline as run_drawn_pipeline
from thinpde import cli
from thinpde.cli import main
from thinpde.config import ConfigError, ExperimentPlan, load_experiment_settings, load_problem
from thinpde import distortion
from thinpde.harness import (
    EXIT_BARRIER,
    EXIT_CERTIFICATE,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    ConvergenceRow,
    ConvergenceTable,
    Stage,
    run_pipeline,
)
from thinpde.problem import CoefficientFamily, box_lattice, validate
from thinpde.reduction import reduce_problem, representation_check

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# a problem over the unit square: the strip is three-dimensional
BASE_2D = """
[controls]
L = 1
M = 1

[geometry]
lower = 0, 0
upper = 1, 1
g_minus = -1
g_plus = 1
epsilon0 = 0.25

[boundary]
gamma0 = 0, 0
beta0 = 0
k_plus = 0, 0
k_minus = 0, 0
l_plus = 0
l_minus = 0
beta = x1*x2
s = x1

[coefficients.1.1]
sigma = 1, 0, 0; 0, 1, 0; 0, 0, 1
b = 0, 0, 0
c = 0
f = 1
"""


def test_load_reference_config():
    p = load_problem(CONFIGS / "reference.cfg")
    assert p.n == 1
    assert p.controls.min_labels == ("1",)
    assert validate(p).passed
    # s = x1: its gradient is the exact derivative
    assert p.bdata.s_candidate.grad([[0.3]]).tolist() == [[1.0]]
    settings = load_experiment_settings(CONFIGS / "reference.cfg")
    assert settings.eps_list == (0.2, 0.1, 0.05, 0.025)
    assert settings.nx == 64


def test_load_distorted_config():
    p = load_problem(CONFIGS / "distorted.cfg")
    # gamma0 = 0.2 x1: its Jacobian is the exact derivative
    assert p.bdata.gamma0.jacobian([[0.3]]).tolist() == [[[0.2]]]
    rep = representation_check(p, reduce_problem(p), samples=100, seed=0)
    assert rep.passed


def test_an_absent_bound_keeps_the_family_default(tmp_path):
    cfg = tmp_path / "base2d.cfg"
    cfg.write_text(BASE_2D)  # no [coefficients] section
    assert load_problem(cfg).coeffs.bound == CoefficientFamily({}).bound
    assert load_problem(CONFIGS / "reference.cfg").coeffs.bound == 50.0


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[controls]\nL = 1\nM = 1\n")
    with pytest.raises(ConfigError):
        load_problem(bad)
    bad.write_text(
        "[controls]\nL = 1\nM = 1\n[geometry]\nlower = 0\nupper = 1\n"
        "g_minus = -1\ng_plus = 1\n[boundary]\ngamma0 = 0\nbeta0 = 0\nk_plus = 0\n"
        "k_minus = 0\nl_plus = 0\nl_minus = 0\nbeta = 0\ns = x1\n"
        "[coefficients.1.1]\nsigma = 1, 0; 0, 1\nb = 0\nc = 0\nf = 0\n"
    )
    with pytest.raises(ConfigError):  # b has too few entries
        load_problem(bad)


def _cfg(name: str) -> list[str]:
    return ["--config", str(CONFIGS / name)]


def test_cli_validate_ok(capsys):
    assert main(["validate"] + _cfg("reference.cfg")) == EXIT_OK
    out = capsys.readouterr().out
    assert "ALL ASSUMPTIONS HOLD" in out


def test_cli_validate_failure(tmp_path, capsys):
    text = (CONFIGS / "reference.cfg").read_text().replace("c = 0", "c = -1")
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main(["validate", "--config", str(bad)]) == EXIT_VALIDATION


def test_cli_certify(tmp_path, capsys):
    assert main(["certify"] + _cfg("reference.cfg") + ["--out", str(tmp_path), "--csv"]) == EXIT_OK
    assert (tmp_path / "certify_report.txt").exists()
    csv = (tmp_path / "certify_interior.csv").read_text()
    assert csv.splitlines()[0] == "x,lambda,mu,quadratic_form"


def test_cli_certify_failure(tmp_path):
    text = (CONFIGS / "reference.cfg").read_text().replace("sigma = 1, 0; 0, 1", "sigma = 0, 0; 0, 1")
    bad = tmp_path / "deg.cfg"
    bad.write_text(text)
    assert main(["certify", "--config", str(bad)]) == EXIT_CERTIFICATE


def test_degenerate_diffusion_gap_is_7_eps_over_64(tmp_path, capsys):
    # a22 = 0 decouples the rows of nodes: u_eps - u0 = y x1 (1 - x1) / 2, exact for the three-point scheme and
    # the interpolation, largest on the highest interior row y = 7 eps / 8 (ny 16); so E = 7 eps / 64, first order
    assert main(["converge"] + _cfg("degenerate.cfg") + ["--out", str(tmp_path)]) == EXIT_FAILURE
    assert "verdict: FAIL (strictly decreasing: True, below noise floor: False, E(eps_min) <= 10 x disc: False)" in (
        capsys.readouterr().out
    )
    with (tmp_path / "convergence.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["eps"]) for row in rows] == [0.2, 0.1, 0.05, 0.025]
    for row in rows:
        assert float(row["sup_error"]) == pytest.approx(7 * float(row["eps"]) / 64, rel=1e-12, abs=0)


def test_cli_reduce(tmp_path):
    assert main(["reduce"] + _cfg("reference.cfg") + ["--out", str(tmp_path), "--samples-random", "100"]) == EXIT_OK
    table = (tmp_path / "reduced_coefficients.csv").read_text()
    assert table.splitlines()[0] == "x1,lambda,mu,a_tilde_11,b_tilde_1,c_tilde,f_tilde"


def test_cli_transform(tmp_path):
    assert main(["transform"] + _cfg("distorted.cfg") + ["--out", str(tmp_path), "--eps", "0.1"]) == EXIT_OK
    profiles = (tmp_path / "profiles.csv").read_text().splitlines()
    assert profiles[0] == "z,g_eps_plus,g_eps_minus,eps_g_plus,eps_g_minus"
    assert len(profiles) > 10
    report = (tmp_path / "transform_report.txt").read_text().splitlines()
    assert report[-1] == "PASS straightened boundary data: max deviation 0.000e+00 (tolerance 1e-12)"


def test_cli_transform_fails_on_inexact_straightened_data(tmp_path, capsys, monkeypatch):
    # the original oblique data at P(z, y), not rotated by R^T: its head is gamma0 = 0.2 x1 at y = 0
    def unrotated(problem, dmap, sign, z, y):
        p = dmap.forward(z, y)
        return problem.bdata.oblique(sign, p[:, :-1], p[:, -1])

    monkeypatch.setattr(distortion, "hat_oblique", unrotated)
    assert main(["transform"] + _cfg("distorted.cfg")) == EXIT_FAILURE
    want = "FAIL straightened boundary data: max deviation 2.000e-01 (tolerance 1e-12) at (1.0, 0.0)"
    assert capsys.readouterr().out.splitlines()[-1] == want
    result = run_pipeline(load_problem(CONFIGS / "distorted.cfg"))
    assert (result.code, result.name) == (EXIT_FAILURE, "transform")
    assert want in result.lines


def test_cli_solve_csv(tmp_path):
    assert (
        main(["solve"] + _cfg("reference.cfg") + ["--eps", "0.1", "--nx", "16", "--ny", "8", "--out", str(tmp_path)])
        == EXIT_OK
    )
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,u,active_lambda,active_mu"
    assert len(lines) == 1 + 17 * 9


def test_csv_rows_built_by_column_match_a_row_by_row_build(rich):
    # the per-row f-strings the CSV writers once used, on a 2x2 control set and awkward floats
    xs = box_lattice(rich.geom.lower, rich.geom.upper, 8)
    co = reduce_problem(rich).coefficients(xs)
    want = [
        f"{','.join(repr(float(v)) for v in x)},{lam},{mu},{float(c)!r},{float(f)!r}"
        for x, cs, fs in zip(xs, co.c, co.f)
        for (lam, mu), c, f in zip(rich.controls.pairs(), cs.ravel(), fs.ravel())
    ]
    assert rich.n == 1
    assert cli._table(cli._per_pair(rich, cli._points(xs), {"c": co.c, "f": co.f})).splitlines() == ["x,lambda,mu,c,f", *want]
    values = np.array([0.1, -0.0, np.nan, -np.inf, 1e-300, 2.0**60])
    labels = np.array(["a", "b", "a", "b", "a", "b"])[[0, 1, 0, 1, 1, 0]]
    ints = [0, -3, 2**60, 7, 1, -(2**40)]
    bools = np.array([True, False, False, True, True, False])
    points = np.stack([values, values[::-1]], axis=1)
    want = [
        f"{float(p[0])!r},{float(p[1])!r},{float(v)!r},{lab},{i},{int(b)}"
        for p, v, lab, i, b in zip(points, values, labels, ints, bools)
    ]
    columns = {**cli._points(points), "v": values, "label": labels, "count": ints, "flag": bools}
    assert cli._table(columns).splitlines() == ["x1,x2,v,label,count,flag", *want]


def test_convergence_csv_cells_follow_the_per_field_rule():
    # ints as str, bools as 0/1, floats as repr(float): the rule once typed per ConvergenceRow field
    nan = math.nan
    rows = [
        ConvergenceRow(0.1, 64, 16, 0.0125, 1e-13, 2, False, nan, nan, nan),
        ConvergenceRow(0.05, 64, 16, 6.25e-3, 9.5e-14, 1, True, -0.0, 0.25, 2.0**60),
    ]
    table = ConvergenceTable(rows, 1e-12, 1e-3, 0.075, True, False)
    cell = {"int": str, "bool": lambda v: str(int(v)), "float": lambda v: repr(float(v))}
    columns = fields(ConvergenceRow)
    want = [",".join(c.name for c in columns)]
    want += [",".join(cell[c.type](getattr(r, c.name)) for c in columns) for r in rows]
    assert want[2] == "0.05,64,16,0.00625,9.5e-14,1,1,-0.0,0.25,1.152921504606847e+18"
    csv_text = cli._convergence(Stage("converge", EXIT_FAILURE, [], table))["convergence.csv"]
    assert csv_text.splitlines() == want
    assert cli._convergence(Stage("solve", EXIT_SOLVER, [], None)) == {}


def test_cli_solve_failure_is_reported_and_written(tmp_path, capsys):
    # a curved top once printed its solver failure on stderr only and created no --out
    text = (CONFIGS / "reference.cfg").read_text()
    assert "\ng_plus = 1\n" in text
    cfg = tmp_path / "curved.cfg"
    cfg.write_text(text.replace("\ng_plus = 1\n", "\ng_plus = 1 + 0.5*sin(16*pi*x1)\n"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--eps", "0.1", "--out", str(out)]) == EXIT_SOLVER
    want = "solver failed: eps-problem grids require constant g+- (flat strip)\n"
    assert capsys.readouterr() == (want, "")
    assert (out / "solve_report.txt").read_text() == want
    assert sorted(p.name for p in out.iterdir()) == ["solve_report.txt"]


@pytest.mark.parametrize("command", ["validate", "pipeline"])
@pytest.mark.parametrize("below", [False, True], ids=["a-file", "under-a-file"])
def test_cli_out_that_cannot_be_written_is_one_error_line(command, below, tmp_path, capsys):
    # an --out naming a file, or a path under one, once ended in a FileExistsError or NotADirectoryError traceback
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "sub" if below else taken
    assert main([command] + _cfg("reference.cfg") + ["--out", str(out)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {out}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert taken.read_text() == "a file\n"


def test_cli_solve_limit(tmp_path):
    assert main(["solve"] + _cfg("reference.cfg") + ["--limit", "--nx", "16", "--out", str(tmp_path)]) == EXIT_OK


def test_cli_solve_reports_scaled_residual(tmp_path):
    assert main(["solve"] + _cfg("reference.cfg") + ["--limit", "--nx", "16", "--out", str(tmp_path)]) == EXIT_OK
    report = (tmp_path / "solve_report.txt").read_text()
    assert report.startswith("solved limit problem: residual ")
    assert "(diagonal-scaled " in report and ") in 1 iteration(s)" in report


def test_cli_counterexample(tmp_path):
    assert main(["counterexample", "--n-theta", "256", "--out", str(tmp_path), "--csv"]) == EXIT_OK
    assert (tmp_path / "counterexample_report.txt").exists()


def test_counterexample_csv_quotes_a_candidate_that_holds_a_comma(tmp_path):
    # written unquoted, pow(x1, 2.0) gave its row 4 fields under the 3-column header
    assert main(["counterexample", "--n-theta", "256", "--out", str(tmp_path), "--csv"]) == EXIT_OK
    with open(tmp_path / "counterexample.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # an extra field would be read under the key None
    assert [list(row) for row in rows] == [["candidate", "theta", "quadratic_form"]] * 5
    assert [row["candidate"] for row in rows] == ["x1", "x2", "x1 + x2", "pow(x1, 2.0)", "x1 * x2"]
    assert '"pow(x1, 2.0)",0.0,0.0\n' in (tmp_path / "counterexample.csv").read_text()


def test_cli_barrier(tmp_path):
    assert main(["barrier"] + _cfg("reference.cfg") + ["--nx", "16", "--ny", "6", "--out", str(tmp_path)]) == EXIT_OK
    report = (tmp_path / "barrier_report.txt").read_text()
    assert "parameters:" in report and "m7" in report


def test_cli_converge(tmp_path):
    code = main(
        ["converge"]
        + _cfg("reference.cfg")
        + ["--eps", "0.1", "0.05", "--nx", "16", "--ny", "8", "--limit-nx", "16", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    csv = (tmp_path / "convergence.csv").read_text()
    assert csv.splitlines()[0].startswith("eps,nx,ny,sup_error")


def _config_variant(tmp_path, base: str, old: str, new: str) -> list[str]:
    """``--config`` for ``base`` with ``old`` replaced by ``new``."""
    cfg = tmp_path / "variant.cfg"
    cfg.write_text((CONFIGS / base).read_text().replace(old, new))
    return ["--config", str(cfg)]


def _margin_lines(report: str) -> list[str]:
    return [line for line in report.splitlines() if line.startswith(("  m1 ", "  m2 "))]


def _widths(out: Path) -> list[float]:
    with open(out / "convergence.csv", newline="") as fh:
        return [float(row["sandwich_width"]) for row in csv.DictReader(fh)]


def test_geometry_h_moves_the_barrier_level(tmp_path):
    # g- = -1, g+ = 1: without h the level is the midpoint 0; h = 0.5 moves it up, nearer the top
    h = _config_variant(tmp_path, "reference.cfg", "epsilon0 = 0.25\n", "epsilon0 = 0.25\nh = 0.5\n")
    for name, cfg in (("mid", _cfg("reference.cfg")), ("h", h)):
        for command in ("validate", "barrier", "converge"):
            assert main([command] + cfg + ["--out", str(tmp_path / name)]) == EXIT_OK
    mid, moved = ((tmp_path / name / "barrier_report.txt").read_text() for name in ("mid", "h"))
    assert _margin_lines(mid) == ["  m1 top+   1.980000e+00 ok", "  m2 bot+   1.980000e+00 ok"]
    assert _margin_lines(moved) == ["  m1 top+   9.900000e-01 ok", "  m2 bot+   2.970000e+00 ok"]
    # the sandwich at eps 0.2, above the certified eps1
    assert _widths(tmp_path / "mid")[0] == pytest.approx(5.963e3, rel=1e-3)
    assert _widths(tmp_path / "h")[0] == pytest.approx(8.587e3, rel=1e-3)


def test_geometry_h_outside_the_strip_fails_validation(tmp_path, capsys):
    cfg = _config_variant(tmp_path, "reference.cfg", "epsilon0 = 0.25\n", "epsilon0 = 0.25\nh = 2\n")
    assert main(["validate"] + cfg) == EXIT_VALIDATION
    assert "FAIL BarrierLevelBetween  worst=-1  witness=(0.0,)  g- < h < g+ required" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["barrier", "converge", "pipeline"])
def test_cli_barrier_search_on_a_steep_oblique_field_exits_4(command, tmp_path, capsys):
    # gamma0 = 50 x1 once overflowed in exp(alpha * s_sup) at the alpha stage: OverflowError, exit 1
    cfg = _config_variant(tmp_path, "distorted.cfg", "gamma0 = 0.2*x1", "gamma0 = 50*x1")
    assert main([command] + cfg + ["--out", str(tmp_path / "out")]) == EXIT_BARRIER
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    if command == "pipeline":
        assert lines[-1] == "pipeline: FAILED at stage barrier (exit 4)"
        lines = lines[-2:-1]
    assert len(lines) == 1
    assert "interior operator inequalities (alpha stage): barrier values leave float range" in lines[0]
    assert not (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize("command", ["transform", "barrier", "converge"])
@pytest.mark.parametrize(
    "gamma0, want",
    [
        # build_map samples the base box inflated by 1, where x1 + 0.5 < 0
        ("0.2*sqrt(x1 + 0.5)", "sqrt of negative value -0.5 at (-1.0,)"),
        ("1e15*x1", "no admissible slab half-height r; gamma too steep"),
    ],
    ids=["sqrt", "steep"],
)
def test_cli_unbuildable_distortion_map_exits_1_with_one_line(command, gamma0, want, tmp_path, capsys):
    # these once ended in an EvalDomainError or SingularJacobianError traceback, exit 1
    cfg = _config_variant(tmp_path, "distorted.cfg", "gamma0 = 0.2*x1", f"gamma0 = {gamma0}")
    assert main([command] + cfg + ["--out", str(tmp_path / "out")]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"transform failed: {want}\n"
    assert (tmp_path / "out" / f"{command}_report.txt").read_text() == captured.out
    assert not (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize("gamma0", ["0.3*sin(16*pi*x1)", "0.3*sin(16*pi*x1) + 1e-9*x1"], ids=["nodes", "nodes+"])
def test_pipeline_measures_no_sandwich_where_the_strip_leaves_the_map_slab(gamma0, tmp_path, capsys):
    # the first gamma0 vanishes on the 16-interval lattice, so the pipeline once skipped the transform and
    # stopped at the barrier stage; the second ran it, then ended in a NoConvergenceError traceback when the
    # sandwich inverted the map at eps = 0.2, beyond its slab r = 1/32 (sup|g| = 1)
    cfg = _config_variant(tmp_path, "reference.cfg", "gamma0 = 0\n", f"gamma0 = {gamma0}\n")
    assert main(["pipeline"] + cfg + ["--out", str(tmp_path / "out")]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[stage transform]" in captured.out
    with (tmp_path / "out" / "convergence.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["eps"] for r in rows] == ["0.2", "0.1", "0.05", "0.025"]
    sandwich = ("sandwich_lower_margin", "sandwich_upper_margin", "sandwich_width")
    for row in rows[:3]:
        assert row["certified"] == "0"
        assert all(row[k] == "nan" for k in sandwich)
    assert all(math.isfinite(float(rows[3][k])) for k in sandwich)


def test_pipeline_and_barrier_agree_on_the_searched_pair(tmp_path, capsys):
    # the search measures each candidate where `barrier` verifies the pair, on the original strip; a search in
    # distorted coordinates once passed a pair here whose m3 `barrier` measured as -1.196e4 (exit 4)
    cfg = _config_variant(tmp_path, "reference.cfg", "gamma0 = 0\n", "gamma0 = 0.3*sin(16*pi*x1)\n")
    searched = []
    for command in ("barrier", "pipeline"):
        assert main([command] + cfg) == EXIT_OK, command
        searched.append([line for line in capsys.readouterr().out.splitlines() if line.startswith("parameters: ")])
    assert searched[0] == searched[1] == [
        "parameters: alpha=16 Lambda=2 C_D=1 eps1=0.015625 r=0.015625 kappa=1.23562 C_alpha=3.85446e+08"
    ]


@pytest.mark.parametrize("csv_flag", [[], ["--csv"]], ids=["report", "csv"])
def test_cli_barrier_refuses_an_eps_beyond_the_map_slab(csv_flag, tmp_path, capsys):
    # the pulled-back pair is defined only for eps*sup|g| <= r = 1/32; verifying it at eps = 0.2 once
    # ended in a NoConvergenceError traceback from the map inverse
    cfg = _config_variant(tmp_path, "reference.cfg", "gamma0 = 0\n", "gamma0 = 0.3*sin(16*pi*x1)\n")
    out = tmp_path / "out"
    assert main(["barrier"] + cfg + ["--out", str(out), "--eps", "0.2"] + csv_flag) == EXIT_FAILURE
    _one_error_line(capsys, "need eps*sup|g| <= r (eps=0.2, r=0.03125)")
    assert not out.exists()
    # inside the slab the margins are verified, and fail
    assert main(["barrier"] + cfg + ["--out", str(out), "--eps", "0.02"] + csv_flag) == EXIT_BARRIER
    assert capsys.readouterr().err == ""


def test_cli_converge_reports_a_failed_barrier_search_like_barrier(tmp_path, capsys):
    # s = 0 cannot be normalized; converge once ended in a SearchExhaustedError traceback, exit 1
    cfg = _config_variant(tmp_path, "reference.cfg", "\ns = x1\n", "\ns = 0\n")
    outputs = []
    for command in ("barrier", "converge"):
        assert main([command] + cfg + ["--out", str(tmp_path / command)]) == EXIT_BARRIER
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert outputs[1].startswith("barrier parameter search exhausted its budget on: ellipticity normalization")
    assert len(outputs[1].splitlines()) == 1
    assert not (tmp_path / "converge" / "convergence.csv").exists()


def test_cli_threads_guard():
    assert main(["validate", "--threads", "0"] + _cfg("reference.cfg")) == 1


def test_cli_experiment_tol_and_max_iter_take_effect(tmp_path, capsys):
    # the shipped [experiment] section is last, so the appended fields land in it
    strict = tmp_path / "strict.cfg"
    strict.write_text((CONFIGS / "reference.cfg").read_text() + "tol = 1e-30\nmax_iter = 2\n")
    assert main(["pipeline", "--config", str(strict)]) == EXIT_SOLVER
    assert "FAILED at stage solve (exit 5)" in capsys.readouterr().out
    assert main(["converge", "--config", str(strict)]) == EXIT_SOLVER
    assert capsys.readouterr().out.startswith("solver failed: policy iteration hit 2 iterations")


def test_python_m_thinpde_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "thinpde", "validate", "--config", "configs/reference.cfg"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "ALL ASSUMPTIONS HOLD" in done.stdout


def _outputs(out: Path) -> dict[str, str]:
    """Each file under ``out``, with the per-eps runtimes of the reports masked."""
    return {f.name: re.sub(r", \d+\.\d+s\)", ", ?s)", f.read_text()) for f in sorted(out.iterdir())}


def test_cli_main_in_one_process_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    # the command line is built once per process; each call still behaves as a fresh `python -m thinpde`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = [["validate"], ["solve", "--limit"], ["converge", "--eps", "0.2", "0.1"], ["pipeline"]]
    cli._parser.cache_clear()
    for k, command in enumerate(commands):
        argv = command + ["--config", str(CONFIGS / "reference.cfg"), "--out"]
        code = main(argv + [str(tmp_path / f"warm{k}")])
        fresh = subprocess.run(
            [sys.executable, "-m", "thinpde", *argv, str(tmp_path / f"fresh{k}")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert code == fresh.returncode, fresh.stderr
        warm = _outputs(tmp_path / f"warm{k}")
        assert warm and warm == _outputs(tmp_path / f"fresh{k}")
    assert cli._parser.cache_info().misses == 1
    capsys.readouterr()
    # the command runs the module's cmd_* of the moment, as a tracer that wraps it after the first call needs
    monkeypatch.setattr(cli, "cmd_pipeline", lambda args: 42)
    assert main(["pipeline"]) == 42


def test_validate_loads_no_scipy_module():
    # only the solver needs scipy, and it loads it on the first assembly
    script = (
        "import sys\n"
        "from thinpde.cli import main\n"
        "code = main(['validate', '--config', 'configs/reference.cfg'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} []"


def test_cli_csvs_keep_every_base_coordinate(tmp_path):
    cfg = tmp_path / "base2d.cfg"
    cfg.write_text(BASE_2D)
    nx = 4

    def base_points(name: str, axis: str = "x") -> set:
        rows = (tmp_path / name).read_text().splitlines()
        assert rows[0].startswith(f"{axis}1,{axis}2,")
        return {tuple(row.split(",")[:2]) for row in rows[1:]}

    assert main(["solve", "--config", str(cfg), "--limit", "--nx", str(nx), "--out", str(tmp_path)]) == EXIT_OK
    assert len(base_points("solution.csv")) == (nx + 1) ** 2
    assert main(["certify", "--config", str(cfg), "--samples", str(nx), "--csv", "--out", str(tmp_path)]) == EXIT_OK
    assert len(base_points("certify_interior.csv")) == (nx + 1) ** 2
    args = ["--nx", str(nx), "--ny", "2", "--csv", "--out", str(tmp_path)]
    assert main(["barrier", "--config", str(cfg)] + args) == EXIT_OK
    assert len(base_points("barrier_grids.csv")) == (nx + 1) ** 2
    assert main(["transform", "--config", str(cfg), "--samples", str(nx), "--out", str(tmp_path)]) == EXIT_OK
    assert len(base_points("profiles.csv", "z")) == (nx + 1) ** 2
    assert len(base_points("hat_coefficients.csv", "z")) == (nx + 1) ** 2
    hat = (tmp_path / "hat_coefficients.csv").read_text().splitlines()
    assert hat[0] == "z1,z2,lambda,mu,a_hat_11,a_hat_12,a_hat_21,a_hat_22,b_hat_1,b_hat_2,c_hat,f_hat"
    # gamma0 = 0 leaves the identity diffusion and zero drift of [coefficients.1.1]
    assert {tuple(float(v) for v in row.split(",")[4:10]) for row in hat[1:]} == {(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)}


def test_certify_on_a_tiny_square_takes_only_its_edge_nodes_as_boundary(tmp_path, capsys):
    # every node lies within np.isclose's 1e-8 of both corners: all were once boundary nodes, some with
    # a 0/0 normal, and the boundary margin read nan
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(BASE_2D.replace("upper = 1, 1\n", "upper = 1e-9, 1e-9\n"))
    nodes, normals = load_problem(cfg).geom.boundary_nodes(4)
    assert len(nodes) == 16
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)
    assert main(["certify", "--config", str(cfg)]) == EXIT_OK
    assert "PASS boundary certificate: margin=1 " in capsys.readouterr().out


def test_cli_2d_converge_and_pipeline_stop_at_the_eps_solver(tmp_path, capsys):
    cfg = tmp_path / "base2d.cfg"
    cfg.write_text(BASE_2D)
    assert main(["converge", "--config", str(cfg)]) == EXIT_SOLVER
    assert "restricted to a 1-dimensional base" in capsys.readouterr().out
    assert main(["pipeline", "--config", str(cfg)]) == EXIT_SOLVER
    out = capsys.readouterr().out
    assert "restricted to a 1-dimensional base" in out
    assert "FAILED at stage solve (exit 5)" in out


def test_distorted_without_derivatives_passes_reduce_at_1e8():
    problem = load_problem(CONFIGS / "distorted.cfg")
    result = run_pipeline(problem, ExperimentPlan(eps_list=(0.1, 0.05), nx=16, ny=8, limit_resolution=16))
    report = "\n".join(result.lines)
    assert result.name not in ("validate", "certify", "reduce")
    assert "PASS representation identity" in report
    assert "(tolerance 1e-08)" in report


# every subcommand that reads --config; a malformed [experiment] value stops each of them
CONFIG_COMMANDS = ("validate", "certify", "reduce", "transform", "barrier", "solve", "converge", "pipeline")


def _one_error_line(capsys, want: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and want in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "old, new, want",
    [
        # the plan's field name in place of its key
        ("limit_nx = 64", "limit_resolution = 256", "[experiment] limit_resolution: unknown key"),
        ("epsilon0 = 0.25", "epsilon0 = 0.25\nepsilon_0 = 0.1", "[geometry] epsilon_0: unknown key"),
        ("[experiment]", "[experimnt]", "[experimnt]: unknown section"),
        # a raw override that the loader no longer reads
        ("s = x1\n", "s = x1\ngamma_plus = 5, 1\n", "[boundary] gamma_plus: unknown key"),
        # a control pair outside L = M = 1
        ("[experiment]", "[coefficients.2.1]\nc = 0\n\n[experiment]", "[coefficients.2.1]: unknown section"),
        # gradients and Hessians are always exact; a leftover section is not ignored
        ("[experiment]", "[derivatives]\ns/x1 = 1\n\n[experiment]", "[derivatives]: unknown section"),
        # configparser would copy its keys into every section
        ("[controls]", "[DEFAULT]\nepsilon0 = 0.2\n\n[controls]", "[DEFAULT]: unknown section"),
    ],
    ids=["limit_resolution", "epsilon_0", "experimnt", "gamma_plus", "coefficients.2.1", "derivatives", "DEFAULT"],
)
def test_config_rejects_an_unknown_section_or_key(old, new, want, tmp_path, capsys):
    text = (CONFIGS / "reference.cfg").read_text()
    assert text.count(old) == 1
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(want)):
        load_problem(cfg)
    assert main(["validate", "--config", str(cfg)]) == EXIT_FAILURE
    _one_error_line(capsys, want)


def test_experiment_settings_reject_an_unknown_key(tmp_path):
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text((CONFIGS / "reference.cfg").read_text().replace("limit_nx = 64", "limit_resolution = 256"))
    with pytest.raises(ConfigError, match=re.escape("[experiment] limit_resolution: unknown key")):
        load_experiment_settings(cfg)


def test_cli_reports_an_unreadable_config_file(tmp_path, capsys):
    assert main(["reduce", "--config", str(tmp_path / "missing.cfg")]) == EXIT_FAILURE
    _one_error_line(capsys, "cannot read config file")
    headless = tmp_path / "headless.cfg"
    headless.write_text("L = 1\n[controls]\n")
    assert main(["reduce", "--config", str(headless)]) == EXIT_FAILURE
    _one_error_line(capsys, "cannot parse config file")


def test_non_integer_experiment_setting_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "nx.cfg"
    cfg.write_text((CONFIGS / "reference.cfg").read_text().replace("\nnx = 64", "\nnx = abc"))
    with pytest.raises(ConfigError, match=r"\[experiment\] nx: .*'abc'"):
        load_experiment_settings(cfg)
    for command in CONFIG_COMMANDS:
        assert main([command, "--config", str(cfg)]) == EXIT_FAILURE
        _one_error_line(capsys, "[experiment] nx")


@pytest.mark.parametrize(
    "command, code, want",
    [
        ("certify", EXIT_CERTIFICATE, "FAIL |v sigma^T|^2 vs v A v^T: max discrepancy nan (tolerance 1e-10) at ((0.0,), '1', '1')"),
        ("reduce", EXIT_FAILURE, "FAIL representation identity over 1000 draws (seed 0): max |G - F| = nan (tolerance 1e-08) at ("),
    ],
)
def test_a_nan_deviation_fails_its_tolerance_check_and_names_its_point(command, code, want, tmp_path, capsys):
    # sigma^T sigma overflows to inf, so every identity row is nan; each once printed 0.000e+00 and PASS with exit 0
    text = (CONFIGS / "reference.cfg").read_text()
    text = text.replace("sigma = 1, 0; 0, 1", "sigma = 1e200, 0; 0, 1").replace("bound = 50", "bound = 1e300")
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--config", str(cfg)]) == code
    assert any(line.startswith(want) for line in capsys.readouterr().out.splitlines())


OVERFLOW_COMMANDS = ("validate", "certify", "reduce", "transform", "barrier", "converge", "pipeline")
NOT_NORMALIZED = "barrier parameter search exhausted its budget on: ellipticity normalization: (Ds,0) A(x,0) (Ds,0)^T not positive and finite"


@pytest.mark.parametrize(
    "edits, codes, want",
    [
        (
            # sigma^T sigma overflows to inf: its eigenvalues are nan, and both certificate forms inf
            (("sigma = 1, 0; 0, 1", "sigma = 1e200, 0; 0, 1"), ("bound = 50", "bound = 1e300")),
            (EXIT_VALIDATION, EXIT_CERTIFICATE, EXIT_FAILURE, EXIT_FAILURE, EXIT_BARRIER, EXIT_BARRIER, EXIT_VALIDATION),
            [
                "FAIL DiffusionPSD  worst=nan",
                "FAIL interior certificate: margin=inf",
                "FAIL boundary certificate: margin=inf",
                "FAIL representation identity over 1000 draws (seed 0): max |G - F| = nan",
                "FAIL transplanted ellipticity: margin=inf, two-sided agreement nan",
                NOT_NORMALIZED,
            ],
        ),
        (
            # Ds = 1e200, so only the interior form v A v^T overflows
            (("s = x1", "s = 1e200*x1"),),
            (EXIT_OK, EXIT_CERTIFICATE, EXIT_OK, EXIT_FAILURE, EXIT_BARRIER, EXIT_BARRIER, EXIT_CERTIFICATE),
            [
                "FAIL interior certificate: margin=inf",
                "FAIL transplanted ellipticity: margin=inf, two-sided agreement nan",
                NOT_NORMALIZED,
                "pipeline: FAILED at stage certify (exit 3)",
            ],
        ),
    ],
    ids=["sigma_1e200", "s_1e200_x1"],
)
def test_an_overflow_fails_its_check_without_a_numpy_warning(edits, codes, want, tmp_path, capsys):
    # tier-1 turns a RuntimeWarning into an error, so these run as `python -W error` does; each certificate
    # once printed PASS on margin=inf, and reduce, transform, barrier and converge once ended in a warning's traceback
    text = (CONFIGS / "reference.cfg").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    lines = []
    for command, code in zip(OVERFLOW_COMMANDS, codes):
        assert main([command, "--config", str(cfg)]) == code, command
        out, err = capsys.readouterr()
        assert err == "", command
        lines += out.splitlines()
    assert all(any(line.startswith(w) for line in lines) for w in want)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_rejects_fewer_than_one_random_sample(count, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["reduce"] + _cfg("reference.cfg") + ["--samples-random", count])
    assert stop.value.code == 2
    assert "--samples-random: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, want",
    [
        ("g_plus = 1\n", "", "[geometry] g_plus: missing"),
        ("lower = 0\n", "lower = a\n", "[geometry] lower: could not convert string to float: 'a'"),
    ],
    ids=["missing_g_plus", "non_numeric_lower"],
)
def test_cli_reports_a_bad_geometry_key_without_a_traceback(tmp_path, capsys, old, new, want):
    cfg = tmp_path / "geometry.cfg"
    cfg.write_text((CONFIGS / "reference.cfg").read_text().replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(want)):
        load_problem(cfg)
    assert main(["validate", "--config", str(cfg)]) == EXIT_FAILURE
    _one_error_line(capsys, want)


@pytest.mark.parametrize(
    "old, new, want",
    [
        # values that parse but break an invariant of the geometry or the control set
        ("upper = 1\n", "upper = 1, 1\n", "[geometry] box bounds must have one entry per dimension"),
        ("lower = 0\n", "lower = 1\n", "[geometry] box must have positive extent"),
        ("epsilon0 = 0.25\n", "epsilon0 = 2\n", "[geometry] epsilon0 must lie in (0, 1]"),
        ("lower = 0\n", "lower = nan\n", "[geometry] box bounds must be finite"),
        ("upper = 1\n", "upper = inf\n", "[geometry] box bounds must be finite"),
        (
            "lower = 0\nupper = 1\n",
            "lower = -1e308\nupper = 1e308\n",
            "[geometry] box extent upper - lower must be finite",
        ),
        ("M = 1\n", "M = 1, 1\n", "[controls] control set M has duplicate labels"),
        # shapes that do not fit the dimension, and a missing control pair
        ("sigma = 1, 0; 0, 1\n", "sigma = 1, 0; 0\n", "[coefficients.1.1] sigma rows need 2 columns"),
        ("b = 0, 0\n", "b = 0\n", "[coefficients.1.1] b needs 2 entries"),
        ("gamma0 = 0\n", "gamma0 = 0, 0\n", "field gamma0 needs 1 comma-separated expressions"),
        (
            "[coefficients.1.1]\nsigma = 1, 0; 0, 1\nb = 0, 0\nc = 0\nf = sin(pi*x1) + y\n",
            "",
            "missing [coefficients.1.1] section",
        ),
    ],
    ids=["upper", "lower", "epsilon0", "lower_nan", "upper_inf", "extent_overflow", "M", "sigma", "b", "gamma0", "pair"],
)
def test_cli_reports_a_bad_config_in_one_error_line(tmp_path, capsys, old, new, want):
    text = (CONFIGS / "reference.cfg").read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    assert main(["validate", "--config", str(cfg)]) == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize(
    "argv, minimum",
    [
        (["certify", "--samples", "0"], 1),
        (["reduce", "--samples", "0"], 1),
        (["reduce", "--samples", "-3"], 1),
        # validate samples its slab on at least 4 intervals per axis
        (["validate", "--samples", "3"], 4),
    ],
    ids=["certify-0", "reduce-0", "reduce--3", "validate-3"],
)
def test_cli_rejects_fewer_than_one_lattice_interval(argv, minimum, capsys):
    # a lattice of 0 intervals is the single point x = 0: no certificate at all
    with pytest.raises(SystemExit) as stop:
        main(argv[:1] + _cfg("reference.cfg") + argv[1:])
    assert stop.value.code == 2
    assert f"--samples: must be >= {minimum}" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "63"])
def test_cli_rejects_fewer_than_64_angles(count, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["counterexample", "--n-theta", count])
    assert stop.value.code == 2
    assert "--n-theta: must be >= 64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--eps", "0"],
        ["transform", "--eps", "-0.1"],
        ["transform", "--eps", "nan"],
        ["transform", "--eps", "inf"],
        ["barrier", "--eps", "-1"],
        ["solve", "--eps", "0"],
        ["converge", "--eps", "0.1", "-0.1"],
    ],
    ids=["transform-0", "transform-negative", "transform-nan", "transform-inf", "barrier-negative", "solve-0", "converge-negative"],
)
def test_cli_rejects_an_eps_that_is_not_a_finite_positive_number(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv[:1] + _cfg("distorted.cfg") + ["--out", str(tmp_path)] + argv[1:])
    assert stop.value.code == 2
    assert "--eps: must be a finite number > 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("eps", [["0.1", "0.2"], ["0.1", "0.1"], []], ids=["increasing", "repeated", "empty"])
def test_cli_rejects_a_converge_eps_list_that_does_not_decrease(eps, tmp_path, capsys):
    # an empty list once ran the config's eps list
    with pytest.raises(SystemExit) as stop:
        main(["converge"] + _cfg("reference.cfg") + ["--out", str(tmp_path), "--eps", *eps])
    assert stop.value.code == 2
    assert "--eps: must be a non-empty, strictly decreasing list" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, want",
    [
        (["solve", "--eps", "0.5"], "eps=0.5 exceeds epsilon0=0.25"),
        (["converge", "--eps", "0.5", "0.1"], "eps=0.5 exceeds epsilon0=0.25"),
        (["transform", "--eps", "0.9"], "eps=0.9 exceeds epsilon0=0.25"),
        # inside the slab bracket eps*sup|g| <= r = 0.5, but above epsilon0
        (["transform", "--eps", "0.3"], "eps=0.3 exceeds epsilon0=0.25"),
        (["barrier", "--eps", "0.9"], "eps=0.9 exceeds epsilon0=0.25"),
    ],
    ids=["solve", "converge", "transform", "transform-within-bracket", "barrier"],
)
def test_cli_reports_an_eps_out_of_range_without_a_traceback(argv, want, tmp_path, capsys):
    assert main(argv[:1] + _cfg("distorted.cfg") + ["--out", str(tmp_path)] + argv[1:]) == EXIT_FAILURE
    _one_error_line(capsys, want)
    assert not list(tmp_path.iterdir())


def test_cli_transform_reports_an_unbracketed_profile(tmp_path, capsys):
    # gamma0 = 3 x1 shrinks the slab half-height r to 0.125, below eps*sup|g| = 0.2
    cfg = tmp_path / "steep.cfg"
    cfg.write_text((CONFIGS / "distorted.cfg").read_text().replace("gamma0 = 0.2*x1", "gamma0 = 3*x1"))
    assert main(["transform", "--config", str(cfg), "--eps", "0.2"]) == EXIT_FAILURE
    _one_error_line(capsys, "profile equation not bracketed on [-r, r]; need eps*sup|g| <= r (eps=0.2, r=0.125)")


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--tol", "nan"], "--tol: must be a finite number > 0, got nan"),
        (["--tol", "-1"], "--tol: must be a finite number > 0, got -1"),
        (["--tol", "0"], "--tol: must be a finite number > 0, got 0"),
        (["--max-iter", "0"], "--max-iter: must be >= 1, got 0"),
    ],
    ids=["tol-nan", "tol-negative", "tol-0", "max-iter-0"],
)
def test_cli_solve_rejects_a_bad_tolerance_or_iteration_cap(argv, want, capsys):
    # tol nan accepted any residual; tol -1 ran every iteration on a stable policy
    with pytest.raises(SystemExit) as stop:
        main(["solve"] + _cfg("reference.cfg") + ["--eps", "0.1"] + argv)
    assert stop.value.code == 2
    assert want in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, want",
    [
        ("nx", "1", "[experiment] nx: must be >= 2, got 1"),
        ("limit_nx", "1", "[experiment] limit_nx: must be >= 2, got 1"),
        ("tol", "nan", "[experiment] tol: must be a finite number > 0, got nan"),
        ("tol", "-1e-10", "[experiment] tol: must be a finite number > 0, got -1e-10"),
        ("max_iter", "0", "[experiment] max_iter: must be >= 1, got 0"),
        ("ny", "3", "[experiment] ny: must be >= 7, got 3"),
        ("eps", "0.1, 0.2", "[experiment] eps: must be a non-empty, strictly decreasing list, got 0.1, 0.2"),
        ("eps", "0.1, -0.05", "[experiment] eps: must be a finite number > 0, got -0.05"),
    ],
    ids=["nx-1", "limit_nx-1", "tol-nan", "tol-negative", "max_iter-0", "ny-3", "eps-increasing", "eps-negative"],
)
def test_experiment_settings_out_of_range_are_config_errors(key, value, want, tmp_path, capsys):
    # the shipped [experiment] section is last, so the appended key lands in it
    # (configparser rejects a repeated key, so an existing one is replaced)
    text = (CONFIGS / "reference.cfg").read_text()
    text = re.sub(rf"(?m)^{key} = .*$\n?", "", text) + f"{key} = {value}\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(want)):
        load_experiment_settings(cfg)
    for command in CONFIG_COMMANDS:
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == EXIT_FAILURE
        _one_error_line(capsys, want)
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize(
    "argv, want",
    [
        (["solve", "--eps", "0.1", "--nx", "0"], "--nx: must be >= 2"),
        (["solve", "--eps", "0.1", "--nx", "1"], "--nx: must be >= 2"),
        (["solve", "--limit", "--nx", "0"], "--nx: must be >= 2"),
        (["solve", "--limit", "--nx", "1"], "--nx: must be >= 2"),
        (["solve", "--eps", "0.1", "--ny", "3"], "--ny: must be >= 7"),
        (["converge", "--nx", "0"], "--nx: must be >= 2"),
        (["converge", "--nx", "1"], "--nx: must be >= 2"),
        (["converge", "--ny", "6"], "--ny: must be >= 7"),
        (["converge", "--limit-nx", "0"], "--limit-nx: must be >= 2"),
        (["converge", "--limit-nx", "1"], "--limit-nx: must be >= 2"),
        (["barrier", "--nx", "0"], "--nx: must be >= 1"),
        (["barrier", "--ny", "0"], "--ny: must be >= 1"),
    ],
    ids=[
        "solve-nx",
        "solve-nx-1",
        "solve-limit-nx",
        "solve-limit-nx-1",
        "solve-ny",
        "converge-nx",
        "converge-nx-1",
        "converge-ny",
        "converge-limit-nx",
        "converge-limit-nx-1",
        "barrier-nx",
        "barrier-ny",
    ],
)
def test_cli_rejects_too_small_grids(argv, want, capsys):
    # barrier --nx 0 would verify the margins on a one-point lattice, and a
    # grid of nx 1 has no interior column, so a solve is all Dirichlet data and
    # converge's error is 0, its verdict vacuous
    with pytest.raises(SystemExit) as stop:
        main(argv[:1] + _cfg("reference.cfg") + argv[1:])
    assert stop.value.code == 2
    assert want in capsys.readouterr().err


def test_cli_solve_accepts_the_smallest_strip(tmp_path):
    argv = ["solve"] + _cfg("reference.cfg") + ["--eps", "0.1", "--nx", "2", "--ny", "7", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert len((tmp_path / "solution.csv").read_text().splitlines()) == 1 + 3 * 8


# report lines that only the single-stage subcommand prints, next to its stage's lines
SUBCOMMAND_EXTRAS = {
    "reduce": ("limit coefficient bounds: ",),
    "transform": ("distortion map: ", "profiles written for "),
    "barrier": ("margins at ", "  m", "  sandwich constant "),
}


def _without_runtimes(lines: list[str]) -> list[str]:
    return [re.sub(r", \d+\.\d+s\)$", ")", line) for line in lines]


@pytest.mark.parametrize("config", ["reference.cfg", "slice_exact.cfg", "distorted.cfg"])
def test_pipeline_stages_report_what_the_single_stage_subcommands_report(config, tmp_path, capsys):
    main(["pipeline"] + _cfg(config) + ["--out", str(tmp_path / "pipeline")])
    sections: dict[str, list[str]] = {}
    for line in (tmp_path / "pipeline" / "pipeline_report.txt").read_text().splitlines()[:-1]:
        if line.startswith("[stage "):
            lines = sections.setdefault(line[len("[stage ") : -1], [])
        else:
            lines.append(line)
    distorted = ["transform"] if config == "distorted.cfg" else []
    assert list(sections) == ["validate", "certify", "reduce", *distorted, "barrier", "solve + converge"]
    for header, lines in sections.items():
        command = header.split(" ")[-1]
        main([command] + _cfg(config) + ["--out", str(tmp_path / command)])
        own = (tmp_path / command / f"{command}_report.txt").read_text().splitlines()
        own = [line for line in own if not line.startswith(SUBCOMMAND_EXTRAS.get(command, ()))]
        assert _without_runtimes(own) == _without_runtimes(lines), command


@pytest.mark.parametrize(
    "command, point",
    [
        ("certify", "(0.0, 0.0)"),
        ("reduce", "(0.016527635528529094, 0.0)"),
        ("barrier", "(0.0, 0.0)"),
        ("solve --eps 0.1", "(0.015625, -0.08750000000000001)"),
        ("solve --limit", "(0.015625, 0.0)"),
        ("converge", "(0.0, 0.0)"),
    ],
)
def test_cli_field_outside_its_domain_exits_1_with_one_line(command, point, tmp_path, capsys):
    # f = 1/0 once ended in an EvalDomainError traceback, exit 1
    cfg = _config_variant(tmp_path, "reference.cfg", "f = sin(pi*x1) + y\n", "f = 1/0\n")
    out = tmp_path / "out"
    assert main(command.split() + cfg + ["--out", str(out)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == f"error: division by zero at {point}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["reduce", "solve --limit"])
def test_cli_vanishing_thickness_exits_1_with_one_line(command, tmp_path, capsys):
    # g+ - g- vanishes at x1 = 0.3125, a node of the 16- and 64-interval lattices of reduce and solve --limit
    # (not of validate's 8-interval one); it once ended in a DegenerateThicknessError traceback
    text = (CONFIGS / "reference.cfg").read_text()
    assert "g_minus = -1\ng_plus = 1\n" in text
    cfg = tmp_path / "thin.cfg"
    cfg.write_text(text.replace("g_minus = -1\ng_plus = 1\n", "g_minus = 0\ng_plus = pow(x1 - 0.3125, 2)\n"))
    assert main(command.split() + ["--config", str(cfg)]) == EXIT_FAILURE
    assert capsys.readouterr().err == "error: g+ - g- = 0.000e+00 at x = (0.3125,)\n"


@settings(max_examples=50, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_configs_end_in_an_exit_code_not_a_traceback(seed):
    # configs drawn around distorted.cfg (tests/configgen.py), run with warnings as errors
    code, stage, err = run_drawn_pipeline(config_text(np.random.default_rng(seed)))
    assert code in range(6), (code, stage, err)
    assert "Traceback" not in err


def test_drawn_configs_with_a_huge_c_alpha_pass_the_barrier_search():
    # seed-0 draws 49 and 144 search alpha 64 and 16, so C_alpha (6.1e42, 5.8e33) exceeds C_D * 2^53:
    # unless rho adds C_D last, C_D is rounded away and the C_D stage exhausts its budget
    rng = np.random.default_rng(0)
    texts = [config_text(rng) for _ in range(145)]
    for draw in (49, 144):
        code, stage, err = run_drawn_pipeline(texts[draw])
        assert stage in ("solve", "converge", "done"), (draw, code, stage, err)
