from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thinpde import reduction
from thinpde.config import load_problem
from thinpde.expressions import base_vars
from problems import reference_problem
from thinpde.presets import _scalar, rich_problem
from thinpde.problem import operator_infsup
from thinpde.reduction import (
    DegenerateThicknessError,
    bordered_matrices,
    estimate_limit_bounds,
    reduce_problem,
    representation_check,
)
from thinpde.solver import solve_limit


def _aux(problem, x):
    """(b_aux . e_1, c_aux) at one base point: the corners of the bordered B (with p = e_1) and C."""
    n = problem.n
    _, b_mat, c_mat = bordered_matrices(problem, np.array([x], dtype=float), np.zeros((1, n, n)), np.eye(n)[:1])
    return b_mat[0, n, n], c_mat[0, n, n]


def _g(lp, X, p, r, x) -> float:
    """The limit operator's value at one base point, from the coefficient bundle there."""
    return float(operator_infsup(lp.coefficients(np.array([x], dtype=float)), X, p, r)[0][0])


def test_aux_fields_vanish_for_trivial_data(reference):
    for x in np.linspace(0, 1, 9):
        b_aux, c_aux = _aux(reference, [x])
        assert np.allclose(b_aux, 0.0, atol=1e-12)
        assert c_aux == pytest.approx(0.0, abs=1e-12)


def test_aux_source_from_gamma0_beta0():
    # gamma0 = beta0 = x1 with k, l = 0 gives c_aux = -x1
    p = reference_problem(gamma0="x1")
    p.bdata.beta0 = _scalar("x1", base_vars(1))
    for x in np.linspace(0, 1, 7):
        assert _aux(p, [x])[1] == pytest.approx(-x, abs=1e-9)


def test_aux_source_thickness_average():
    # g+ = 1, g- = 0, l+ = 1, l- = 5, gamma0 = 0: c_aux = (1*1 + 0*5)/1 = 1
    p = reference_problem()
    bv = base_vars(1)
    p.geom.g_minus = _scalar("0", bv)
    p.geom.g_plus = _scalar("1", bv)
    p.bdata.l_plus = _scalar("1", bv)
    p.bdata.l_minus = _scalar("5", bv)
    assert _aux(p, [0.5])[1] == pytest.approx(1.0)


def test_degenerate_thickness():
    p = reference_problem()
    bv = base_vars(1)
    p.geom.g_minus = _scalar("1", bv)  # same as g_plus
    with pytest.raises(DegenerateThicknessError):
        _aux(p, [0.5])


def test_reduce_trivial_collapse(reference):
    # gamma0 = beta0 = k = l = 0: the reduced fields are the y = 0 traces
    lp = reduce_problem(reference)
    for x in np.linspace(0, 1, 7):
        z = np.array([x, 0.0])
        co, e = lp.coefficients(np.array([[x]])), reference.coefficients(z[None])
        assert co.a[0, 0, 0][0, 0] == pytest.approx(e.a[0, 0, 0][0, 0])
        assert co.b[0, 0, 0][0] == pytest.approx(e.b[0, 0, 0][0])
        assert co.c[0, 0, 0] == pytest.approx(e.c[0, 0, 0])
        assert co.f[0, 0, 0] == pytest.approx(e.f[0, 0, 0])


def test_reduce_constant_gamma0():
    # gamma0 = 1, A = I2: A~ = (1, -1) I (1, -1)^T = 2
    p = reference_problem(gamma0="1")
    lp = reduce_problem(p)
    assert lp.coefficients(np.array([[0.3]])).a[0, 0, 0][0, 0] == pytest.approx(2.0)


def test_b_tilde_fd_oracle():
    # G is affine in p, so differencing G in p recovers -b~; for gamma0 = x1
    # with A = I2 and b = 0 the drift reduces to A_{22} b_aux = x1
    p = reference_problem(gamma0="x1")
    lp = reduce_problem(p)
    delta = 1e-6
    for x in np.linspace(0.1, 0.9, 5):
        base = _g(lp, np.zeros((1, 1)), np.zeros(1), 0.0, [x])
        bumped = _g(lp, np.zeros((1, 1)), np.array([delta]), 0.0, [x])
        b_fd = -(bumped - base) / delta
        b_tilde = lp.coefficients(np.array([[x]])).b[0, 0, 0]
        assert b_fd == pytest.approx(b_tilde[0], abs=1e-6)
        assert b_tilde[0] == pytest.approx(x, abs=1e-9)


def test_sigma_tilde_factorization(rich):
    lp = reduce_problem(rich)
    for x in np.linspace(0, 1, 9):
        co = lp.coefficients(np.array([[x]]))
        for il, im in np.ndindex(co.c.shape[1:]):
            s = co.sigma[0, il, im]
            a = co.a[0, il, im]
            assert np.allclose(s.T @ s, a, atol=1e-10)
            assert np.linalg.eigvalsh(a).min() >= -1e-10
            assert co.c[0, il, im] >= 0.0


def test_representation_identity_analytic(rich):
    rep = representation_check(rich, reduce_problem(rich), samples=1000, seed=0)
    assert rep.passed
    assert rep.worst <= 1e-8


def test_representation_identity_fd_derivatives():
    # the exact derivatives hold the identity at the default 1e-8 tolerance
    rich = rich_problem()
    rep = representation_check(rich, reduce_problem(rich), samples=300, seed=4)
    assert rep.passed


def _loop_draws(lower, upper, samples, seed):
    """The per-sample draws the representation check made before its block draw: the reference layout."""
    rng = np.random.default_rng(seed)
    n = len(lower)
    Xs, ps, rs, xs = np.empty((samples, n, n)), np.empty((samples, n)), np.empty(samples), np.empty((samples, n))
    for k in range(samples):
        raw = rng.uniform(-1.0, 1.0, size=(n, n))
        Xs[k] = 0.5 * (raw + raw.T)
        ps[k] = rng.uniform(-1.0, 1.0, size=n)
        rs[k] = float(rng.uniform(-1.0, 1.0))
        xs[k] = rng.uniform(np.asarray(lower), np.asarray(upper))
    return Xs, ps, rs, xs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_draws_match_the_per_sample_loop_bitwise(n):
    lower, upper = (-0.3, 0.1, -2.0)[:n], (1.7, 0.35, 5.0)[:n]
    for seed in (0, 1, 2, 7, 12345):
        for got, want in zip(reduction._draws(lower, upper, 400, seed), _loop_draws(lower, upper, 400, seed)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("source", ["reference.cfg", "distorted.cfg", "rich"])
def test_block_draws_keep_every_report(source, monkeypatch):
    problem = rich_problem() if source == "rich" else load_problem(CONFIGS / source)
    lp = reduce_problem(problem)
    for seed in range(4):
        got = representation_check(problem, lp, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(reduction, "_draws", _loop_draws)
            want = representation_check(problem, lp, seed=seed)
        assert (got.worst, got.witness, got.format()) == (want.worst, want.witness, want.format())


@pytest.mark.parametrize("samples", [0, -3])
def test_representation_check_needs_a_draw(reference, samples):
    with pytest.raises(ValueError, match="samples >= 1"):
        representation_check(reference, reduce_problem(reference), samples=samples)


def test_representation_identity_degenerate(reference):
    rep = representation_check(reference, reduce_problem(reference), samples=200, seed=2)
    assert rep.passed
    assert rep.worst <= 1e-9


def test_operator_g_examples(reference):
    lp = reduce_problem(reference)
    out = _g(lp, np.array([[2.0]]), np.zeros(1), 0.0, [0.5])
    f = lp.coefficients(np.array([[0.5]])).f[0, 0, 0]
    assert out == pytest.approx(-2.0 - f)
    p = reference_problem(c="1", f="0")
    lp2 = reduce_problem(p)
    out = _g(lp2, np.zeros((1, 1)), np.zeros(1), -3.0, [0.5])
    assert out == pytest.approx(-3.0)


def test_g_monotone_and_elliptic(rich):
    lp = reduce_problem(rich)
    rng = np.random.default_rng(5)
    for _ in range(30):
        X = np.array([[rng.uniform(-1, 1)]])
        p = rng.uniform(-1, 1, size=1)
        x = [rng.uniform(0, 1)]
        r1, r2 = sorted(rng.uniform(-1, 1, size=2))
        assert _g(lp, X, p, r1, x) <= _g(lp, X, p, r2, x) + 1e-12
        t = rng.uniform(0, 1)
        assert _g(lp, X, p, 0.0, x) >= _g(lp, X + t * np.eye(1), p, 0.0, x) - 1e-12


def test_subadditivity(rich):
    # G(a1) - G(a2) <= sup over controls of the homogeneous part at a1 - a2
    lp = reduce_problem(rich)
    rng = np.random.default_rng(6)
    for _ in range(40):
        X1, X2 = (np.array([[rng.uniform(-1, 1)]]) for _ in range(2))
        p1, p2 = (rng.uniform(-1, 1, size=1) for _ in range(2))
        r1, r2 = (float(rng.uniform(-1, 1)) for _ in range(2))
        x = [rng.uniform(0, 1)]
        lhs = _g(lp, X1, p1, r1, x) - _g(lp, X2, p2, r2, x)
        co = lp.coefficients(np.array([x]))
        homogeneous = replace(co, f=np.zeros_like(co.f))
        rhs = max(
            float(operator_infsup(homogeneous.pair(il, im), X1 - X2, p1 - p2, r1 - r2)[0][0])
            for il, im in np.ndindex(co.c.shape[1:])
        )
        assert lhs <= rhs + 1e-10


def test_limit_bounds_report(rich):
    lp = reduce_problem(rich)
    rep = estimate_limit_bounds(lp)
    assert np.isfinite(rep.sup_bound) and rep.sup_bound > 0
    assert np.isfinite(rep.lipschitz_sigma_b)
    assert "limit coefficient bounds" in rep.format()


def test_dirichlet_trace(rich):
    lp = reduce_problem(rich)
    assert lp.dirichlet_trace(np.array([[0.0], [1.0]])) == pytest.approx([0.0, 1.0])  # beta = x1 at y = 0


def test_dirichlet_trace_is_beta_at_y_zero():
    # beta depends on y, so a trace taken anywhere but y = 0 misses these literals
    lp = reduce_problem(reference_problem(beta="x1 + 2*y"))
    assert lp.dirichlet_trace(np.array([[0.0], [0.5], [1.0]])).tolist() == [0.0, 0.5, 1.0]
    u = solve_limit(lp).flat()
    assert (u[0], u[-1]) == (0.0, 1.0)
