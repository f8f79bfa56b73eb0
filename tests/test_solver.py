import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from thinpde.config import load_problem
from thinpde.expressions import base_vars, strip_vars, VectorField
from problems import reference_problem
from thinpde.presets import _entry, _scalar, rich_problem
from thinpde.problem import (
    BoundaryData,
    CoefficientFamily,
    ControlSet,
    EpsOutOfRangeError,
    GeometrySpec,
    ThinProblem,
    inf_sup,
    strip_lattice,
    strip_points,
)
from thinpde import solver
from thinpde.reduction import reduce_problem
from thinpde.solver import (
    BOTTOM,
    DIRICHLET,
    INTERIOR,
    TOP,
    DiscreteSystem,
    MaxIterExceededError,
    NonMonotoneStencilError,
    SingularSystemError,
    _factor,
    _residual_stack,
    _solve_frozen,
    discretize_eps,
    discretize_limit,
    make_eps_grid,
    make_limit_grid,
    perturbation_certificate,
    policy_iteration,
    solve_eps,
    solve_limit,
)


def _two_control_problem(f1="2", f2="4", beta="0"):
    bv = base_vars(1)
    entries = {
        ("1", "1"): _entry(1, [["1", "0"], ["0", "1"]], ["0", "0"], "0", f1),
        ("1", "2"): _entry(1, [["1", "0"], ["0", "1"]], ["0", "0"], "0", f2),
    }
    return ThinProblem(
        controls=ControlSet(("1",), ("1", "2")),
        coeffs=CoefficientFamily(entries=entries, bound=50.0),
        geom=GeometrySpec((0.0,), (1.0,), _scalar("-1", bv), _scalar("1", bv), 0.25),
        bdata=BoundaryData(
            gamma0=VectorField([_scalar("0", bv)]),
            beta0=_scalar("0", bv),
            k_plus=VectorField([_scalar("0", bv)]),
            k_minus=VectorField([_scalar("0", bv)]),
            l_plus=_scalar("0", bv),
            l_minus=_scalar("0", bv),
            beta_lateral=_scalar(beta, strip_vars(1)),
            s_candidate=_scalar("x1", bv),
        ),
    )


def _all_dirichlet(grid):
    """``grid`` with its top and bottom nodes reclassified as Dirichlet nodes (lateral data on the whole boundary)."""
    cls = grid.classification.copy()
    cls[(cls == TOP) | (cls == BOTTOM)] = DIRICHLET
    return replace(grid, classification=cls)


def test_grid_classification(reference):
    grid = make_eps_grid(reference, 0.1, nx=4, ny=8)
    cls = grid.classification.reshape(grid.shape)
    assert (cls[0, :] == DIRICHLET).all() and (cls[-1, :] == DIRICHLET).all()
    assert (cls[1:-1, -1] == TOP).all()
    assert (cls[1:-1, 0] == BOTTOM).all()
    assert (cls[1:-1, 1:-1] == INTERIOR).all()
    counts = {k: int((grid.classification == k).sum()) for k in (INTERIOR, TOP, BOTTOM, DIRICHLET)}
    assert sum(counts.values()) == grid.size


def test_eps_grid_guards(reference, transform_demo):
    with pytest.raises(ValueError):
        make_eps_grid(reference, 0.5, nx=8, ny=8)  # above epsilon0
    with pytest.raises(ValueError, match="^ny: must be >= 7, got 4$"):
        make_eps_grid(reference, 0.1, nx=8, ny=4)  # too few vertical nodes
    with pytest.raises(NotImplementedError):
        make_eps_grid(transform_demo, 0.1, nx=8, ny=8)  # curved g+
    # a top from 0.5 to 1.5 that equals 1 at every node of a 16-interval lattice, which once decided flatness
    curved = replace(reference, geom=replace(reference.geom, g_plus=_scalar("1 + 0.5*sin(16*pi*x1)", base_vars(1))))
    with pytest.raises(NotImplementedError, match=r"^eps-problem grids require constant g\+- \(flat strip\)$"):
        make_eps_grid(curved, 0.1, nx=8, ny=8)
    # each once failed late: a domain or stencil error, or a divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (math.nan, -0.1, 0.0, -math.inf):
            with pytest.raises(EpsOutOfRangeError, match="is not a number > 0"):
                make_eps_grid(reference, eps, nx=8, ny=8)
            with pytest.raises(EpsOutOfRangeError, match="is not a number > 0"):
                solve_eps(reference, eps, nx=8, ny=8)


def test_strip_lattice_matches_the_eps_grid_bit_for_bit(reference):
    grid = make_eps_grid(reference, 0.1, 64, 16)
    xs = grid.axes[0][:, None]
    x_idx, ys = strip_lattice(xs, -0.1, 0.1, 16)  # eps g-, eps g+
    assert strip_points(xs[x_idx], ys).tobytes() == grid.nodes().tobytes()


def test_grids_reject_a_single_interval(reference):
    # one interval has no interior node, so a solve would return the Dirichlet data alone
    with pytest.raises(ValueError, match="^nx: must be >= 2, got 1$"):
        make_eps_grid(reference, 0.1, nx=1, ny=8)
    with pytest.raises(ValueError, match="^limit_resolution: must be >= 2, got 1$"):
        make_limit_grid(reduce_problem(reference), 1)


def test_dirichlet_laplace_exact_linear(reference):
    # -Laplace u = 0 with u = x on the whole boundary: linear is exact
    p = reference_problem(f="0", beta="x1")
    grid = _all_dirichlet(make_eps_grid(p, 0.1, nx=8, ny=8))
    sysm = discretize_eps(p, grid)
    fld = policy_iteration(sysm)
    xs = grid.axes[0]
    assert np.abs(fld.values - xs[:, None]).max() <= 1e-12
    assert fld.iterations == 1


def test_oblique_row_structure(reference):
    grid = make_eps_grid(reference, 0.1, nx=4, ny=8)
    sysm = discretize_eps(reference, grid)
    hy = grid.spacing[1]
    mat = sysm.matrix  # one control pair, so the stack is its matrix
    i, j = 2, grid.shape[1] - 1  # a top node
    flat = np.ravel_multi_index((i, j), grid.shape)
    row = mat.getrow(flat)
    cols = dict(zip(row.indices.tolist(), row.data.tolist()))
    assert cols[flat] == pytest.approx(1.0 / hy)
    assert cols[np.ravel_multi_index((i, j - 1), grid.shape)] == pytest.approx(-1.0 / hy)
    assert len(cols) == 2  # gamma+ = (0, 1): pure one-sided vertical difference
    assert sysm.rhs[flat] == pytest.approx(reference.bdata.oblique(1.0, grid.axes[0][[[i]]], grid.axes[1][[j]])[1][0])


def test_cross_term_monotonicity_violation():
    # A12 = 0.9 with hy << hx breaks the corner-splitting dominance test
    p = reference_problem()
    p.coeffs.entries[("1", "1")] = _entry(
        1, [["1", "0.9"], ["0", "sqrt(1 - 0.81)"]], ["0", "0"], "0", "0"
    )
    grid = make_eps_grid(p, 0.025, nx=8, ny=8)
    with pytest.raises(NonMonotoneStencilError) as err:
        discretize_eps(p, grid)
    assert "off-diagonal" in str(err.value)


def test_cross_term_monotone_when_balanced():
    # same A12 on a nearly square lattice keeps the M-matrix rows
    p = reference_problem(epsilon0=1.0)
    p.coeffs.entries[("1", "1")] = _entry(
        1, [["1", "0.9"], ["0", "sqrt(1 - 0.81)"]], ["0", "0"], "0", "1"
    )
    grid = _all_dirichlet(make_eps_grid(p, 1.0, nx=8, ny=16))  # hx = 1/8, hy = 1/8
    sysm = discretize_eps(p, grid)
    fld = policy_iteration(sysm)
    assert fld.residual <= 1e-10


def test_limit_exact_linear():
    # -u'' = 0, u(0) = 0, u(1) = 1: u = x to machine precision
    p = reference_problem(f="0", beta="x1")
    lp = reduce_problem(p)
    fld = solve_limit(lp, 16)
    xs = fld.grid.axes[0]
    assert np.abs(fld.flat() - xs).max() <= 1e-12


def test_limit_constant_solution():
    # c = 1, f = 1, boundary 1: u = 1 exactly
    p = reference_problem(c="1", f="1", beta="1")
    lp = reduce_problem(p)
    fld = solve_limit(lp, 16)
    assert np.abs(fld.flat() - 1.0).max() <= 1e-12


def test_two_control_sup_exact():
    p = _two_control_problem()
    lp = reduce_problem(p)
    fld = solve_limit(lp, 32)
    xs = fld.grid.axes[0]
    assert np.abs(fld.flat() - xs * (1 - xs)).max() <= 1e-12
    assert fld.residual <= 1e-10
    assert fld.iterations <= 10
    assert fld.policy_switch_count <= 2
    assert (fld.policy_max == 0).all()  # sup picks f = 2 everywhere


def test_single_control_one_solve(reference):
    fld = solve_eps(reference, 0.1, nx=16, ny=8)
    assert fld.iterations == 1
    assert fld.policy_switch_count == 0
    assert fld.residual <= 1e-10


def test_residual_history_non_increasing():
    p = _two_control_problem(f1="2 + x1", f2="4 - 4*x1")  # policy switches in x
    lp = reduce_problem(p)
    fld = solve_limit(lp, 32)
    hist = fld.residual_history
    assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))
    assert fld.residual <= 1e-10


def test_singular_system():
    # second differences with zero-flux ends and c = 0: constants in the kernel
    lp = reduce_problem(reference_problem())
    grid = make_limit_grid(lp, 8)
    n = grid.size
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    mat = sp.diags([off, main, off], (-1, 0, 1)).tolil()
    mat[0, 0], mat[0, 1] = 1.0, -1.0
    mat[-1, -1], mat[-1, -2] = 1.0, -1.0
    sysm = DiscreteSystem(
        grid=grid,
        controls=lp.controls,
        matrix=sp.csc_matrix(mat),
        rhs=np.zeros(n),
        dirichlet_mask=np.zeros(n, dtype=bool),
        dirichlet_values=np.zeros(n),
    )
    with pytest.raises(SingularSystemError):
        policy_iteration(sysm)


def test_monotone_in_source():
    # raising f at one node never lowers the solution anywhere
    # (inverse positivity of the M-matrix)
    p = reference_problem(f="1", beta="0")
    lp = reduce_problem(p)
    grid = make_limit_grid(lp, 16)
    sysm = discretize_limit(lp, grid)
    base = policy_iteration(sysm).flat()
    bumped_rhs = sysm.rhs.copy()
    bumped_rhs[7] += 0.5
    sys2 = replace(sysm, rhs=bumped_rhs)
    bumped = policy_iteration(sys2).flat()
    assert (bumped >= base - 1e-12).all()
    assert bumped[7] > base[7]


def test_dirichlet_attained_exactly(reference):
    lp = reduce_problem(reference)
    fld = solve_limit(lp, 32)
    assert fld.flat()[0] == lp.dirichlet_trace(np.array([[0.0]]))[0]
    assert fld.flat()[-1] == lp.dirichlet_trace(np.array([[1.0]]))[0]
    eps_fld = solve_eps(reference, 0.1, nx=16, ny=8)
    vals = eps_fld.values
    nodes_y = eps_fld.grid.axes[1]
    for j, y in enumerate(nodes_y):
        assert vals[0, j] == reference.bdata.beta_lateral.value([[0.0, y]])[0]
        assert vals[-1, j] == reference.bdata.beta_lateral.value([[1.0, y]])[0]


def residual_infinity(sys: DiscreteSystem, u: np.ndarray) -> float:
    """Sup norm of the discrete inf-sup operator applied to u."""
    values, _, _ = inf_sup(_residual_stack(sys, np.asarray(u).ravel()))
    return float(np.abs(values).max())


def test_residual_infinity_consistency(reference):
    fld = solve_eps(reference, 0.1, nx=16, ny=8)
    grid = fld.grid
    sysm = discretize_eps(reference, grid)
    assert residual_infinity(sysm, fld.flat()) == pytest.approx(fld.residual, abs=1e-14)


def test_perturbation_certificate(reference):
    lp = reduce_problem(reference)
    rep = perturbation_certificate(lp, 64)
    assert rep.passed
    assert rep.worst <= -0.5


def test_limit_grid_2d_classification():
    bv = base_vars(2)
    entries = {("1", "1"): _entry(2, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], ["0", "0", "0"], "0", "1")}
    p = ThinProblem(
        controls=ControlSet(("1",), ("1",)),
        coeffs=CoefficientFamily(entries=entries, bound=50.0),
        geom=GeometrySpec((0.0, 0.0), (1.0, 1.0), _scalar("-1", bv), _scalar("1", bv), 0.25),
        bdata=BoundaryData(
            gamma0=VectorField([_scalar("0", bv), _scalar("0", bv)]),
            beta0=_scalar("0", bv),
            k_plus=VectorField([_scalar("0", bv), _scalar("0", bv)]),
            k_minus=VectorField([_scalar("0", bv), _scalar("0", bv)]),
            l_plus=_scalar("0", bv),
            l_minus=_scalar("0", bv),
            beta_lateral=_scalar("0", strip_vars(2)),
            s_candidate=_scalar("x1", bv),
        ),
    )
    lp = reduce_problem(p)
    fld = solve_limit(lp, 8)
    # -Laplace u = 1 on the unit square with zero data: positive inside
    inner = fld.values[1:-1, 1:-1]
    assert (inner > 0).all()
    assert fld.residual <= 1e-10


@pytest.fixture(scope="module")
def rich_limit():
    return reduce_problem(rich_problem())


@pytest.mark.parametrize("nx, raw", [(1024, 4.735e-10), (2048, 1.922e-9)])
def test_rich_limit_accepts_stable_policy_on_scaled_residual(rich_limit, nx, raw):
    # the raw residual floors at roundoff times 1/h^2, above the default 1e-10;
    # divided by each row's diagonal it is at roundoff
    fld = solve_limit(rich_limit, nx)
    assert fld.iterations == 3
    assert fld.residual == pytest.approx(raw, rel=1e-2)
    assert fld.residual_history[-1] == fld.residual
    assert fld.scaled_residual <= 1e-10


def test_a_solve_binds_the_sparse_modules(rich_limit):
    # bound once on first use, so a wrapper installed on them afterwards stays in place
    solve_limit(rich_limit, 16)
    assert solver.sp is sp
    assert solver.spla is spla


def test_stable_policy_is_factored_once(rich_limit, monkeypatch):
    # tol below roundoff: the policy is stable from iteration 2, and the
    # error reports what 100 identical re-solves would have ended at
    converged = solve_limit(rich_limit, 256)
    calls = []

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    splu = spla.splu
    monkeypatch.setattr(spla, "splu", counting_splu)
    with pytest.raises(MaxIterExceededError) as err:
        solve_limit(rich_limit, 256, tol=1e-30, max_iter=100)
    assert err.value.iterations == 100
    assert err.value.residual == converged.residual
    assert err.value.stable_at == converged.iterations == 2
    assert err.value.scaled_residual == converged.scaled_residual
    assert len(calls) == 2
    assert "policy iteration hit 100 iterations" in str(err.value)
    assert "policy stable from iteration 2" in str(err.value)


def test_scaled_residual_divides_each_row_by_its_active_diagonal(rich_limit):
    # recomputed from each control pair's block of rows on its own
    fld = solve_limit(rich_limit, 256)
    sysm = discretize_limit(rich_limit, make_limit_grid(rich_limit, 256))
    size = sysm.grid.size
    blocks = [sysm.matrix[k * size : (k + 1) * size] for k in range(4)]
    residuals = [m @ fld.flat() - sysm.rhs[k * size : (k + 1) * size] for k, m in enumerate(blocks)]
    values, lam, mu = inf_sup(np.stack(residuals, axis=-1).reshape(size, 2, 2))
    diag = np.stack([m.diagonal() for m in blocks], axis=-1).reshape(size, 2, 2)[np.arange(size), lam, mu]
    assert (lam == fld.policy_min).all() and (mu == fld.policy_max).all()
    assert fld.residual == float(np.abs(values).max())
    assert fld.scaled_residual == float((np.abs(values) / diag).max())


def test_changing_policy_reports_it(rich_limit):
    with pytest.raises(MaxIterExceededError) as err:
        solve_limit(rich_limit, 256, max_iter=1)
    assert err.value.stable_at is None
    assert "policy still changing" in str(err.value)


# sigma diagonal, b, c, f = f0 + f1*sin(3*x1) per control pair: draw 4 of ROADMAP item 1's generator
# (numpy default_rng(1)), rounded to 3 decimals
CYCLING_GAME = {
    ("a", "1"): ((0.738, 0.838), (-0.794, -2.342), 0.284, (-0.841, -0.506)),
    ("a", "2"): ((0.992, 1.466), (1.648, 1.747), 0.0, (-0.845, -0.320)),
    ("b", "1"): ((1.128, 0.900), (-2.537, -0.069), 0.133, (-0.054, 0.512)),
    ("b", "2"): ((0.654, 1.223), (0.154, -2.106), 0.0, (0.833, -0.590)),
}


@pytest.mark.xfail(
    strict=True,
    raises=MaxIterExceededError,
    reason="switching both policies at once can cycle on a game (ROADMAP item 1): the policy never settles",
)
def test_policy_iteration_solves_a_2x2_game():
    entries = {
        key: _entry(1, [[repr(a11), "0"], ["0", repr(a22)]], [repr(b1), repr(b2)], repr(c), f"{f0!r} + {f1!r}*sin(3*x1)")
        for key, ((a11, a22), (b1, b2), c, (f0, f1)) in CYCLING_GAME.items()
    }
    game = replace(rich_problem(), coeffs=CoefficientFamily(entries=entries, bound=50.0))
    fld = solve_limit(reduce_problem(game), 64)
    assert min(fld.residual, fld.scaled_residual) <= 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="roundoff wall as eps -> 0 (ROADMAP item 26): the vertical stencil swamps the x-dependence of each row, "
    "so the gap is 7.3e-3 at eps 1e-7 with every solve accepted",
)
def test_slice_exact_same_grid_gap_stays_at_roundoff_at_eps_1e_7():
    # every horizontal slice of the exact discrete strip solution is the discrete limit solution on the same x nodes
    problem = load_problem(Path(__file__).resolve().parent.parent / "configs" / "slice_exact.cfg")
    u0 = solve_limit(reduce_problem(problem), 128)
    fld = solve_eps(problem, 1e-7, nx=128, ny=32)  # accepted: its diagonal-scaled residual is about 4e-17
    assert np.abs(fld.values - u0.flat()[:, None]).max() <= 1e-9


@pytest.mark.parametrize(
    "setting, want",
    [
        (dict(tol=math.nan), "^tol: must be a finite number > 0, got nan$"),  # once accepted every residual
        (dict(tol=math.inf), "^tol: must be a finite number > 0, got inf$"),
        (dict(tol=0.0), "^tol: must be a finite number > 0, got 0.0$"),
        (dict(tol=-1e-10), "^tol: must be a finite number > 0, got -1e-10$"),
        (dict(max_iter=0), "^max_iter: must be >= 1, got 0$"),
    ],
    ids=["tol-nan", "tol-inf", "tol-0", "tol-negative", "max_iter-0"],
)
def test_policy_iteration_rejects_a_bad_tolerance_or_iteration_cap(reference, setting, want):
    lp = reduce_problem(reference)
    with pytest.raises(ValueError, match=want):
        solve_limit(lp, 16, **setting)
    with pytest.raises(ValueError, match=want):
        policy_iteration(discretize_limit(lp, make_limit_grid(lp, 16)), **setting)


def test_fine_reference_strip_converges_in_one_iteration(reference):
    fld = solve_eps(reference, 0.05, nx=512, ny=128)
    assert fld.iterations == 1
    assert fld.scaled_residual <= 1e-10


_ENDS = st.integers(-8, 8).map(lambda k: k / 4)
_RISE = st.integers(0, 8).map(lambda k: k / 4)


def _line(ends):
    """The function of x1 that is linear from ends[0] at 0 to ends[1] at 1."""
    return f"{ends[0]} + ({ends[1] - ends[0]})*x1"


def _raised(ends, rise):
    return ends[0] + rise[0], ends[1] + rise[1]


@settings(max_examples=40)
@given(
    f=st.tuples(st.tuples(_ENDS, _ENDS), st.tuples(_ENDS, _ENDS)),
    beta=st.tuples(_ENDS, _ENDS),
    df=st.tuples(st.tuples(_RISE, _RISE), st.tuples(_RISE, _RISE)),
    dbeta=st.tuples(_RISE, _RISE),
)
def test_comparison_principle(f, beta, df, dbeta):
    # discrete comparison: raising either control's source, or the Dirichlet
    # data, pointwise never lowers the two-control limit solution anywhere
    def solve(f, beta):
        lp = reduce_problem(_two_control_problem(_line(f[0]), _line(f[1]), beta=_line(beta)))
        return solve_limit(lp, 32).flat()

    u = solve(f, beta)
    slack = 1e-12 * (1.0 + np.abs(u).max())
    assert (solve((_raised(f[0], df[0]), _raised(f[1], df[1])), beta) >= u - slack).all()
    assert (solve(f, _raised(beta, dbeta)) >= u - slack).all()


_DIAG = st.integers(2, 8).map(lambda k: k / 4)


@st.composite
def _admissible_entry(draw):
    """Constant coefficients whose cross term the 7-point stencil absorbs on a square lattice."""
    a11, a22 = draw(_DIAG), draw(_DIAG)
    a12 = 0.9 * min(a11, a22) * draw(st.integers(-4, 4)) / 4
    sigma = [[repr(math.sqrt(a11)), repr(a12 / math.sqrt(a11))], ["0", repr(math.sqrt(a22 - a12**2 / a11))]]
    b = [repr(draw(_ENDS)), repr(draw(_ENDS))]
    return _entry(1, sigma, b, repr(draw(_RISE)), repr(draw(_ENDS)))


def _two_by_two_strip(entries, gamma0) -> DiscreteSystem:
    """The 2x2-control strip system of four admissible entries, on a square 9x17 lattice."""
    base = reference_problem(gamma0=repr(gamma0), epsilon0=1.0)
    pairs = [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    p = replace(
        base,
        controls=ControlSet(("1", "2"), ("1", "2")),
        coeffs=CoefficientFamily(entries=dict(zip(pairs, entries)), bound=50.0),
    )
    return discretize_eps(p, make_eps_grid(p, 1.0, nx=8, ny=16))  # hx = hy = 1/8


@settings(max_examples=60)
@given(entries=st.lists(_admissible_entry(), min_size=4, max_size=4), gamma0=_ENDS)
def test_assembled_rows_are_m_matrix_rows(entries, gamma0):
    # every row of every control pair's matrix: positive diagonal,
    # non-positive off-diagonals, and weak diagonal dominance (sum c >= 0)
    sysm = _two_by_two_strip(entries, gamma0)
    size = sysm.grid.size
    assert sysm.matrix.shape == (4 * size, size)
    for k in range(4):
        mat = sysm.matrix[k * size : (k + 1) * size]
        diag = mat.diagonal()
        off = mat - sp.diags(diag)
        assert (diag > 0.0).all()
        assert (off.data <= 0.0).all()
        assert (np.asarray(mat.sum(axis=1)).ravel() >= -1e-12 * diag).all()


@pytest.mark.parametrize(
    "solve",
    [lambda p: solve_eps(p, 0.1, nx=8, ny=8), lambda p: solve_limit(reduce_problem(p), 8)],
    ids=["solve_eps", "solve_limit"],
)
def test_negative_c_is_rejected_before_any_factorization(solve, monkeypatch):
    # c >= 0 is what licenses LU without pivoting; an unvalidated problem
    # with c = -1 must stop at assembly, naming the node and the control
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called on a system with c < 0")

    p = _two_control_problem()
    p.coeffs.entries[("1", "2")] = _entry(1, [["1", "0"], ["0", "1"]], ["0", "0"], "-1", "4")
    monkeypatch.setattr(spla, "splu", no_splu)
    with pytest.raises(NonMonotoneStencilError) as err:
        solve(p)
    assert err.value.control == ("1", "2")
    assert err.value.node[0] == 0.125  # the lowest interior flat index
    assert "c = -1 negative: row not diagonally dominant" in str(err.value)


@settings(max_examples=40)
@given(
    entries=st.lists(_admissible_entry(), min_size=4, max_size=4),
    gamma0=_ENDS,
    seed=st.integers(0, 2**32 - 1),
)
def test_frozen_solve_matches_pivoted_solve(entries, gamma0, seed):
    # the no-pivot symmetric-mode LU against SuperLU's pivoted default, on a
    # frozen system built row by row from each node's own control pair
    sysm = _two_by_two_strip(entries, gamma0)
    size = sysm.grid.size
    lam, mu = np.random.default_rng(seed).integers(0, 2, size=(2, size))
    k = lam * 2 + mu
    mat = sp.vstack([sysm.matrix[k[i] * size + i] for i in range(size)], format="csc")
    rhs = np.array([sysm.rhs[k[i] * size + i] for i in range(size)])
    want = spla.spsolve(mat, rhs)
    got = _solve_frozen(sysm, lam, mu)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize(
    "problem, grid_of",
    [
        ("reference", lambda p: make_eps_grid(p, 0.05, 64, 16)),
        ("distorted", lambda p: make_eps_grid(p, 0.05, 128, 32)),
        ("rich_limit", lambda lp: make_limit_grid(lp, 2048)),
    ],
    ids=["reference_strip", "distorted_strip", "rich_limit"],
)
def test_factor_pivots_on_the_diagonal_without_extra_fill(problem, grid_of, request):
    # the no-pivot stability argument needs perm_r == perm_c; the panel width
    # only reorders SuperLU's updates, so the fill matches the default panel's
    p = request.getfixturevalue(problem)
    grid = grid_of(p)
    sysm = discretize_limit(p, grid) if problem == "rich_limit" else discretize_eps(p, grid)
    size = grid.size
    # a policy that mixes every control pair across the nodes
    pair = np.arange(size) % (len(sysm.rhs) // size)
    mat = sp.csc_matrix(sysm.matrix[pair * size + np.arange(size)])
    factor = _factor(mat)
    assert (factor.perm_r == factor.perm_c).all()
    default = spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    assert factor.L.nnz + factor.U.nnz == default.L.nnz + default.U.nnz
    rhs = np.arange(size, dtype=float)
    assert np.abs(mat @ factor.solve(rhs) - rhs).max() <= 1e-8 * np.abs(rhs).max()
