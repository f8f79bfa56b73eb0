"""Array assembly against the per-node assembler it replaced.

The reference builds each row in a dict, node by node, exactly as the solver
did before rows were built as arrays; the array build must give the same
CSR arrays and right-hand sides to the bit, and the same first witness of a
non-monotone row.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from thinpde.config import load_problem
from thinpde.presets import _entry, reference_problem, rich_problem
from thinpde.reduction import reduce_problem
from thinpde.solver import (
    BOTTOM,
    DIRICHLET,
    INTERIOR,
    TOP,
    DiscreteSystem,
    NonMonotoneStencilError,
    _assemble,
    discretize_eps,
    discretize_limit,
    make_eps_grid,
    make_limit_grid,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_OFFDIAG_TOL = 1e-12


def _check_row(entries, diag, node, control):
    dval = entries.get(diag, 0.0)
    if dval <= 0.0:
        raise NonMonotoneStencilError(node, control, f"diagonal {dval:.3e} not positive")
    for col, v in entries.items():
        if col != diag and v > _OFFDIAG_TOL:
            raise NonMonotoneStencilError(node, control, f"off-diagonal {v:.3e} positive")


def _assemble_by_nodes(grid, pairs, n_min, n_max, diffusion, drift, czero, source, oblique=None, dirichlet=None):
    """Reference: one dict per row, built node by node from per-point callbacks."""
    shape = grid.shape
    d = len(shape)
    h = grid.spacing
    size = grid.size
    cls = grid.classification
    nodes = grid.nodes()
    strides = np.array([int(np.prod(shape[k + 1 :])) for k in range(d)])

    dirichlet_mask = cls == DIRICHLET
    dirichlet_values = np.zeros(size)
    if dirichlet is not None:
        for flat in np.nonzero(dirichlet_mask)[0]:
            dirichlet_values[flat] = dirichlet(nodes[flat])

    matrices = []
    rhs_list = []
    for lam, mu in pairs:
        rows, cols, vals = [], [], []
        rhs = np.zeros(size)

        def add(row, col, v):
            rows.append(row)
            cols.append(col)
            vals.append(v)

        for flat in range(size):
            x = nodes[flat]
            kind = cls[flat]
            if kind == DIRICHLET:
                add(flat, flat, 1.0)
                rhs[flat] = dirichlet_values[flat]
                continue
            if kind in (TOP, BOTTOM):
                gvec, beta = oblique(kind, x)
                entries = {flat: 0.0}
                for axis in range(d - 1):
                    g = float(gvec[axis])
                    if g == 0.0:
                        continue
                    step = strides[axis]
                    if g > 0.0:
                        entries[flat] = entries.get(flat, 0.0) + g / h[axis]
                        entries[flat - step] = entries.get(flat - step, 0.0) - g / h[axis]
                    else:
                        entries[flat] = entries.get(flat, 0.0) - g / h[axis]
                        entries[flat + step] = entries.get(flat + step, 0.0) + g / h[axis]
                gy = float(gvec[d - 1])
                step = strides[d - 1]
                if kind == TOP:
                    if gy <= 0.0:
                        raise NonMonotoneStencilError(tuple(x), (lam, mu), "top oblique field points inward")
                    entries[flat] = entries.get(flat, 0.0) + gy / h[d - 1]
                    entries[flat - step] = entries.get(flat - step, 0.0) - gy / h[d - 1]
                else:
                    if gy >= 0.0:
                        raise NonMonotoneStencilError(tuple(x), (lam, mu), "bottom oblique field points inward")
                    entries[flat] = entries.get(flat, 0.0) - gy / h[d - 1]
                    entries[flat + step] = entries.get(flat + step, 0.0) + gy / h[d - 1]
                _check_row(entries, flat, tuple(x), (lam, mu))
                for col, v in entries.items():
                    add(flat, col, v)
                rhs[flat] = beta
                continue

            a = np.atleast_2d(diffusion(lam, mu, x))
            bvec = np.atleast_1d(drift(lam, mu, x))
            cval = float(czero(lam, mu, x))
            fval = float(source(lam, mu, x))
            entries = {flat: cval}
            for axis in range(d):
                aii = float(a[axis, axis])
                step = strides[axis]
                entries[flat] = entries.get(flat, 0.0) + 2.0 * aii / h[axis] ** 2
                entries[flat + step] = entries.get(flat + step, 0.0) - aii / h[axis] ** 2
                entries[flat - step] = entries.get(flat - step, 0.0) - aii / h[axis] ** 2
                adv = -float(bvec[axis])
                if adv > 0.0:
                    entries[flat] = entries.get(flat, 0.0) + adv / h[axis]
                    entries[flat - step] = entries.get(flat - step, 0.0) - adv / h[axis]
                elif adv < 0.0:
                    entries[flat] = entries.get(flat, 0.0) - adv / h[axis]
                    entries[flat + step] = entries.get(flat + step, 0.0) + adv / h[axis]
            for ax1 in range(d):
                for ax2 in range(ax1 + 1, d):
                    a12 = float(a[ax1, ax2])
                    if a12 == 0.0:
                        continue
                    s1, s2 = strides[ax1], strides[ax2]
                    w = abs(a12) / (h[ax1] * h[ax2])
                    entries[flat] = entries.get(flat, 0.0) - 2.0 * w
                    for s in (s1, s2, -s1, -s2):
                        entries[flat + s] = entries.get(flat + s, 0.0) + w
                    corners = (s1 + s2, -s1 - s2) if a12 > 0.0 else (s1 - s2, -s1 + s2)
                    for s in corners:
                        entries[flat + s] = entries.get(flat + s, 0.0) - w
            _check_row(entries, flat, tuple(x), (lam, mu))
            for col, v in entries.items():
                add(flat, col, v)
            rhs[flat] = fval
        matrices.append(sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(size, size))))
        rhs_list.append(rhs)
    return DiscreteSystem(grid, pairs, n_min, n_max, matrices, rhs_list, dirichlet_mask, dirichlet_values)


def _strip_by_nodes(problem, grid):
    bd = problem.bdata
    entry = problem.coeffs.entry

    def oblique(kind, x):
        if kind == TOP:
            return bd.gamma_plus(x[:-1], x[-1]), bd.beta_plus(x[:-1], x[-1])
        return bd.gamma_minus(x[:-1], x[-1]), bd.beta_minus(x[:-1], x[-1])

    return _assemble_by_nodes(
        grid,
        problem.control_pairs(),
        len(problem.controls.min_labels),
        len(problem.controls.max_labels),
        diffusion=lambda lam, mu, x: entry(lam, mu).diffusion_at(x),
        drift=lambda lam, mu, x: entry(lam, mu).drift_at(x),
        czero=lambda lam, mu, x: entry(lam, mu).c_at(x),
        source=lambda lam, mu, x: entry(lam, mu).f_at(x),
        oblique=oblique,
        dirichlet=lambda x: bd.beta_lateral.value(x),
    )


def _limit_by_nodes(lp, grid, homogeneous=False):
    return _assemble_by_nodes(
        grid,
        lp.control_pairs(),
        len(lp.controls.min_labels),
        len(lp.controls.max_labels),
        diffusion=lp.a_tilde,
        drift=lp.b_tilde,
        czero=(lambda lam, mu, x: 0.0) if homogeneous else lp.c_tilde,
        source=(lambda lam, mu, x: 0.0) if homogeneous else lp.f_tilde,
        dirichlet=(lambda x: 0.0) if homogeneous else lp.dirichlet_trace,
    )


def _assert_same_system(got, want):
    assert len(got.matrices) == len(want.matrices)
    for mg, mw, rg, rw in zip(got.matrices, want.matrices, got.rhs, want.rhs):
        for name in ("indptr", "indices", "data"):
            ag, aw = getattr(mg, name), getattr(mw, name)
            assert ag.dtype == aw.dtype and ag.tobytes() == aw.tobytes(), name
        assert rg.tobytes() == rw.tobytes()
    assert (got.dirichlet_mask == want.dirichlet_mask).all()
    assert got.dirichlet_values.tobytes() == want.dirichlet_values.tobytes()


def _cross_problem(a12: str, epsilon0: float = 0.25):
    p = reference_problem(epsilon0=epsilon0)
    p.coeffs.entries[("1", "1")] = _entry(1, [["1", a12], ["0", "sqrt(1 - 0.81)"]], ["0.3*x1", "-0.2"], "0", "1")
    return p


STRIPS = {
    "reference.cfg": lambda: load_problem(CONFIGS / "reference.cfg"),
    "slice_exact.cfg": lambda: load_problem(CONFIGS / "slice_exact.cfg"),
    "distorted.cfg": lambda: load_problem(CONFIGS / "distorted.cfg"),
    "drift": lambda: reference_problem(b1="-0.5", c="1"),
}


@pytest.mark.parametrize("case", sorted(STRIPS))
def test_strip_assembly_matches_per_node(case):
    problem = STRIPS[case]()
    grid = make_eps_grid(problem, 0.1, 16, 8)
    _assert_same_system(discretize_eps(problem, 0.1, grid), _strip_by_nodes(problem, grid))


@pytest.mark.parametrize("a12", ["0.9", "-0.9"])
def test_cross_term_assembly_matches_per_node(a12):
    # a nearly square lattice keeps both corner splittings monotone
    p = _cross_problem(a12, epsilon0=1.0)
    grid = make_eps_grid(p, 1.0, nx=8, ny=16)
    _assert_same_system(discretize_eps(p, 1.0, grid), _strip_by_nodes(p, grid))


def test_rich_limit_assembly_matches_per_node():
    lp = reduce_problem(rich_problem())
    grid = make_limit_grid(lp, 32)
    _assert_same_system(discretize_limit(lp, grid), _limit_by_nodes(lp, grid))


def test_homogeneous_assembly_matches_per_node():
    # the system perturbation_certificate builds: reduced A~ and b~, no c, f or boundary data
    lp = reduce_problem(reference_problem())
    grid = make_limit_grid(lp, 64)
    coeffs = lp.coefficients(grid.nodes()[grid.classification == INTERIOR])
    zero = np.zeros_like(coeffs.c)
    got = _assemble(grid, lp.control_pairs(), 1, 1, replace(coeffs, c=zero, f=zero))
    _assert_same_system(got, _limit_by_nodes(lp, grid, homogeneous=True))


def test_violation_names_the_same_witness():
    # the setup of test_solver.test_cross_term_monotonicity_violation: A12 = 0.9 with hy << hx
    p = reference_problem()
    p.coeffs.entries[("1", "1")] = _entry(1, [["1", "0.9"], ["0", "sqrt(1 - 0.81)"]], ["0", "0"], "0", "0")
    grid = make_eps_grid(p, 0.025, nx=8, ny=8)
    with pytest.raises(NonMonotoneStencilError) as got:
        discretize_eps(p, 0.025, grid)
    with pytest.raises(NonMonotoneStencilError) as want:
        _strip_by_nodes(p, grid)
    assert got.value.node == want.value.node
    assert got.value.control == want.value.control
    assert str(got.value) == str(want.value)
