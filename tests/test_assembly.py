"""Array assembly against the per-node assembler it replaced.

The reference builds each row in a dict, node by node, exactly as the solver
did before rows were built as arrays, one CSR matrix per control pair; each
pair's block of rows of the stacked operator must give the same CSR arrays
and right-hand side to the bit, and the same first witness of a
non-monotone row.
"""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from thinpde.config import load_problem
from thinpde.presets import _entry, reference_problem, rich_problem
from thinpde.problem import CoefficientFamily, ControlSet
from thinpde.reduction import reduce_problem
from thinpde.solver import (
    BOTTOM,
    DIRICHLET,
    INTERIOR,
    TOP,
    NonMonotoneStencilError,
    _assemble,
    _interior_slots,
    _positive_offdiagonal,
    _solve_frozen,
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
            raise NonMonotoneStencilError(node, control, _positive_offdiagonal(v))


def _assemble_by_nodes(grid, pairs, diffusion, drift, czero, source, oblique=None, dirichlet=None):
    """Reference: one dict per row, built node by node from per-point callbacks.

    Returns each pair's CSR matrix and right-hand side, the Dirichlet mask and the Dirichlet values.
    """
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
    return matrices, rhs_list, dirichlet_mask, dirichlet_values


def _pair_slices(coefficients, controls):
    """Per-point (diffusion, drift, czero, source) callbacks: a control pair's slice of the bundle at one node."""

    def read(name):
        def at(lam, mu, x):
            il, im = controls.min_labels.index(lam), controls.max_labels.index(mu)
            return getattr(coefficients(np.atleast_2d(x)), name)[0, il, im]

        return at

    return [read(name) for name in ("a", "b", "c", "f")]


def _strip_by_nodes(problem, grid):
    bd = problem.bdata
    diffusion, drift, czero, source = _pair_slices(problem.coefficients, problem.controls)

    def oblique(kind, x):
        return bd.oblique(1.0 if kind == TOP else -1.0, x[:-1], x[-1])

    return _assemble_by_nodes(
        grid,
        list(problem.controls.pairs()),
        diffusion=diffusion,
        drift=drift,
        czero=czero,
        source=source,
        oblique=oblique,
        dirichlet=lambda x: bd.beta_lateral.value(x),
    )


def _limit_by_nodes(lp, grid, homogeneous=False):
    diffusion, drift, czero, source = _pair_slices(lp.coefficients, lp.controls)
    return _assemble_by_nodes(
        grid,
        list(lp.controls.pairs()),
        diffusion=diffusion,
        drift=drift,
        czero=(lambda lam, mu, x: 0.0) if homogeneous else czero,
        source=(lambda lam, mu, x: 0.0) if homogeneous else source,
        dirichlet=(lambda x: 0.0) if homogeneous else lp.dirichlet_trace,
    )


def _assert_same_system(got, want):
    matrices, rhs, dirichlet_mask, dirichlet_values = want
    size = got.grid.size
    assert got.matrix.shape == (len(matrices) * size, size)
    for k, (mw, rw) in enumerate(zip(matrices, rhs)):
        block = slice(k * size, (k + 1) * size)
        mg = got.matrix[block]
        for name in ("indptr", "indices", "data"):
            ag, aw = getattr(mg, name), getattr(mw, name)
            assert ag.dtype == aw.dtype and ag.tobytes() == aw.tobytes(), name
        assert got.rhs[block].tobytes() == rw.tobytes()
    assert (got.dirichlet_mask == dirichlet_mask).all()
    assert got.dirichlet_values.tobytes() == dirichlet_values.tobytes()


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
    _assert_same_system(discretize_eps(problem, grid), _strip_by_nodes(problem, grid))


@pytest.mark.parametrize("a12", ["0.9", "-0.9"])
def test_cross_term_assembly_matches_per_node(a12):
    # a nearly square lattice keeps both corner splittings monotone
    p = _cross_problem(a12, epsilon0=1.0)
    grid = make_eps_grid(p, 1.0, nx=8, ny=16)
    _assert_same_system(discretize_eps(p, grid), _strip_by_nodes(p, grid))


def test_game_strip_assembly_matches_per_node():
    # 2x2 controls; A12 and the drift change sign across x1 and vanish at x1 = 1/2, so rows hold 5 or
    # 7 entries and both corner splittings occur within one pair
    p = reference_problem(epsilon0=1.0)
    entries = {
        ("a", "1"): _entry(1, [["1", "0.9*(2*x1 - 1)"], ["0", "1"]], ["0.5 - x1", "-0.2"], "0", "1"),
        ("a", "2"): _entry(1, [["1", "0.9*(1 - 2*x1)"], ["0", "1"]], ["x1 - 0.5", "y"], "0.5", "x1"),
        ("b", "1"): _entry(1, [["1", "0"], ["0", "1"]], ["-0.5", "0.2"], "0", "y"),
        ("b", "2"): _entry(1, [["1", "0.45*(2*x1 - 1)"], ["0", "1"]], ["sin(2*pi*x1)", "0"], "1", "0"),
    }
    p = replace(p, controls=ControlSet(("a", "b"), ("1", "2")), coeffs=CoefficientFamily(entries=entries, bound=50.0))
    grid = make_eps_grid(p, 1.0, nx=8, ny=16)
    got = discretize_eps(p, grid)
    counts = np.diff(got.matrix.indptr)[: grid.size][grid.classification == INTERIOR]
    assert set(counts) == {5, 7}
    _assert_same_system(got, _strip_by_nodes(p, grid))


def test_a_strip_with_no_cross_term_builds_no_corner_slots():
    # A12 = 0 at every node of the reference strip: the diagonal and four neighbours, not the four corners
    p = load_problem(CONFIGS / "reference.cfg")
    grid = make_eps_grid(p, 0.1, 16, 8)
    coeffs = p.coefficients(grid.nodes()[grid.classification == INTERIOR]).pair(0, 0)
    assert len(_interior_slots(coeffs, grid.spacing, [grid.shape[1], 1])) == 5


def test_one_pair_solve_matches_the_gathered_solve():
    # the same system stacked twice is solved through the row gather of its second copy
    p = load_problem(CONFIGS / "reference.cfg")
    one = discretize_eps(p, make_eps_grid(p, 0.1, 32, 8))
    two = replace(
        one,
        controls=ControlSet(("1", "2"), ("1",)),
        matrix=sp.csr_matrix(sp.vstack([one.matrix, one.matrix])),
        rhs=np.tile(one.rhs, 2),
    )
    pair0, pair1 = np.zeros(one.grid.size, dtype=int), np.ones(one.grid.size, dtype=int)
    assert _solve_frozen(one, pair0, pair0).tobytes() == _solve_frozen(two, pair1, pair0).tobytes()


def test_strip_assembly_memory_peak():
    # the CSR of the 256x64 reference strip takes 1.0 MiB: the bound leaves room for the coefficients and
    # the slots, not for a COO copy of the matrix
    p = load_problem(CONFIGS / "reference.cfg")
    grid = make_eps_grid(p, 0.05, 256, 64)
    discretize_eps(p, grid)  # loads scipy outside the traced call
    tracemalloc.start()
    try:
        discretize_eps(p, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2**20, peak


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
    got = _assemble(grid, lp.controls, replace(coeffs, c=zero, f=zero))
    _assert_same_system(got, _limit_by_nodes(lp, grid, homogeneous=True))


def test_violation_names_the_same_witness():
    # the setup of test_solver.test_cross_term_monotonicity_violation: A12 = 0.9 with hy << hx
    p = reference_problem()
    p.coeffs.entries[("1", "1")] = _entry(1, [["1", "0.9"], ["0", "sqrt(1 - 0.81)"]], ["0", "0"], "0", "0")
    grid = make_eps_grid(p, 0.025, nx=8, ny=8)
    with pytest.raises(NonMonotoneStencilError) as got:
        discretize_eps(p, grid)
    with pytest.raises(NonMonotoneStencilError) as want:
        _strip_by_nodes(p, grid)
    assert got.value.node == want.value.node
    assert got.value.control == want.value.control
    assert str(got.value) == str(want.value)
