"""Monotone finite-difference schemes and Howard policy iteration.

Interior rows discretize -tr(A D^2 u) - b . Du + c u = f with central
second differences, the seven-point corner splitting for the cross term
(diagonal corners for positive A12, anti-diagonal for negative), and
first-order upwinding for the drift.  Every assembled interior and oblique
row must be an M-matrix row (positive diagonal, non-positive off-diagonal)
and every interior row must have c >= 0; a violating row aborts assembly
with the witness node, rather than silently losing monotonicity.  Oblique
rows use first-order one-sided differences into the domain;
lateral/Dirichlet rows are identities.

Assembly reads all interior coefficients from one
:class:`thinpde.problem.Coefficients` bundle and builds the rows as arrays,
one stencil offset at a time, straight into the compressed-column (CSC)
arrays of one stacked operator, the layout SuperLU factors (no COO triples,
no conversion or sort): row k * size + i is node i under control pair k.
Monotonicity is what makes the scheme converge (Barles & Souganidis,
Asymptotic Anal. 4, 1991), so the sign check stays exact; it names the
first control pair, then the lowest flat index.

Howard iteration alternates a per-node argmin-over-L of the max-over-M row
values with a direct sparse solve for the frozen policy; ties break toward
the lowest label index, making runs reproducible.  The residuals of every
pair are one matvec on the stacked operator, and a frozen-policy system is
one row gather from it; with one control pair the stack is the frozen
system, factored with no gather copy.  SuperLU factors these CSC arrays
with no conversion (splu only sorts a gather's row indices).  Its rows are
M-matrix rows with c >= 0, hence row diagonally dominant, so LU without
pivoting is stable with growth factor at most 2 (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., Thm 9.9); SuperLU factors it on
the diagonal, in the minimum-degree order of A^T + A applied to rows and
columns alike, column by column (SuperLU panel width 1).

Only this module uses scipy, and it loads ``scipy.sparse`` and
``scipy.sparse.linalg`` on the first assembly or factorization, not at
import.  So importing thinpde, loading a config and building a problem load
no scipy module, and ``validate``, ``certify``, ``reduce``, ``transform``,
``barrier`` and ``counterexample`` never load it; a command that solves
pays the import in its first solve instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ExperimentPlan, _in_range
from .problem import Coefficients, ControlSet, ThinProblem, _lattice_nodes, inf_sup, quadratic_form
from .reduction import LimitProblem

INTERIOR, TOP, BOTTOM, DIRICHLET = 0, 1, 2, 3

_OFFDIAG_TOL = 1e-12

# scipy.sparse and scipy.sparse.linalg, bound by _load_scipy on first use
sp = spla = None


def _load_scipy() -> None:
    """Bind ``sp`` and ``spla`` once; a bound (or wrapped) ``spla`` is left as it is."""
    global sp, spla
    if spla is None:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla


class NonMonotoneStencilError(ArithmeticError):
    """An assembled row violates the M-matrix sign pattern, or an interior row has c < 0."""

    def __init__(self, node, control, detail: str):
        self.node = tuple(float(v) for v in node)
        self.control = control
        super().__init__(f"non-monotone stencil at node {self.node} for control {control}: {detail}")


class MaxIterExceededError(RuntimeError):
    """Howard iteration did not meet its tolerance within ``iterations``.

    ``stable_at`` is the iteration whose policy the solve re-selected (every
    later iteration would repeat that solve), or None if the policy was
    still changing at the last one.
    """

    def __init__(self, residual: float, iterations: int, scaled_residual: float, stable_at: int | None):
        self.residual = residual
        self.iterations = iterations
        self.scaled_residual = scaled_residual
        self.stable_at = stable_at
        policy = (
            "policy still changing"
            if stable_at is None
            else f"policy stable from iteration {stable_at}, so further iterations repeat that solve"
        )
        super().__init__(
            f"policy iteration hit {iterations} iterations, residual {residual:.3e}, "
            f"diagonal-scaled residual {scaled_residual:.3e} ({policy})"
        )


class SingularSystemError(RuntimeError):
    """The frozen-policy linear system is singular (e.g. no Dirichlet node with c = 0)."""


# every way a solve can fail on valid input; callers map these to exit 5
SOLVER_ERRORS = (NonMonotoneStencilError, MaxIterExceededError, SingularSystemError, NotImplementedError)


@dataclass
class Grid:
    """Tensor-product node lattice with a per-node boundary classification."""

    axes: tuple[np.ndarray, ...]
    classification: np.ndarray  # flat ints, one of INTERIOR/TOP/BOTTOM/DIRICHLET

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    def nodes(self) -> np.ndarray:
        return _lattice_nodes(self.axes)


def make_eps_grid(problem: ThinProblem, eps: float, nx: int, ny: int) -> Grid:
    """Grid on the flat strip Omega x [eps g-, eps g+]; g+- must be constant expressions.

    Curved profiles are exercised through the distortion and barrier
    modules; a terrain-following change of variables is a documented
    extension, not part of this solver.
    """
    geom = problem.geom
    if geom.n != 1:
        raise NotImplementedError("the eps-problem solver is restricted to a 1-dimensional base")
    geom.check_eps(eps)
    nx, ny = _in_range("nx", nx), _in_range("ny", ny)
    if not (geom.g_plus.is_constant and geom.g_minus.is_constant):
        raise NotImplementedError("eps-problem grids require constant g+- (flat strip)")
    xs = np.linspace(geom.lower[0], geom.upper[0], nx + 1)
    corner = np.array([geom.lower])
    ys = np.linspace(eps * geom.g_minus.value(corner)[0], eps * geom.g_plus.value(corner)[0], ny + 1)
    cls = np.full((nx + 1, ny + 1), INTERIOR, dtype=np.int8)
    cls[:, -1] = TOP
    cls[:, 0] = BOTTOM
    cls[0, :] = DIRICHLET  # lateral wins at corners: the Dirichlet trace is pinned there
    cls[-1, :] = DIRICHLET
    return Grid(axes=(xs, ys), classification=cls.ravel())


def make_limit_grid(lp: LimitProblem, resolution: int) -> Grid:
    """Grid on the base box with ``resolution`` intervals along every axis."""
    geom = lp.source.geom
    resolution = _in_range("limit_resolution", resolution)
    axes = tuple(np.linspace(lo, hi, resolution + 1) for lo, hi in zip(geom.lower, geom.upper))
    shape = tuple(len(a) for a in axes)
    cls = np.full(shape, INTERIOR, dtype=np.int8)
    for d in range(geom.n):
        sl = [slice(None)] * geom.n
        sl[d] = 0
        cls[tuple(sl)] = DIRICHLET
        sl[d] = -1
        cls[tuple(sl)] = DIRICHLET
    return Grid(axes=axes, classification=cls.ravel())


@dataclass
class DiscreteSystem:
    """Every control pair's rows in one operator: row k * size + i is node i under pair k = il * nM + im."""

    grid: Grid
    controls: ControlSet
    matrix: sp.csc_matrix  # (nL * nM * size, size), canonical: the layout SuperLU factors
    rhs: np.ndarray  # (nL * nM * size,)
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray


# A block of rows is a list of slots [offset, values, present]: column
# flat + offset holds ``values`` in the rows where ``present`` holds.  Each
# value is summed in the order a row-by-row build sums it, so the matrix
# matches that build bit for bit.


def _interior_slots(coeffs: Coefficients, h, strides) -> list:
    """Slots of the interior rows of one control pair (``coeffs`` has nL = nM = 1)."""
    a, b = coeffs.a[:, 0, 0], coeffs.b[:, 0, 0]
    every = np.ones(len(a), dtype=bool)
    diag = coeffs.c[:, 0, 0].copy()
    slots = [[0, None, every]]
    nbr = {}
    for axis, step in enumerate(strides):
        aii = a[:, axis, axis]
        hh = h[axis]
        diag = diag + 2.0 * aii / hh**2
        plus = 0.0 - aii / hh**2
        minus = 0.0 - aii / hh**2
        # upwind drift: the row coefficient of d/dx_axis is -b_axis
        adv = -b[:, axis]
        fwd, back = adv > 0.0, adv < 0.0
        diag = np.where(fwd, diag + adv / hh, np.where(back, diag - adv / hh, diag))
        minus = np.where(fwd, minus - adv / hh, minus)
        plus = np.where(back, plus + adv / hh, plus)
        for off, vals in ((step, plus), (-step, minus)):
            nbr[off] = [off, vals, every]
            slots.append(nbr[off])
    for ax1, s1 in enumerate(strides):
        for ax2, s2 in list(enumerate(strides))[ax1 + 1 :]:
            a12 = a[:, ax1, ax2]
            cross = a12 != 0.0
            if not cross.any():  # no cross term on this axis pair: no corner slots
                continue
            w = np.abs(a12) / (h[ax1] * h[ax2])
            diag = np.where(cross, diag - 2.0 * w, diag)
            for off in (s1, s2, -s1, -s2):
                nbr[off][1] = np.where(cross, nbr[off][1] + w, nbr[off][1])
            diagonal, anti = cross & (a12 > 0.0), cross & ~(a12 > 0.0)
            for off, present in ((s1 + s2, diagonal), (-s1 - s2, diagonal), (s1 - s2, anti), (-s1 + s2, anti)):
                slots.append([off, 0.0 - w, present])
    slots[0][1] = diag
    return slots


def _oblique_slots(top: np.ndarray, gvec: np.ndarray, h, strides) -> list:
    """Slots of the top (where ``top``) and bottom rows: horizontal parts upwinded, vertical one-sided inward."""
    diag = np.zeros(len(top))
    slots = [[0, None, np.ones(len(top), dtype=bool)]]
    for axis, step in enumerate(strides[:-1]):
        g = gvec[:, axis]
        fwd, back = g > 0.0, (g != 0.0) & ~(g > 0.0)
        diag = np.where(fwd, diag + g / h[axis], np.where(back, diag - g / h[axis], diag))
        slots += [[-step, 0.0 - g / h[axis], fwd], [step, 0.0 + g / h[axis], back]]
    gy = gvec[:, -1] / h[-1]
    slots[0][1] = np.where(top, diag + gy, diag - gy)
    return slots + [[-strides[-1], 0.0 - gy, top], [strides[-1], 0.0 + gy, ~top]]


def _positive_offdiagonal(value: float) -> str:
    # only the cross-term corner splitting can make an off-diagonal positive
    return f"off-diagonal {value:.3e} positive (cross-derivative dominance; refine the grid or rebalance spacings)"


def _first_violation(rows: np.ndarray, slots: list, checks=()):
    """(flat index, detail) of the lowest row failing ``checks`` or the M-matrix sign pattern, or None.

    ``checks`` are (mask, detail) pairs tested before the signs.
    """
    diag = slots[0][1]
    checks = list(checks) + [(diag <= 0.0, lambda r: f"diagonal {diag[r]:.3e} not positive")]
    for _, vals, present in slots[1:]:
        checks.append(((vals > _OFFDIAG_TOL) & present, lambda r, v=vals: _positive_offdiagonal(v[r])))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    r = int(np.flatnonzero(bad)[0])
    return rows[r], next(detail(r) for mask, detail in checks if mask[r])


def _csc(blocks: list, n_rows: int, n_cols: int) -> sp.csc_matrix:
    """The CSC matrix of ``blocks``, each (first row, rows, slots): row first + r holds the slots of r.

    Every row lies in exactly one block, so the entries of a slot at offset
    off lie in distinct columns r + off.  The slots are written in order of
    their block's first row and, within one first row, from the highest
    offset down, which fills each column in row order: the matrix is
    canonical with no sort or conversion pass.
    """
    # each slot as (first row, offset, rows, values), without the rows where it is absent
    entries = [
        (first, off, rows, vals) if present.all() else (first, off, rows[present], vals[present])
        for first, rows, slots in blocks
        for off, vals, present in slots
    ]
    counts = np.zeros(n_cols, dtype=np.int32)
    for _, off, rows, _ in entries:
        counts[rows + off] += 1
    indptr = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    cursor = indptr[:-1].copy()
    for first, off, rows, vals in sorted(entries, key=lambda entry: (entry[0], -entry[1])):
        cols = rows + off
        at = cursor[cols]
        indices[at] = first + rows
        data[at] = vals
        cursor[cols] = at + 1
    return sp.csc_matrix((data, indices, indptr), shape=(n_rows, n_cols))


def _assemble(grid: Grid, controls: ControlSet, coeffs: Coefficients, oblique=None, dirichlet=None) -> DiscreteSystem:
    """Shared row assembler of the stacked operator, a canonical CSC matrix.

    ``coeffs`` holds every control pair's coefficients at the interior nodes
    in flat order, with d = len(grid.axes); ``oblique(sign, x) -> (gamma,
    beta)`` supplies the top (sign +1) and bottom (sign -1) rows and
    ``dirichlet(x)`` the identity rows' data, each at an array x of the
    nodes of that kind.
    """
    _load_scipy()
    shape = grid.shape
    d = len(shape)
    h = grid.spacing
    size = grid.size
    cls = grid.classification
    nodes = grid.nodes()
    strides = [int(np.prod(shape[k + 1 :])) for k in range(d)]

    dirichlet_mask = cls == DIRICHLET
    dirichlet_rows = np.flatnonzero(dirichlet_mask)
    dirichlet_values = np.zeros(size)
    if dirichlet is not None:
        dirichlet_values[dirichlet_rows] = dirichlet(nodes[dirichlet_rows])
    fixed = [(dirichlet_rows, [[0, np.ones(len(dirichlet_rows)), np.ones(len(dirichlet_rows), dtype=bool)]])]

    # oblique rows do not depend on the control
    oblique_rows = np.flatnonzero((cls == TOP) | (cls == BOTTOM))
    top = cls[oblique_rows] == TOP
    gvec = np.empty((len(oblique_rows), d))
    fixed_rhs = dirichlet_values.copy()
    for sign, sel in ((1.0, top), (-1.0, ~top)):
        if sel.any():
            gvec[sel], fixed_rhs[oblique_rows[sel]] = oblique(sign, nodes[oblique_rows[sel]])
    gy = gvec[:, d - 1]
    slots = _oblique_slots(top, gvec, h, strides)
    inward = [
        (top & (gy <= 0.0), lambda r: "top oblique field points inward"),
        (~top & (gy >= 0.0), lambda r: "bottom oblique field points inward"),
    ]
    oblique_fault = _first_violation(oblique_rows, slots, inward)
    fixed.append((oblique_rows, slots))

    interior_rows = np.flatnonzero(cls == INTERIOR)
    n_max = len(controls.max_labels)
    rhs = np.tile(fixed_rhs, len(controls.min_labels) * n_max)
    blocks = []
    for k, (lam, mu) in enumerate(controls.pairs()):
        pair = coeffs.pair(k // n_max, k % n_max)
        slots = _interior_slots(pair, h, strides)
        # c >= 0 makes the row diagonally dominant, which licenses LU without pivoting
        c = pair.c[:, 0, 0]
        negative = [(c < 0.0, lambda r: f"c = {c[r]:g} negative: row not diagonally dominant")]
        faults = [f for f in (_first_violation(interior_rows, slots, negative), oblique_fault) if f is not None]
        if faults:
            flat, detail = min(faults, key=lambda f: f[0])
            raise NonMonotoneStencilError(tuple(nodes[flat]), (lam, mu), detail)
        blocks += [(k * size, rows, block) for rows, block in fixed + [(interior_rows, slots)]]
        rhs[k * size + interior_rows] = pair.f[:, 0, 0]
    return DiscreteSystem(
        grid=grid,
        controls=controls,
        matrix=_csc(blocks, len(rhs), size),
        rhs=rhs,
        dirichlet_mask=dirichlet_mask,
        dirichlet_values=dirichlet_values,
    )


def discretize_eps(problem: ThinProblem, grid: Grid) -> DiscreteSystem:
    """Monotone system for the thin-strip problem on a flat-strip grid; the strip's eps is the grid's."""
    bd = problem.bdata
    return _assemble(
        grid,
        problem.controls,
        problem.coefficients(grid.nodes()[grid.classification == INTERIOR]),
        oblique=lambda sign, x: bd.oblique(sign, x[:, :-1], x[:, -1]),
        dirichlet=bd.beta_lateral.value,
    )


def discretize_limit(lp: LimitProblem, grid: Grid) -> DiscreteSystem:
    return _assemble(
        grid,
        lp.controls,
        lp.coefficients(grid.nodes()[grid.classification == INTERIOR]),
        dirichlet=lp.dirichlet_trace,
    )


@dataclass
class GridField:
    grid: Grid
    values: np.ndarray  # grid-shaped
    residual: float
    scaled_residual: float  # max over rows of |row residual| / that row's diagonal under the active control
    iterations: int
    policy_min: np.ndarray  # flat label indices into min_labels
    policy_max: np.ndarray
    residual_history: list[float] = field(default_factory=list)
    policy_switch_count: int = 0

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def _residual_stack(sys: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """(size, nL, nM) array of per-control row residuals A u - rhs, from one matvec on the stack."""
    shape = (len(sys.controls.min_labels), len(sys.controls.max_labels), -1)
    return (sys.matrix @ u - sys.rhs).reshape(shape).transpose(2, 0, 1)


def _active_rows(sys: DiscreteSystem, lam_idx: np.ndarray, mu_idx: np.ndarray) -> np.ndarray:
    """Stack row of each node under its pair (lam_idx[i], mu_idx[i])."""
    size = sys.grid.size
    return (lam_idx * len(sys.controls.max_labels) + mu_idx) * size + np.arange(size)


def _factor(mat: sp.csc_matrix) -> spla.SuperLU:
    """Sparse LU of a frozen-policy matrix, pivoting on the diagonal only.

    Every row is an M-matrix row with c >= 0 (assembly rejects any other),
    so ``mat`` is row diagonally dominant and LU without pivoting is stable,
    with growth factor <= 2 (Higham, Thm 9.9).  The threshold must be
    exactly 0: identity and oblique rows share columns with interior
    entries of order 1/h^2, and any positive threshold lets SuperLU pivot
    off the diagonal, which multiplies the fill several times over.
    SymmetricMode applies the minimum-degree order of A^T + A to rows and
    columns alike, so the pivots stay on the diagonal.
    """
    # Panel width 1: the 5- and 7-point strip stencils give supernodes only
    # a few columns wide, so SuperLU's default panel spends more time on
    # bookkeeping than it saves.  Median factor time on 2 vCPU at one BLAS
    # thread, default -> 1: strip 64x16 0.96 -> 0.65 ms, distorted strip
    # 128x32 4.05 -> 3.02 ms, strip 256x64 21.2 -> 15.9 ms, strip 512x128
    # 131 -> 96 ms, 1-D limit nx 2048 0.30 -> 0.28 ms, with the same order
    # and fill (only the order of the updates changes); widths 2, 4 and 6
    # were slower than 1.  A 3-D Laplacian 33x33x9 was 1-7% slower at width
    # 1 (73 -> 75 ms): measure the width again once the solver takes 3-D strips.
    _load_scipy()
    return spla.splu(
        mat,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        panel_size=1,
        options=dict(SymmetricMode=True),
    )


def _solve_frozen(sys: DiscreteSystem, lam_idx: np.ndarray, mu_idx: np.ndarray) -> np.ndarray:
    """Solve the frozen-policy system: row i is node i's row under pair (lam_idx[i], mu_idx[i]).

    The system goes to SuperLU in the stack's own CSC layout: with one pair
    it is the stack as assembled, and otherwise one row gather from it,
    whose row indices splu sorts in place.
    """
    _load_scipy()
    if len(sys.rhs) == sys.grid.size:  # one control pair: the stack is the frozen system
        mat, rhs = sys.matrix, sys.rhs
    else:
        rows = _active_rows(sys, lam_idx, mu_idx)
        mat, rhs = sys.matrix[rows], sys.rhs[rows]
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            factor = _factor(mat)
            u = factor.solve(rhs)
            # iterative refinement on the reused factor pushes the row
            # residual to roundoff level; stop once it stalls
            best = math.inf
            for _ in range(6):
                r = rhs - mat @ u
                rnorm = float(np.abs(r).max())
                if rnorm < 1e-14 * max(1.0, float(np.abs(rhs).max())) or rnorm >= 0.5 * best:
                    break
                best = rnorm
                u = u + factor.solve(r)
        except (spla.MatrixRankWarning, RuntimeError) as exc:
            raise SingularSystemError(f"frozen-policy system singular: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise SingularSystemError("frozen-policy system singular (non-finite solution)")
    u[sys.dirichlet_mask] = sys.dirichlet_values[sys.dirichlet_mask]
    return u


def policy_iteration(
    sys: DiscreteSystem, tol: float = ExperimentPlan.tol, max_iter: int = ExperimentPlan.max_iter
) -> GridField:
    """Policy iteration for the discrete inf-sup system.

    Each iteration solves the frozen-policy system, then switches the inf
    and the sup policy at once to the controls the new u selects.  When one
    side has a single control this is Howard's algorithm, which converges
    (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009).  On a game
    it is the Pollatschek-Avi-Itzhak scheme, which can cycle (van der Wal,
    J. Optim. Theory Appl. 25, 1978): the policy then keeps changing until
    max_iter.

    Stops at the first iteration whose solve re-selects the policy it was
    solved for: solving that policy again would rebuild the same matrix and
    right-hand side and return the same u bit for bit.  There it
    returns if the sup-norm residual of the nonlinear discrete operator is
    below tol, either raw or with each row divided by its diagonal under the
    active control (raw rows scale like 1/h^2, so on fine grids they floor
    at roundoff times 1/h^2), and otherwise raises MaxIterExceededError
    with the residual that max_iter iterations would end at.  Dirichlet
    nodes are pinned to their data exactly after each solve.  A tol or
    max_iter outside its ExperimentPlan range raises a ValueError naming it.
    """
    tol, max_iter = _in_range("tol", tol), _in_range("max_iter", max_iter)
    size = sys.grid.size
    u = np.zeros(size)
    u[sys.dirichlet_mask] = sys.dirichlet_values[sys.dirichlet_mask]
    # the diagonal entry of every stack row: the block of the pair starting at row k holds it at offset -k
    diag = np.concatenate([sys.matrix.diagonal(-k) for k in range(0, len(sys.rhs), size)])
    _, lam_idx, mu_idx = inf_sup(_residual_stack(sys, u))
    history: list[float] = []
    switches = 0
    res = scaled = math.inf
    stable = False
    for it in range(1, max_iter + 1):
        u = _solve_frozen(sys, lam_idx, mu_idx)
        values, new_lam, new_mu = inf_sup(_residual_stack(sys, u))
        res = float(np.abs(values).max())
        scaled = float((np.abs(values) / diag[_active_rows(sys, new_lam, new_mu)]).max())
        history.append(res)
        stable = bool((new_lam == lam_idx).all() and (new_mu == mu_idx).all())
        lam_idx, mu_idx = new_lam, new_mu
        if stable:
            break
        switches += 1
    if not stable or min(res, scaled) > tol:
        raise MaxIterExceededError(res, max_iter, scaled, stable_at=it if stable else None)
    return GridField(
        grid=sys.grid,
        values=u.reshape(sys.grid.shape),
        residual=res,
        scaled_residual=scaled,
        iterations=it,
        policy_min=lam_idx,
        policy_max=mu_idx,
        residual_history=history,
        policy_switch_count=switches,
    )


def solve_eps(
    problem: ThinProblem, eps: float, nx: int = ExperimentPlan.nx, ny: int = ExperimentPlan.ny,
    tol: float = ExperimentPlan.tol, max_iter: int = ExperimentPlan.max_iter,
) -> GridField:
    return policy_iteration(discretize_eps(problem, make_eps_grid(problem, eps, nx, ny)), tol=tol, max_iter=max_iter)


def solve_limit(
    lp: LimitProblem, resolution: int = ExperimentPlan.limit_resolution,
    tol: float = ExperimentPlan.tol, max_iter: int = ExperimentPlan.max_iter,
) -> GridField:
    return policy_iteration(discretize_limit(lp, make_limit_grid(lp, resolution)), tol=tol, max_iter=max_iter)


# the discrete homogeneous operator on psi must fall below this on interior nodes
_PERTURBATION_TARGET = -0.5


@dataclass
class PerturbationReport:
    alpha: float
    kappa: float
    worst: float  # max over interior nodes and controls of the discrete homogeneous operator on psi
    passed: bool

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} comparison perturbation: discrete G0(psi) <= {self.worst:.6g} "
            f"(target {_PERTURBATION_TARGET}) with alpha={self.alpha:g}"
        )


def perturbation_certificate(lp: LimitProblem, resolution=64) -> PerturbationReport:
    """Build psi = exp(alpha s~) and check the discrete homogeneous operator.

    The potential is rescaled so Ds A~ Ds^T >= 1 on the grid, then alpha is
    doubled, up to 2^20, until every control's homogeneous row value at psi
    is below the target -1/2 on all interior nodes (the discrete face of the
    comparison perturbation with right-hand side -1, relaxed for scheme
    error).
    """
    alpha_cap = 2.0**20
    grid = make_limit_grid(lp, resolution)
    nodes = grid.nodes()
    interior = grid.classification == INTERIOR
    s = lp.source.bdata.s_candidate
    coeffs = lp.coefficients(nodes[interior])
    form_min = float(quadratic_form(s.grad(nodes[interior])[:, None, None], coeffs.a).min(initial=math.inf))
    if form_min <= 1e-12:
        return PerturbationReport(alpha=math.nan, kappa=math.nan, worst=math.inf, passed=False)
    kappa = 1.0 / math.sqrt(form_min)
    s_vals = s.value(nodes)
    s_tilde = kappa * (s_vals - s_vals.min())

    zero = np.zeros_like(coeffs.c)
    hom = _assemble(grid, lp.controls, replace(coeffs, c=zero, f=zero))
    alpha = 2.0
    while alpha <= alpha_cap:
        psi = np.exp(alpha * s_tilde)
        worst = float((hom.matrix @ psi).reshape(-1, grid.size)[:, interior].max())
        if worst <= _PERTURBATION_TARGET:
            return PerturbationReport(alpha=alpha, kappa=kappa, worst=worst, passed=True)
        alpha *= 2.0
    return PerturbationReport(alpha=alpha_cap, kappa=kappa, worst=worst, passed=False)
