"""Monotone finite-difference schemes and Howard policy iteration.

Interior rows discretize -tr(A D^2 u) - b . Du + c u = f with central
second differences, the seven-point corner splitting for the cross term
(diagonal corners for positive A12, anti-diagonal for negative), and
first-order upwinding for the drift.  Every assembled interior and oblique
row must be an M-matrix row (positive diagonal, non-positive off-diagonal);
a violating row aborts assembly with the witness node, rather than silently
losing monotonicity.  Oblique rows use first-order one-sided differences
into the domain; lateral/Dirichlet rows are identities.

Howard iteration alternates a per-node argmin-over-L of the max-over-M row
values with a direct sparse solve for the frozen policy; ties break toward
the lowest label index, making runs reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .problem import ThinProblem, inf_sup
from .reduction import LimitProblem

__all__ = [
    "NonMonotoneStencilError",
    "MaxIterExceededError",
    "SingularSystemError",
    "SOLVER_ERRORS",
    "Grid",
    "DiscreteSystem",
    "GridField",
    "make_eps_grid",
    "make_limit_grid",
    "discretize_eps",
    "discretize_limit",
    "policy_iteration",
    "solve_eps",
    "solve_limit",
    "residual_infinity",
    "perturbation_certificate",
    "PerturbationReport",
    "INTERIOR",
    "TOP",
    "BOTTOM",
    "DIRICHLET",
]

INTERIOR, TOP, BOTTOM, DIRICHLET = 0, 1, 2, 3

_OFFDIAG_TOL = 1e-12


class NonMonotoneStencilError(ArithmeticError):
    """An assembled row violates the M-matrix sign pattern."""

    def __init__(self, node, control, detail: str):
        self.node = node
        self.control = control
        super().__init__(
            f"non-monotone stencil at node {node} for control {control}: {detail} "
            "(cross-derivative dominance; refine the grid or rebalance spacings)"
        )


class MaxIterExceededError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"policy iteration hit {iterations} iterations, residual {residual:.3e} "
            "(rows scale like 1/h^2, so very fine strips may floor above a raw tolerance of 1e-10)"
        )


class SingularSystemError(RuntimeError):
    """The frozen-policy linear system is singular (e.g. no Dirichlet node with c = 0)."""


# every way a solve can fail on valid input; callers map these to exit 5
SOLVER_ERRORS = (NonMonotoneStencilError, MaxIterExceededError, SingularSystemError, NotImplementedError)


@dataclass
class Grid:
    """Tensor-product node lattice with a per-node boundary classification."""

    axes: tuple[np.ndarray, ...]
    kind: str  # "eps" or "limit"
    classification: np.ndarray  # flat ints, one of INTERIOR/TOP/BOTTOM/DIRICHLET
    eps: float | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    def coords(self, flat: int) -> np.ndarray:
        idx = np.unravel_index(flat, self.shape)
        return np.array([a[i] for a, i in zip(self.axes, idx)])

    def flat(self, idx) -> int:
        return int(np.ravel_multi_index(idx, self.shape))

    def nodes(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def make_eps_grid(problem: ThinProblem, eps: float, nx: int, ny: int) -> Grid:
    """Grid on the flat strip Omega x [eps g-, eps g+]; g+- must be constant.

    Curved profiles are exercised through the distortion and barrier
    modules; a terrain-following change of variables is a documented
    extension, not part of this solver.
    """
    geom = problem.geom
    if geom.n != 1:
        raise NotImplementedError("the eps-problem solver is restricted to a 1-dimensional base")
    if eps > geom.epsilon0:
        raise ValueError(f"eps={eps} exceeds epsilon0={geom.epsilon0}")
    if ny + 1 < 8:
        raise ValueError("the strip needs at least 8 vertical nodes")
    base = geom.lattice(16)
    gp = np.array([geom.g_plus.value(x) for x in base])
    gm = np.array([geom.g_minus.value(x) for x in base])
    if gp.max() - gp.min() > 1e-12 or gm.max() - gm.min() > 1e-12:
        raise NotImplementedError("eps-problem grids require constant g+- (flat strip)")
    xs = np.linspace(geom.lower[0], geom.upper[0], nx + 1)
    ys = np.linspace(eps * gm[0], eps * gp[0], ny + 1)
    cls = np.full((nx + 1, ny + 1), INTERIOR, dtype=np.int8)
    cls[:, -1] = TOP
    cls[:, 0] = BOTTOM
    cls[0, :] = DIRICHLET  # lateral wins at corners: the Dirichlet trace is pinned there
    cls[-1, :] = DIRICHLET
    return Grid(axes=(xs, ys), kind="eps", classification=cls.ravel(), eps=eps)


def make_limit_grid(problem_or_lp, resolution) -> Grid:
    src = problem_or_lp.source if isinstance(problem_or_lp, LimitProblem) else problem_or_lp
    geom = src.geom
    res = (resolution,) * geom.n if np.isscalar(resolution) else tuple(resolution)
    axes = tuple(np.linspace(lo, hi, r + 1) for lo, hi, r in zip(geom.lower, geom.upper, res))
    shape = tuple(len(a) for a in axes)
    cls = np.full(shape, INTERIOR, dtype=np.int8)
    for d in range(geom.n):
        sl = [slice(None)] * geom.n
        sl[d] = 0
        cls[tuple(sl)] = DIRICHLET
        sl[d] = -1
        cls[tuple(sl)] = DIRICHLET
    return Grid(axes=axes, kind="limit", classification=cls.ravel(), eps=None)


@dataclass
class DiscreteSystem:
    grid: Grid
    pairs: list[tuple[str, str]]
    n_min: int
    n_max: int
    matrices: list[sp.csr_matrix]
    rhs: list[np.ndarray]
    dirichlet_mask: np.ndarray
    dirichlet_values: np.ndarray


def _assemble(
    grid: Grid,
    pairs: list[tuple[str, str]],
    n_min: int,
    n_max: int,
    diffusion,
    drift,
    czero,
    source,
    oblique=None,
    dirichlet=None,
) -> DiscreteSystem:
    """Shared row assembler.

    ``diffusion(lam, mu, x) -> (d, d)`` etc. with d = len(grid.axes);
    ``oblique(which, x) -> (gamma_vec, beta)`` supplies top/bottom rows,
    ``dirichlet(x) -> value`` the identity rows.
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
                # horizontal parts, upwinded; vertical part one-sided into the strip
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
                # upwind drift: the row coefficient of d/dx_axis is -b_axis
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
                    if a12 > 0.0:
                        corners = (s1 + s2, -s1 - s2)
                    else:
                        corners = (s1 - s2, -s1 + s2)
                    for s in corners:
                        entries[flat + s] = entries.get(flat + s, 0.0) - w
            _check_row(entries, flat, tuple(x), (lam, mu))
            for col, v in entries.items():
                add(flat, col, v)
            rhs[flat] = fval
        mat = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(size, size)))
        matrices.append(mat)
        rhs_list.append(rhs)
    return DiscreteSystem(
        grid=grid,
        pairs=pairs,
        n_min=n_min,
        n_max=n_max,
        matrices=matrices,
        rhs=rhs_list,
        dirichlet_mask=dirichlet_mask,
        dirichlet_values=dirichlet_values,
    )


def _check_row(entries: dict[int, float], diag: int, node, control):
    dval = entries.get(diag, 0.0)
    if dval <= 0.0:
        raise NonMonotoneStencilError(node, control, f"diagonal {dval:.3e} not positive")
    for col, v in entries.items():
        if col != diag and v > _OFFDIAG_TOL:
            raise NonMonotoneStencilError(node, control, f"off-diagonal {v:.3e} positive")


def discretize_eps(problem: ThinProblem, eps: float, grid: Grid, all_dirichlet: bool = False) -> DiscreteSystem:
    """Monotone system for the thin-strip problem on a flat-strip grid.

    ``all_dirichlet`` replaces the top/bottom oblique rows by the lateral
    Dirichlet data, which is handy for scheme tests against harmonic
    polynomials.
    """
    bd = problem.bdata
    cls = grid.classification.copy()
    if all_dirichlet:
        cls[(cls == TOP) | (cls == BOTTOM)] = DIRICHLET
        grid = Grid(axes=grid.axes, kind=grid.kind, classification=cls, eps=grid.eps)

    def oblique(kind, x):
        if kind == TOP:
            return bd.gamma_plus(x[:-1], x[-1]), bd.beta_plus(x[:-1], x[-1])
        return bd.gamma_minus(x[:-1], x[-1]), bd.beta_minus(x[:-1], x[-1])

    return _assemble(
        grid,
        problem.control_pairs(),
        len(problem.controls.min_labels),
        len(problem.controls.max_labels),
        diffusion=lambda lam, mu, x: problem.coeffs.entry(lam, mu).diffusion_at(x),
        drift=lambda lam, mu, x: problem.coeffs.entry(lam, mu).drift_at(x),
        czero=lambda lam, mu, x: problem.coeffs.entry(lam, mu).c_at(x),
        source=lambda lam, mu, x: problem.coeffs.entry(lam, mu).f_at(x),
        oblique=oblique,
        dirichlet=lambda x: bd.beta_lateral.value(x),
    )


def discretize_limit(lp: LimitProblem, grid: Grid) -> DiscreteSystem:
    return _assemble(
        grid,
        lp.control_pairs(),
        len(lp.controls.min_labels),
        len(lp.controls.max_labels),
        diffusion=lambda lam, mu, x: lp.a_tilde(lam, mu, x),
        drift=lambda lam, mu, x: lp.b_tilde(lam, mu, x),
        czero=lambda lam, mu, x: lp.c_tilde(lam, mu, x),
        source=lambda lam, mu, x: lp.f_tilde(lam, mu, x),
        dirichlet=lambda x: lp.dirichlet_trace(x),
    )


@dataclass
class GridField:
    grid: Grid
    values: np.ndarray  # grid-shaped
    residual: float
    iterations: int
    policy_min: np.ndarray  # flat label indices into min_labels
    policy_max: np.ndarray
    residual_history: list[float] = field(default_factory=list)
    policy_switch_count: int = 0

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def _residual_stack(sys: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """(size, n_min, n_max) array of per-control row residuals A u - rhs."""
    res = np.stack([m @ u - r for m, r in zip(sys.matrices, sys.rhs)], axis=-1)
    return res.reshape(-1, sys.n_min, sys.n_max)


def residual_infinity(sys: DiscreteSystem, u: np.ndarray) -> float:
    """Sup norm of the discrete inf-sup operator applied to u."""
    values, _, _ = inf_sup(_residual_stack(sys, np.asarray(u).ravel()))
    return float(np.abs(values).max())


def _solve_frozen(sys: DiscreteSystem, lam_idx: np.ndarray, mu_idx: np.ndarray) -> np.ndarray:
    size = sys.grid.size
    k_idx = lam_idx * sys.n_max + mu_idx
    mat = None
    rhs = np.zeros(size)
    for k in range(len(sys.matrices)):
        mask = (k_idx == k).astype(float)
        if not mask.any():
            continue
        sel = sp.diags(mask)
        part = sel @ sys.matrices[k]
        mat = part if mat is None else mat + part
        rhs += mask * sys.rhs[k]
    mat = sp.csc_matrix(mat)
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            factor = spla.splu(mat)
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


def policy_iteration(sys: DiscreteSystem, tol: float = 1e-10, max_iter: int = 100) -> GridField:
    """Howard iteration for the discrete inf-sup system.

    Stops when the policy is stable and the sup-norm residual of the
    nonlinear discrete operator is below tol; Dirichlet nodes are pinned to
    their data exactly after each solve.
    """
    size = sys.grid.size
    u = np.zeros(size)
    u[sys.dirichlet_mask] = sys.dirichlet_values[sys.dirichlet_mask]
    _, lam_idx, mu_idx = inf_sup(_residual_stack(sys, u))
    history: list[float] = []
    switches = 0
    for it in range(1, max_iter + 1):
        u = _solve_frozen(sys, lam_idx, mu_idx)
        values, new_lam, new_mu = inf_sup(_residual_stack(sys, u))
        res = float(np.abs(values).max())
        history.append(res)
        changed = bool((new_lam != lam_idx).any() or (new_mu != mu_idx).any())
        if changed:
            switches += 1
        lam_idx, mu_idx = new_lam, new_mu
        if not changed and res <= tol:
            return GridField(
                grid=sys.grid,
                values=u.reshape(sys.grid.shape),
                residual=res,
                iterations=it,
                policy_min=lam_idx,
                policy_max=mu_idx,
                residual_history=history,
                policy_switch_count=switches,
            )
    raise MaxIterExceededError(history[-1] if history else math.inf, max_iter)


def solve_eps(
    problem: ThinProblem,
    eps: float,
    nx: int = 64,
    ny: int = 16,
    tol: float = 1e-10,
    max_iter: int = 100,
    grid: Grid | None = None,
) -> GridField:
    if grid is None:
        grid = make_eps_grid(problem, eps, nx, ny)
    return policy_iteration(discretize_eps(problem, eps, grid), tol=tol, max_iter=max_iter)


def solve_limit(
    lp: LimitProblem,
    resolution=64,
    tol: float = 1e-10,
    max_iter: int = 100,
    grid: Grid | None = None,
) -> GridField:
    if grid is None:
        grid = make_limit_grid(lp, resolution)
    return policy_iteration(discretize_limit(lp, grid), tol=tol, max_iter=max_iter)


@dataclass
class PerturbationReport:
    alpha: float
    kappa: float
    worst: float  # max over interior nodes and controls of the discrete homogeneous operator on psi
    passed: bool
    target: float = -0.5

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} comparison perturbation: discrete G0(psi) <= {self.worst:.6g} "
            f"(target {self.target}) with alpha={self.alpha:g}"
        )


def perturbation_certificate(
    lp: LimitProblem,
    resolution=64,
    target: float = -0.5,
    alpha_cap: float = 2.0**20,
) -> PerturbationReport:
    """Build psi = exp(alpha s~) and check the discrete homogeneous operator.

    The potential is rescaled so Ds A~ Ds^T >= 1 on the grid, then alpha is
    doubled until every control's homogeneous row value at psi is below the
    target on all interior nodes (the discrete face of the comparison
    perturbation with right-hand side -1, relaxed to -1/2 for scheme error).
    """
    grid = make_limit_grid(lp, resolution)
    nodes = grid.nodes()
    interior = grid.classification == INTERIOR
    form_min = math.inf
    for x in nodes[interior]:
        ds = lp.source.bdata.s_candidate.grad(x)
        for lam, mu in lp.control_pairs():
            form_min = min(form_min, float(ds @ lp.a_tilde(lam, mu, x) @ ds))
    if form_min <= 1e-12:
        return PerturbationReport(alpha=math.nan, kappa=math.nan, worst=math.inf, passed=False, target=target)
    kappa = 1.0 / math.sqrt(form_min)
    s_vals = np.array([lp.source.bdata.s_candidate.value(x) for x in nodes])
    s_tilde = kappa * (s_vals - s_vals.min())

    hom = _assemble(
        grid,
        lp.control_pairs(),
        len(lp.controls.min_labels),
        len(lp.controls.max_labels),
        diffusion=lambda lam, mu, x: lp.a_tilde(lam, mu, x),
        drift=lambda lam, mu, x: lp.b_tilde(lam, mu, x),
        czero=lambda lam, mu, x: 0.0,
        source=lambda lam, mu, x: 0.0,
        dirichlet=lambda x: 0.0,
    )
    alpha = 2.0
    while alpha <= alpha_cap:
        psi = np.exp(alpha * s_tilde)
        worst = -math.inf
        for m in hom.matrices:
            worst = max(worst, float((m @ psi)[interior].max()))
        if worst <= target:
            return PerturbationReport(alpha=alpha, kappa=kappa, worst=worst, passed=True, target=target)
        alpha *= 2.0
    return PerturbationReport(alpha=alpha_cap, kappa=kappa, worst=worst, passed=False, target=target)
