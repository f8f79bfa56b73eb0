"""Monotone finite-difference schemes and Howard policy iteration.

Interior rows discretize -tr(A D^2 u) - b . Du + c u = f with central
second differences, the seven-point corner splitting for the cross term
(diagonal corners for positive A12, anti-diagonal for negative), and
first-order upwinding for the drift.  Every assembled interior and oblique
row must be an M-matrix row (positive diagonal, non-positive off-diagonal);
a violating row aborts assembly with the witness node, rather than silently
losing monotonicity.  Oblique rows use first-order one-sided differences
into the domain; lateral/Dirichlet rows are identities.

Assembly reads all interior coefficients from one
:class:`thinpde.problem.Coefficients` bundle and builds the rows as arrays,
one stencil offset at a time.  Monotonicity is what makes the scheme
converge (Barles & Souganidis, Asymptotic Anal. 4, 1991), so the sign check
stays exact; it names the first control pair, then the lowest flat index.

Howard iteration alternates a per-node argmin-over-L of the max-over-M row
values with a direct sparse solve for the frozen policy; ties break toward
the lowest label index, making runs reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .problem import Coefficients, ThinProblem, inf_sup, quadratic_form
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
    gp = geom.g_plus.value(base)
    gm = geom.g_minus.value(base)
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


# A block of rows is a list of slots [offset, values, present]: column
# flat + offset holds ``values`` in the rows where ``present`` holds.  Slots
# come in the order a row-by-row build first touches their columns, and each
# value is summed in that build's order, so the matrices match it bit for bit.


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


def _first_violation(rows: np.ndarray, slots: list, checks=()):
    """(flat index, detail) of the lowest row failing ``checks`` or the M-matrix sign pattern, or None.

    ``checks`` are (mask, detail) pairs tested before the signs.
    """
    diag = slots[0][1]
    checks = list(checks) + [(diag <= 0.0, lambda r: f"diagonal {diag[r]:.3e} not positive")]
    for _, vals, present in slots[1:]:
        checks.append(((vals > _OFFDIAG_TOL) & present, lambda r, v=vals: f"off-diagonal {v[r]:.3e} positive"))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    r = int(np.flatnonzero(bad)[0])
    return rows[r], next(detail(r) for mask, detail in checks if mask[r])


def _entries(rows: np.ndarray, slots: list) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """COO (row, column, value) arrays of a block of rows, one triple per slot."""
    return [(rows[present], rows[present] + off, vals[present]) for off, vals, present in slots]


def _assemble(
    grid: Grid,
    pairs: list[tuple[str, str]],
    n_min: int,
    n_max: int,
    coeffs: Coefficients,
    oblique=None,
    dirichlet=None,
) -> DiscreteSystem:
    """Shared row assembler.

    ``coeffs`` holds every control pair's coefficients at the interior nodes
    in flat order, with d = len(grid.axes); ``oblique(kind, x) -> (gamma,
    beta)`` supplies the top/bottom rows and ``dirichlet(x)`` the identity
    rows' data, each at an array x of the nodes of that kind.
    """
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
    fixed = [(dirichlet_rows, dirichlet_rows, np.ones(len(dirichlet_rows)))]

    # oblique rows do not depend on the control
    oblique_rows = np.flatnonzero((cls == TOP) | (cls == BOTTOM))
    top = cls[oblique_rows] == TOP
    gvec = np.empty((len(oblique_rows), d))
    fixed_rhs = dirichlet_values.copy()
    for kind, sel in ((TOP, top), (BOTTOM, ~top)):
        if sel.any():
            gvec[sel], fixed_rhs[oblique_rows[sel]] = oblique(kind, nodes[oblique_rows[sel]])
    gy = gvec[:, d - 1]
    slots = _oblique_slots(top, gvec, h, strides)
    inward = [
        (top & (gy <= 0.0), lambda r: "top oblique field points inward"),
        (~top & (gy >= 0.0), lambda r: "bottom oblique field points inward"),
    ]
    oblique_fault = _first_violation(oblique_rows, slots, inward)
    fixed += _entries(oblique_rows, slots)

    interior_rows = np.flatnonzero(cls == INTERIOR)
    matrices = []
    rhs_list = []
    for k, (lam, mu) in enumerate(pairs):
        pair = coeffs.pair(k // n_max, k % n_max)
        slots = _interior_slots(pair, h, strides)
        faults = [f for f in (_first_violation(interior_rows, slots), oblique_fault) if f is not None]
        if faults:
            flat, detail = min(faults, key=lambda f: f[0])
            raise NonMonotoneStencilError(tuple(nodes[flat]), (lam, mu), detail)
        rows, cols, vals = (np.concatenate(parts) for parts in zip(*fixed, *_entries(interior_rows, slots)))
        matrices.append(sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(size, size))))
        rhs = fixed_rhs.copy()
        rhs[interior_rows] = pair.f[:, 0, 0]
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
            return bd.gamma_plus(x[:, :-1], x[:, -1]), bd.beta_plus(x[:, :-1], x[:, -1])
        return bd.gamma_minus(x[:, :-1], x[:, -1]), bd.beta_minus(x[:, :-1], x[:, -1])

    return _assemble(
        grid,
        problem.control_pairs(),
        len(problem.controls.min_labels),
        len(problem.controls.max_labels),
        problem.coefficients(grid.nodes()[cls == INTERIOR]),
        oblique=oblique,
        dirichlet=bd.beta_lateral.value,
    )


def discretize_limit(lp: LimitProblem, grid: Grid) -> DiscreteSystem:
    return _assemble(
        grid,
        lp.control_pairs(),
        len(lp.controls.min_labels),
        len(lp.controls.max_labels),
        lp.coefficients(grid.nodes()[grid.classification == INTERIOR]),
        dirichlet=lp.dirichlet_trace,
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
    s = lp.source.bdata.s_candidate
    coeffs = lp.coefficients(nodes[interior])
    form_min = float(quadratic_form(s.grad(nodes[interior])[:, None, None], coeffs.a).min(initial=math.inf))
    if form_min <= 1e-12:
        return PerturbationReport(alpha=math.nan, kappa=math.nan, worst=math.inf, passed=False, target=target)
    kappa = 1.0 / math.sqrt(form_min)
    s_vals = s.value(nodes)
    s_tilde = kappa * (s_vals - s_vals.min())

    zero = np.zeros_like(coeffs.c)
    hom = _assemble(
        grid,
        lp.control_pairs(),
        len(lp.controls.min_labels),
        len(lp.controls.max_labels),
        replace(coeffs, c=zero, f=zero),
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
