"""Reduction of the thin problem to its N-dimensional limit problem.

The limit operator G acts on (X, p, r, x) through per-control coefficients
obtained by collapsing the strip onto its base:

    A~ = P A(x,0) P^T,          P = (I_N | -gamma0^T),
    sigma~ = sigma(x,0) P^T,
    b~ = b(x,0) P^T - 2 e_{N+1} A(x,0) (Dgamma0 | 0)^T + A_{N+1,N+1} b_aux,
    c~ = c(x,0),
    f~ = f(x,0) + b_{N+1}(x,0) beta0 + tr(A(x,0) C),

with the auxiliary fields

    b_aux = gamma0 Dgamma0^T - (g+ k+ + g- k-) / (g+ - g-),
    c_aux = -gamma0 . Dbeta0 + (g+ l+ + g- l-) / (g+ - g-),

and C the bordered matrix with Dbeta0 on its last row/column and c_aux in
the corner.  The whole construction is pinned down by the representation
identity G(X,p,r,x) = F(A+B+C, (p, beta0 - gamma0.p), r, (x,0)), which
:func:`representation_check` evaluates on random draws; the two evaluation
paths are each other's oracle.

The written form of the f~ coupling multiplies the full drift vector by the
scalar beta0; the only scalar reading consistent with the representation
identity is the (N+1)-th drift entry times beta0, which is what is
implemented here (the gradient's last slot is the one that carries beta0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .problem import Coefficients, OperatorValue, ThinProblem, operator_infsup, operator_value, row_dot, row_matmul
from .problem import strip_points

__all__ = [
    "DegenerateThicknessError",
    "LimitProblem",
    "aux_fields",
    "reduce_problem",
    "evaluate_operator_g",
    "representation_check",
    "bordered_matrices",
    "RepresentationReport",
    "LimitBoundsReport",
    "estimate_limit_bounds",
]


class DegenerateThicknessError(ArithmeticError):
    """g+ - g- fell below 1e-12 at an evaluation point."""


_THICKNESS_FLOOR = 1e-12


def _rows(x) -> np.ndarray:
    """Base points as an (m, N) array; one point becomes one row."""
    return np.atleast_2d(np.asarray(x, dtype=float))


def _thickness(problem: ThinProblem, x: np.ndarray) -> np.ndarray:
    t = problem.geom.g_plus.value(x) - problem.geom.g_minus.value(x)
    thin = t < _THICKNESS_FLOOR
    if thin.any():
        i = int(np.flatnonzero(thin)[0])
        raise DegenerateThicknessError(f"g+ - g- = {t[i]:.3e} at x = {tuple(float(v) for v in x[i])}")
    return t


def _aux(problem: ThinProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b_aux (m, N) and c_aux (m,) at base points shaped (m, N)."""
    bd = problem.bdata
    geom = problem.geom
    t = _thickness(problem, x)
    gp, gm = geom.g_plus.value(x), geom.g_minus.value(x)
    g0 = bd.gamma0.value(x)
    b_avg = (gp[:, None] * bd.k_plus.value(x) + gm[:, None] * bd.k_minus.value(x)) / t[:, None]
    b_aux = (bd.gamma0.jacobian(x) @ g0[:, :, None])[:, :, 0] - b_avg
    c_avg = (gp * bd.l_plus.value(x) + gm * bd.l_minus.value(x)) / t
    return b_aux, row_dot(-g0, bd.beta0.grad(x)) + c_avg


def aux_fields(problem: ThinProblem):
    """Evaluators for the auxiliary drift b_aux(x) and source c_aux(x) at one base point."""
    return (lambda x: _aux(problem, _rows(x))[0][0]), (lambda x: float(_aux(problem, _rows(x))[1][0]))


def _projector(problem: ThinProblem, x: np.ndarray) -> np.ndarray:
    """P = (I_N | -gamma0^T) at base points shaped (m, N); shape (m, N, N+1)."""
    g0 = problem.bdata.gamma0.value(x)
    m, n = g0.shape
    return np.concatenate([np.broadcast_to(np.eye(n), (m, n, n)), -g0[:, :, None]], axis=-1)


@dataclass
class LimitProblem:
    """Reduced Dirichlet problem on the base box."""

    source: ThinProblem

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def controls(self):
        return self.source.controls

    def control_pairs(self):
        return self.source.control_pairs()

    def dirichlet_trace(self, x):
        """beta(x, 0): the Dirichlet data of the limit problem on the base boundary.

        One base point gives a float, an (m, N) array of points an (m,) array.
        """
        return self.source.bdata.beta_lateral.value(strip_points(np.atleast_1d(np.asarray(x, dtype=float)), 0.0))

    def coefficients(self, x) -> Coefficients:
        """sigma~, A~, b~, c~, f~ of every control pair at base points shaped (m, N)."""
        x = _rows(x)
        n = self.n
        bd = self.source.bdata
        base = self.source.coefficients(strip_points(x, 0.0))
        a, b = base.a, base.b
        proj = _projector(self.source, x)[:, None, None]
        proj_t = np.swapaxes(proj, -1, -2)
        b_aux, c_aux = _aux(self.source, x)
        jac = bd.gamma0.jacobian(x)[:, None, None]
        b_tilde = (
            row_matmul(b, proj_t)
            - 2.0 * (jac @ a[..., :n, n, None])[..., 0]
            + a[..., n, n, None] * b_aux[:, None, None]
        )
        trace_term = 2.0 * row_dot(a[..., :n, n], bd.beta0.grad(x)[:, None, None]) + a[..., n, n] * c_aux[:, None, None]
        f_tilde = base.f + b[..., n] * bd.beta0.value(x)[:, None, None] + trace_term
        return Coefficients(base.sigma @ proj_t, proj @ a @ proj_t, b_tilde, base.c, f_tilde)

    def _one(self, lam: str, mu: str, x) -> Coefficients:
        return self.coefficients(x).pair(*self.controls.index(lam, mu))

    def a_tilde(self, lam: str, mu: str, x) -> np.ndarray:
        return self._one(lam, mu, x).a[0, 0, 0]

    def sigma_tilde(self, lam: str, mu: str, x) -> np.ndarray:
        return self._one(lam, mu, x).sigma[0, 0, 0]

    def b_tilde(self, lam: str, mu: str, x) -> np.ndarray:
        return self._one(lam, mu, x).b[0, 0, 0]

    def c_tilde(self, lam: str, mu: str, x) -> float:
        return float(self._one(lam, mu, x).c[0, 0, 0])

    def f_tilde(self, lam: str, mu: str, x) -> float:
        return float(self._one(lam, mu, x).f[0, 0, 0])

    def homogeneous_value(self, lam: str, mu: str, X, p, r: float, x) -> float:
        """The homogeneous part: -tr(A~ X) - b~.p + c~ r (no source term)."""
        one = self._one(lam, mu, x)
        return float(operator_infsup(replace(one, f=np.zeros_like(one.f)), X, p, r)[0][0])

    def evaluate_operator(self, X, p, r: float, x) -> OperatorValue:
        return evaluate_operator_g(self, X, p, r, x)


def reduce_problem(problem: ThinProblem) -> LimitProblem:
    """Build the limit problem; requires a validated thin problem."""
    return LimitProblem(problem)


def evaluate_operator_g(lp: LimitProblem, X, p, r: float, x) -> OperatorValue:
    """Inf over L, sup over M of -tr(A~ X) - b~.p + c~ r - f~ at x."""
    return operator_value(lp, X, p, r, x)


def bordered_matrices(problem: ThinProblem, x, X, p):
    """The three (N+1)x(N+1) blocks A, B, C entering the representation identity.

    x (m, N), X (m, N, N) and p (m, N) give blocks shaped (m, N+1, N+1);
    one base point gives m = 1.
    """
    n = problem.n
    x = _rows(x)
    m = len(x)
    X = np.asarray(X, dtype=float).reshape(m, n, n)
    p = np.asarray(p, dtype=float).reshape(m, n)
    bd = problem.bdata
    proj = _projector(problem, x)
    a_mat = np.swapaxes(proj, -1, -2) @ X @ proj

    b_aux, c_aux = _aux(problem, x)
    pj = row_matmul(p, bd.gamma0.jacobian(x))
    b_mat = np.zeros((m, n + 1, n + 1))
    b_mat[:, :n, n] = -pj
    b_mat[:, n, :n] = -pj
    b_mat[:, n, n] = row_dot(b_aux, p)

    dbeta0 = bd.beta0.grad(x)
    c_mat = np.zeros((m, n + 1, n + 1))
    c_mat[:, :n, n] = dbeta0
    c_mat[:, n, :n] = dbeta0
    c_mat[:, n, n] = c_aux
    return a_mat, b_mat, c_mat


@dataclass
class RepresentationReport:
    max_abs_diff: float
    samples: int
    seed: int
    passed: bool
    tolerance: float
    witness: tuple | None = None

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} representation identity over {self.samples} draws (seed {self.seed}): "
            f"max |G - F| = {self.max_abs_diff:.3e} (tolerance {self.tolerance:g})"
        )


def representation_check(
    problem: ThinProblem,
    lp: LimitProblem | None = None,
    samples: int = 1000,
    seed: int = 0,
    tolerance: float = 1e-8,
) -> RepresentationReport:
    """Evaluate G and F(A+B+C, (p, beta0 - gamma0.p), r, (x,0)) on random draws.

    Entries of X (symmetrized), p and r are uniform in [-1, 1]; x is uniform
    in the base box.  Both sides share the same derivative evaluators, so
    with analytic derivatives registered the discrepancy is pure float
    roundoff.
    """
    if lp is None:
        lp = reduce_problem(problem)
    rng = np.random.default_rng(seed)
    n = problem.n
    lo = np.asarray(problem.geom.lower)
    hi = np.asarray(problem.geom.upper)
    Xs = np.empty((samples, n, n))
    ps = np.empty((samples, n))
    rs = np.empty(samples)
    xs = np.empty((samples, n))
    for k in range(samples):
        raw = rng.uniform(-1.0, 1.0, size=(n, n))
        Xs[k] = 0.5 * (raw + raw.T)
        ps[k] = rng.uniform(-1.0, 1.0, size=n)
        rs[k] = float(rng.uniform(-1.0, 1.0))
        xs[k] = rng.uniform(lo, hi)
    g_val = operator_infsup(lp.coefficients(xs), Xs, ps, rs)[0]
    a_mat, b_mat, c_mat = bordered_matrices(problem, xs, Xs, ps)
    bd = problem.bdata
    q = strip_points(ps, bd.beta0.value(xs) - row_dot(bd.gamma0.value(xs), ps))
    f_val = operator_infsup(problem.coefficients(strip_points(xs, 0.0)), a_mat + b_mat + c_mat, q, rs)[0]
    diff = np.abs(g_val - f_val)
    worst = 0.0
    witness = None
    if diff.size and diff.max() > 0.0:
        i = int(np.argmax(diff))
        worst = float(diff[i])
        witness = (tuple(float(v) for v in np.round(xs[i], 12)), float(rs[i]))
    return RepresentationReport(
        max_abs_diff=worst,
        samples=samples,
        seed=seed,
        passed=worst <= tolerance,
        tolerance=tolerance,
        witness=witness,
    )


@dataclass
class LimitBoundsReport:
    sup_bound: float
    lipschitz_sigma_b: float
    modulus_c_f: float

    def format(self) -> str:
        return (
            f"limit coefficient bounds: sup={self.sup_bound:.6g}, "
            f"Lipschitz(sigma~, b~)={self.lipschitz_sigma_b:.6g}, "
            f"max increment(c~, f~)={self.modulus_c_f:.6g}"
        )


def estimate_limit_bounds(lp: LimitProblem, samples_per_axis: int = 16) -> LimitBoundsReport:
    """Estimate the uniform bound and continuity constants of the reduced fields."""
    pts = lp.source.geom.lattice(samples_per_axis)
    co = lp.coefficients(pts)
    s, b, c, f = co.sigma, co.b, co.c, co.f
    sup = max(0.0, *(float(np.abs(v).max()) for v in (s, b, c, f)))
    # increments between consecutive lattice nodes
    step = pts[:-1] - pts[1:]
    dx = np.sqrt(row_dot(step, step))
    moved = dx != 0.0
    rate = np.maximum(np.abs(s[:-1] - s[1:]).max(axis=(-2, -1)), np.abs(b[:-1] - b[1:]).max(axis=-1))
    jump = np.maximum(np.abs(c[:-1] - c[1:]), np.abs(f[:-1] - f[1:]))
    lip = float((rate[moved] / dx[moved, None, None]).max(initial=0.0))
    mod = float(jump[moved].max(initial=0.0))
    return LimitBoundsReport(sup_bound=sup, lipschitz_sigma_b=lip, modulus_c_f=mod)
