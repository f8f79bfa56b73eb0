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
:func:`representation_check` evaluates on random draws and reports as a
:class:`thinpde.problem.ToleranceCheck`; the two evaluation paths are each
other's oracle.

The written form of the f~ coupling multiplies the full drift vector by the
scalar beta0; the only scalar reading consistent with the representation
identity is the (N+1)-th drift entry times beta0, which is what is
implemented here (the gradient's last slot is the one that carries beta0).

The reduced coefficients, the Dirichlet trace and the bordered matrices
take arrays of base points (m, N) only; there is no one-point form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import Coefficients, ThinProblem, ToleranceCheck, box_lattice, operator_infsup, row_dot, row_matmul, strip_points


class DegenerateThicknessError(ArithmeticError):
    """g+ - g- fell below 1e-12 at an evaluation point."""


_THICKNESS_FLOOR = 1e-12
# G and F read the same exact derivatives, so a discrepancy above roundoff is a defect
_REPRESENTATION_TOL = 1e-8


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

    def dirichlet_trace(self, x):
        """beta(x, 0) at base points x (m, N): the Dirichlet data of the limit problem on the base boundary."""
        return self.source.bdata.beta_lateral.value(strip_points(x, 0.0))

    def coefficients(self, x) -> Coefficients:
        """sigma~, A~, b~, c~, f~ of every control pair at base points shaped (m, N)."""
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


def reduce_problem(problem: ThinProblem) -> LimitProblem:
    """Build the limit problem; requires a validated thin problem."""
    return LimitProblem(problem)


def bordered_matrices(problem: ThinProblem, x, X, p):
    """The three (N+1)x(N+1) blocks A, B, C entering the representation identity.

    x (m, N), X (m, N, N) and p (m, N) give blocks shaped (m, N+1, N+1).
    """
    m, n = x.shape
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


def _draws(lower, upper, samples: int, seed: int):
    """X (m, N, N), p (m, N), r (m,), x (m, N) of :func:`representation_check`, laid out as it states."""
    lo, hi = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    n = len(lo)
    u = np.random.default_rng(seed).random((samples, n * n + 2 * n + 1))
    unit = -1.0 + 2.0 * u[:, : n * n + n + 1]
    raw = unit[:, : n * n].reshape(samples, n, n)
    X = 0.5 * (raw + np.swapaxes(raw, 1, 2))
    return X, unit[:, n * n : -1], unit[:, -1], lo + (hi - lo) * u[:, n * n + n + 1 :]


def representation_check(problem: ThinProblem, lp: LimitProblem, samples: int = 1000, seed: int = 0) -> ToleranceCheck:
    """Evaluate G of the limit problem ``lp`` and F(A+B+C, (p, beta0 - gamma0.p), r, (x,0)) on random draws.

    Entries of X (symmetrized), p and r are uniform in [-1, 1]; x is uniform
    in the base box.  Both sides read the same exact derivatives of gamma0
    and beta0, so the discrepancy is pure float roundoff.

    All draws come from one ``rng.random((samples, n*n + 2n + 1))`` block.
    Row k holds the raw X entries (n*n, row-major), then p (n), r (1) and
    x (n), each mapped as ``Generator.uniform`` maps its unit draw,
    ``low + (high - low) * u``; X is then ``0.5 * (raw + raw^T)``.  This is
    the order of four ``uniform`` calls per sample, so a seed gives the same
    draws, bit for bit, as the per-sample loop this block replaced.
    """
    if samples < 1:
        raise ValueError(f"representation check needs samples >= 1, got {samples}")
    Xs, ps, rs, xs = _draws(problem.geom.lower, problem.geom.upper, samples, seed)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing coefficient fails the identity as inf or nan
        g_val = operator_infsup(lp.coefficients(xs), Xs, ps, rs)[0]
        a_mat, b_mat, c_mat = bordered_matrices(problem, xs, Xs, ps)
        bd = problem.bdata
        q = strip_points(ps, bd.beta0.value(xs) - row_dot(bd.gamma0.value(xs), ps))
        f_val = operator_infsup(problem.coefficients(strip_points(xs, 0.0)), a_mat + b_mat + c_mat, q, rs)[0]
        deviation = np.abs(g_val - f_val)
    what = f"representation identity over {samples} draws (seed {seed}): max |G - F| ="
    # the witness is the worst draw's (x1..xN, r)
    return ToleranceCheck.of(what, deviation, strip_points(xs, rs), _REPRESENTATION_TOL)


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


def estimate_limit_bounds(lp: LimitProblem) -> LimitBoundsReport:
    """Estimate the uniform bound and continuity constants of the reduced fields on the 16-interval base lattice."""
    pts = box_lattice(lp.source.geom.lower, lp.source.geom.upper, 16)
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
