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

from dataclasses import dataclass

import numpy as np

from .problem import OperatorValue, ThinProblem, operator_infsup

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


def _thickness(problem: ThinProblem, x) -> float:
    t = problem.geom.g_plus.value(x) - problem.geom.g_minus.value(x)
    if t < _THICKNESS_FLOOR:
        raise DegenerateThicknessError(f"g+ - g- = {t:.3e} at x = {tuple(np.atleast_1d(x))}")
    return t


def aux_fields(problem: ThinProblem):
    """Evaluators for the auxiliary drift b_aux(x) and source c_aux(x)."""
    bd = problem.bdata
    geom = problem.geom

    def b_aux(x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = _thickness(problem, x)
        jac = bd.gamma0.jacobian(x)
        gp, gm = geom.g_plus.value(x), geom.g_minus.value(x)
        avg = (gp * bd.k_plus.value(x) + gm * bd.k_minus.value(x)) / t
        return jac @ bd.gamma0.value(x) - avg

    def c_aux(x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = _thickness(problem, x)
        gp, gm = geom.g_plus.value(x), geom.g_minus.value(x)
        avg = (gp * bd.l_plus.value(x) + gm * bd.l_minus.value(x)) / t
        return float(-bd.gamma0.value(x) @ bd.beta0.grad(x)) + avg

    return b_aux, c_aux


def _projector(problem: ThinProblem, x) -> np.ndarray:
    """P = (I_N | -gamma0^T), shape (N, N+1)."""
    g0 = problem.bdata.gamma0.value(x)
    return np.hstack([np.eye(problem.n), -g0.reshape(-1, 1)])


@dataclass
class LimitProblem:
    """Reduced Dirichlet problem on the base box."""

    source: ThinProblem

    def __post_init__(self):
        self._b_aux, self._c_aux = aux_fields(self.source)

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def controls(self):
        return self.source.controls

    def control_pairs(self):
        return self.source.control_pairs()

    def aux_drift(self, x) -> np.ndarray:
        return self._b_aux(x)

    def aux_source(self, x) -> float:
        return self._c_aux(x)

    def dirichlet_trace(self, x) -> float:
        """beta(x, 0): the Dirichlet data of the limit problem on the base boundary."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.source.bdata.beta_lateral.value(np.append(x, 0.0))

    def _entry(self, lam, mu):
        return self.source.coeffs.entry(lam, mu)

    def a_tilde(self, lam: str, mu: str, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = _projector(self.source, x)
        a = self._entry(lam, mu).diffusion_at(np.append(x, 0.0))
        return p @ a @ p.T

    def sigma_tilde(self, lam: str, mu: str, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = _projector(self.source, x)
        s = self._entry(lam, mu).sigma_at(np.append(x, 0.0))
        return s @ p.T

    def b_tilde(self, lam: str, mu: str, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = self.n
        z = np.append(x, 0.0)
        e = self._entry(lam, mu)
        a = e.diffusion_at(z)
        b = e.drift_at(z)
        p = _projector(self.source, x)
        jac = self.source.bdata.gamma0.jacobian(x)
        return b @ p.T - 2.0 * (jac @ a[:n, n]) + a[n, n] * self._b_aux(x)

    def c_tilde(self, lam: str, mu: str, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self._entry(lam, mu).c_at(np.append(x, 0.0))

    def f_tilde(self, lam: str, mu: str, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = self.n
        z = np.append(x, 0.0)
        e = self._entry(lam, mu)
        a = e.diffusion_at(z)
        b = e.drift_at(z)
        beta0 = self.source.bdata.beta0.value(x)
        dbeta0 = self.source.bdata.beta0.grad(x)
        trace_term = 2.0 * float(a[:n, n] @ dbeta0) + a[n, n] * self._c_aux(x)
        return e.f_at(z) + b[n] * beta0 + trace_term

    def homogeneous_value(self, lam: str, mu: str, X, p, r: float, x) -> float:
        """The homogeneous part: -tr(A~ X) - b~.p + c~ r (no source term)."""
        X = np.asarray(X, dtype=float).reshape(self.n, self.n)
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return (
            -float(np.sum(self.a_tilde(lam, mu, x) * X))
            - float(self.b_tilde(lam, mu, x) @ p)
            + self.c_tilde(lam, mu, x) * r
        )

    def evaluate_operator(self, X, p, r: float, x) -> OperatorValue:
        return evaluate_operator_g(self, X, p, r, x)


def reduce_problem(problem: ThinProblem) -> LimitProblem:
    """Build the limit problem; requires a validated thin problem."""
    return LimitProblem(problem)


def evaluate_operator_g(lp: LimitProblem, X, p, r: float, x) -> OperatorValue:
    """Inf over L, sup over M of -tr(A~ X) - b~.p + c~ r - f~ at x."""

    def coefficients(lam, mu):
        return lp.a_tilde(lam, mu, x), lp.b_tilde(lam, mu, x), lp.c_tilde(lam, mu, x), lp.f_tilde(lam, mu, x)

    X = np.asarray(X, dtype=float).reshape(lp.n, lp.n)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return operator_infsup(lp.controls.min_labels, lp.controls.max_labels, coefficients, X, p, r)


def bordered_matrices(problem: ThinProblem, x, X, p):
    """The three (N+1)x(N+1) blocks A, B, C entering the representation identity."""
    n = problem.n
    x = np.atleast_1d(np.asarray(x, dtype=float))
    X = np.asarray(X, dtype=float).reshape(n, n)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    bd = problem.bdata
    proj = _projector(problem, x)
    a_mat = proj.T @ X @ proj

    jac = bd.gamma0.jacobian(x)
    b_aux, c_aux = aux_fields(problem)
    pj = p @ jac  # row vector times the Jacobian matrix
    b_mat = np.zeros((n + 1, n + 1))
    b_mat[:n, n] = -pj
    b_mat[n, :n] = -pj
    b_mat[n, n] = float(b_aux(x) @ p)

    dbeta0 = bd.beta0.grad(x)
    c_mat = np.zeros((n + 1, n + 1))
    c_mat[:n, n] = dbeta0
    c_mat[n, :n] = dbeta0
    c_mat[n, n] = c_aux(x)
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
    worst = 0.0
    witness = None
    for _ in range(samples):
        raw = rng.uniform(-1.0, 1.0, size=(n, n))
        X = 0.5 * (raw + raw.T)
        p = rng.uniform(-1.0, 1.0, size=n)
        r = float(rng.uniform(-1.0, 1.0))
        x = rng.uniform(lo, hi)
        g_val = evaluate_operator_g(lp, X, p, r, x).value
        a_mat, b_mat, c_mat = bordered_matrices(problem, x, X, p)
        beta0 = problem.bdata.beta0.value(x)
        gamma0 = problem.bdata.gamma0.value(x)
        q = np.append(p, beta0 - float(gamma0 @ p))
        f_val = problem.evaluate_operator(a_mat + b_mat + c_mat, q, r, np.append(x, 0.0)).value
        d = abs(g_val - f_val)
        if d > worst:
            worst = d
            witness = (tuple(float(v) for v in np.round(np.atleast_1d(x), 12)), r)
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
    sup = 0.0
    lip = 0.0
    mod = 0.0
    for lam, mu in lp.control_pairs():
        vals = []
        for x in pts:
            s = lp.sigma_tilde(lam, mu, x)
            b = lp.b_tilde(lam, mu, x)
            c = lp.c_tilde(lam, mu, x)
            f = lp.f_tilde(lam, mu, x)
            sup = max(sup, np.abs(s).max(), np.abs(b).max(), abs(c), abs(f))
            vals.append((x, s, b, c, f))
        for (x1, s1, b1, c1, f1), (x2, s2, b2, c2, f2) in zip(vals[:-1], vals[1:]):
            dx = float(np.linalg.norm(x1 - x2))
            if dx == 0.0:
                continue
            lip = max(lip, np.abs(s1 - s2).max() / dx, np.abs(b1 - b2).max() / dx)
            mod = max(mod, abs(c1 - c2), abs(f1 - f2))
    return LimitBoundsReport(sup_bound=sup, lipschitz_sigma_b=lip, modulus_c_f=mod)
