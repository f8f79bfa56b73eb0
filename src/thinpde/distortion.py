"""Coordinate distortion flattening the oblique directions.

The map P(z, y) = (z + y*gamma(z), y) straightens the boundary fields: in
the new coordinates the oblique data behaves like the gamma0 = 0 case.  Its
inverse Q is computed by the contraction iteration z <- x - y*gamma(z),
which converges because r is selected so that sup |y Dgamma| <= 1/2 on the
working slab.  The distorted top/bottom boundaries become graphs of
implicit profiles solving y = eps*g(z + y*gamma(z)), found by bisection on
a strictly increasing scalar function.

Pushing the operator through P yields hatted coefficients

    sigma^ = (sigma o P) R^T,      R = DQ o P,
    b^     = (b o P) R^T + d o P,  d_i = tr(A D^2 Q_i),
    c^ = c o P,  f^ = f o P,

where D^2 Q is differenced on the inverse map (exactly zero when gamma is
constant, since Q is then affine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import ScalarField
from .problem import ThinProblem

__all__ = [
    "NoConvergenceError",
    "SingularJacobianError",
    "DistortionMap",
    "build_map",
    "top_profile",
    "bottom_profile",
    "matrix_r",
    "HatOperator",
    "HatBoundary",
    "pushforward",
    "hat_boundary",
    "transplant_ellipticity",
    "TransplantReport",
]

D2Q_STEP = 1e-4
_R_FLOOR = 2.0**-40


class NoConvergenceError(ArithmeticError):
    """The contraction iteration for Q did not reach tolerance."""

    def __init__(self, max_iter: int, residual: float):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(
            f"fixed-point inversion stalled after {max_iter} iterations "
            f"(residual {residual:.3e}); contraction invariant violated?"
        )


class SingularJacobianError(ArithmeticError):
    """I + y Dgamma lost invertibility."""


@dataclass
class DistortionMap:
    """P(z,y) = (z + y gamma(z), y) on the slab |y| <= r, with its inverse."""

    gamma: object  # VectorField with N components on the base variables
    r: float
    tol_fixed_point: float = 1e-12
    max_iter: int = 200
    gamma_sup: float = 0.0
    dgamma_sup: float = 0.0
    is_constant: bool = False
    omega_hat: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    @property
    def n(self) -> int:
        return len(self.gamma)

    def forward(self, z, y: float) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return np.append(z + y * self.gamma.value(z), y)

    def inverse(self, x, y: float) -> np.ndarray:
        """z with z + y gamma(z) = x, via the contraction z <- x - y gamma(z).

        The update size bounds the fixed-point residual (up to the
        contraction factor), so stopping at tol_fixed_point leaves
        |z + y gamma(z) - x| <= tol_fixed_point.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = x.copy()
        for _ in range(self.max_iter):
            z_next = x - y * self.gamma.value(z)
            step = float(np.abs(z_next - z).max())
            z = z_next
            if step <= self.tol_fixed_point:
                return z
        residual = float(np.abs(z + y * self.gamma.value(z) - x).max())
        if residual <= self.tol_fixed_point:
            return z
        raise NoConvergenceError(self.max_iter, residual)

    def dq(self, x, y: float) -> np.ndarray:
        """DQ(x, y), computed as R at the preimage (z, y)."""
        return matrix_r(self, self.inverse(x, y), y)

    def d2q(self, x, y: float, step: float = D2Q_STEP) -> np.ndarray:
        """Hessians of the inverse components; shape (N+1, N+1, N+1).

        Component N+1 of Q is the identity in y, so its Hessian vanishes;
        a constant gamma makes Q affine and the whole array zero.
        """
        n = self.n
        out = np.zeros((n + 1, n + 1, n + 1))
        if self.is_constant:
            return out
        p0 = np.append(np.atleast_1d(np.asarray(x, dtype=float)), y)

        def zeta(pt):
            return self.inverse(pt[:n], pt[n])

        center = zeta(p0)
        for i in range(n + 1):
            pp, pm = p0.copy(), p0.copy()
            pp[i] += step
            pm[i] -= step
            out[:n, i, i] = (zeta(pp) - 2 * center + zeta(pm)) / step**2
            for j in range(i + 1, n + 1):
                acc = np.zeros(n)
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        q = p0.copy()
                        q[i] += si * step
                        q[j] += sj * step
                        acc += si * sj * zeta(q)
                mixed = acc / (4 * step * step)
                out[:n, i, j] = mixed
                out[:n, j, i] = mixed
        return out


def _inflated_lattice(problem: ThinProblem, pad: float, samples: int = 17) -> np.ndarray:
    lo = np.asarray(problem.geom.lower) - pad
    hi = np.asarray(problem.geom.upper) + pad
    axes = [np.linspace(a, b, samples) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def build_map(
    problem: ThinProblem,
    tol_fixed_point: float = 1e-12,
    max_iter: int = 200,
    pad: float = 1.0,
    samples: int = 17,
) -> DistortionMap:
    """Select the slab half-height r and assemble the map for gamma = gamma0.

    r is the largest value in {1/2, 1/4, ...} with sup |y Dgamma| <= 1/2
    (the contraction certificate) and r |Dg| |gamma| <= 1/2 (monotonicity of
    the profile equations).  Norms are sampled on the base box inflated by
    ``pad``, which covers the excursions of the contraction iterates.
    """
    gamma = problem.bdata.gamma0
    pts = _inflated_lattice(problem, pad, samples)
    gamma_sup = max(float(np.linalg.norm(gamma.value(x))) for x in pts)
    dgamma_sup = max(float(np.linalg.norm(gamma.jacobian(x), 2)) for x in pts)
    dg_sup = 0.0
    for fld in (problem.geom.g_plus, problem.geom.g_minus):
        dg_sup = max(dg_sup, max(float(np.linalg.norm(fld.grad(x))) for x in pts))
    r = 0.5
    while r > _R_FLOOR and (r * dgamma_sup > 0.5 or r * dg_sup * gamma_sup > 0.5):
        r *= 0.5
    if r <= _R_FLOOR:
        raise SingularJacobianError("no admissible slab half-height r; gamma too steep")
    is_constant = all(not c.expr.free_variables() for c in gamma.components)
    lo = tuple(l - r * gamma_sup for l in problem.geom.lower)
    hi = tuple(u + r * gamma_sup for u in problem.geom.upper)
    return DistortionMap(
        gamma=gamma,
        r=r,
        tol_fixed_point=tol_fixed_point,
        max_iter=max_iter,
        gamma_sup=gamma_sup,
        dgamma_sup=dgamma_sup,
        is_constant=is_constant,
        omega_hat=(lo, hi),
    )


def matrix_r(dmap: DistortionMap, z, y: float) -> np.ndarray:
    """Block matrix [[(I + y Dgamma)^-1, -(I + y Dgamma)^-1 gamma^T], [0, 1]]."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = dmap.n
    jac = dmap.gamma.jacobian(z)
    m = np.eye(n) + y * jac
    try:
        minv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(f"I + y Dgamma singular at z={tuple(z)}, y={y}") from exc
    if abs(np.linalg.det(m)) < 1e-14:
        raise SingularJacobianError(f"I + y Dgamma numerically singular at z={tuple(z)}, y={y}")
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = minv
    out[:n, n] = -minv @ dmap.gamma.value(z)
    out[n, n] = 1.0
    return out


def _profile(dmap: DistortionMap, g: ScalarField, eps: float, z, tol: float = 1e-12) -> float:
    """Unique y in [-r, r] with y = eps * g(z + y gamma(z)), by bisection."""
    z = np.atleast_1d(np.asarray(z, dtype=float))

    def f(y: float) -> float:
        return y - eps * g.value(z + y * dmap.gamma.value(z))

    lo, hi = -dmap.r, dmap.r
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise ValueError(
            f"profile equation not bracketed on [-r, r]; need eps*sup|g| <= r (eps={eps}, r={dmap.r})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16:
            return mid
    return 0.5 * (lo + hi)


def top_profile(dmap: DistortionMap, g_plus: ScalarField, eps: float, z) -> float:
    return _profile(dmap, g_plus, eps, z)


def bottom_profile(dmap: DistortionMap, g_minus: ScalarField, eps: float, z) -> float:
    return _profile(dmap, g_minus, eps, z)


# --- pushed-forward operator and boundary data -------------------------------


@dataclass
class HatOperator:
    """Per-control coefficients of the operator in distorted coordinates.

    The drift is (b o P) R^T + d o P.  The R^T factor is required for the
    exact chain-rule identity F(D^2(w o Q), ...) = F^(D^2 w, ...); dropping
    it breaks the identity whenever gamma and b are both nonzero.
    """

    problem: ThinProblem
    dmap: DistortionMap
    _r_cache: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.problem.n

    def _r_at(self, z, y: float) -> np.ndarray:
        key = (tuple(np.round(np.atleast_1d(z), 14)), round(y, 14))
        r = self._r_cache.get(key)
        if r is None:
            r = matrix_r(self.dmap, z, y)
            self._r_cache[key] = r
            if len(self._r_cache) > 65536:
                self._r_cache.clear()
        return r

    def curvature_drift(self, lam: str, mu: str, x, y: float) -> np.ndarray:
        """d_i = tr(A D^2 Q_i) at the original-coordinate point (x, y)."""
        a = self.problem.coeffs.entry(lam, mu).diffusion_at(np.append(np.atleast_1d(x), y))
        d2q = self.dmap.d2q(x, y)
        return np.array([float(np.sum(a * d2q[i])) for i in range(self.n + 1)])

    def sigma_hat(self, lam: str, mu: str, z, y: float) -> np.ndarray:
        p = self.dmap.forward(z, y)
        s = self.problem.coeffs.entry(lam, mu).sigma_at(p)
        return s @ self._r_at(z, y).T

    def diffusion_hat(self, lam: str, mu: str, z, y: float) -> np.ndarray:
        s = self.sigma_hat(lam, mu, z, y)
        return s.T @ s

    def b_hat(self, lam: str, mu: str, z, y: float) -> np.ndarray:
        p = self.dmap.forward(z, y)
        b = self.problem.coeffs.entry(lam, mu).drift_at(p)
        d = self.curvature_drift(lam, mu, p[: self.n], y)
        return b @ self._r_at(z, y).T + d

    def c_hat(self, lam: str, mu: str, z, y: float) -> float:
        return self.problem.coeffs.entry(lam, mu).c_at(self.dmap.forward(z, y))

    def f_hat(self, lam: str, mu: str, z, y: float) -> float:
        return self.problem.coeffs.entry(lam, mu).f_at(self.dmap.forward(z, y))


def pushforward(problem: ThinProblem, dmap: DistortionMap) -> HatOperator:
    return HatOperator(problem=problem, dmap=dmap)


@dataclass
class HatBoundary:
    problem: ThinProblem
    dmap: DistortionMap

    def gamma_hat_plus(self, z, y: float) -> np.ndarray:
        p = self.dmap.forward(z, y)
        g = self.problem.bdata.gamma_plus(p[:-1], p[-1])
        return g @ matrix_r(self.dmap, z, y).T

    def gamma_hat_minus(self, z, y: float) -> np.ndarray:
        p = self.dmap.forward(z, y)
        g = self.problem.bdata.gamma_minus(p[:-1], p[-1])
        return g @ matrix_r(self.dmap, z, y).T

    def beta_hat_plus(self, z, y: float) -> float:
        p = self.dmap.forward(z, y)
        return self.problem.bdata.beta_plus(p[:-1], p[-1])

    def beta_hat_minus(self, z, y: float) -> float:
        p = self.dmap.forward(z, y)
        return self.problem.bdata.beta_minus(p[:-1], p[-1])

    def check_exactness(self, samples: int = 9) -> float:
        """Max deviation of the structural identities on a lattice.

        The last component of gamma^ must equal +-1 exactly, and the first
        N components must vanish at y = 0 (the +-gamma(z) cancellation).
        Returns the worst deviation found.
        """
        n = self.problem.n
        worst = 0.0
        pts = _inflated_lattice(self.problem, 0.0, samples)
        ys = np.linspace(-self.dmap.r, self.dmap.r, 5)
        for z in pts:
            for y in ys:
                gp = self.gamma_hat_plus(z, y)
                gm = self.gamma_hat_minus(z, y)
                worst = max(worst, abs(gp[n] - 1.0), abs(gm[n] + 1.0))
            gp0 = self.gamma_hat_plus(z, 0.0)
            gm0 = self.gamma_hat_minus(z, 0.0)
            worst = max(worst, float(np.abs(gp0[:n]).max()), float(np.abs(gm0[:n]).max()))
        return worst


def hat_boundary(problem: ThinProblem, dmap: DistortionMap) -> HatBoundary:
    return HatBoundary(problem=problem, dmap=dmap)


@dataclass
class TransplantReport:
    margin: float
    witness: tuple
    crosscheck_max_diff: float
    passed: bool
    tolerance: float = 1e-9

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} transplanted ellipticity: margin={self.margin:.6g}, "
            f"two-sided agreement {self.crosscheck_max_diff:.3e} (tolerance {self.tolerance:g})"
        )


def transplant_ellipticity(
    problem: ThinProblem, dmap: DistortionMap, samples_per_axis: int = 16
) -> TransplantReport:
    """Margin of the hatted interior condition, cross-checked two ways.

    In distorted coordinates gamma0 vanishes, so the certificate vector is
    (Ds(z), 0); the hatted quadratic form must equal
    (Ds, -Ds gamma^T) A(z, 0) (Ds, -Ds gamma^T)^T, which is exactly the
    original interior certificate integrand.
    """
    hat = pushforward(problem, dmap)
    lo, hi = dmap.omega_hat
    axes = [np.linspace(a, b, samples_per_axis + 1) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    margin = math.inf
    witness = None
    worst_diff = 0.0
    n = problem.n
    for z in pts:
        ds = problem.bdata.s_candidate.grad(z)
        v_hat = np.append(ds, 0.0)
        g = dmap.gamma.value(z)
        v_orig = np.append(ds, -float(ds @ g))
        for lam, mu in problem.control_pairs():
            lhs = float(v_hat @ hat.diffusion_hat(lam, mu, z, 0.0) @ v_hat)
            a0 = problem.coeffs.entry(lam, mu).diffusion_at(np.append(z, 0.0))
            rhs = float(v_orig @ a0 @ v_orig)
            worst_diff = max(worst_diff, abs(lhs - rhs))
            if lhs < margin:
                margin = lhs
                witness = (tuple(float(v) for v in np.round(np.atleast_1d(z), 12)), lam, mu)
    return TransplantReport(
        margin=margin,
        witness=witness,
        crosscheck_max_diff=worst_diff,
        passed=worst_diff <= 1e-9,
    )
