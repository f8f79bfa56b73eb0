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

Maps take one point or an array of points; a batched inverse gives each
point the iterates it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import ScalarField
from .problem import Coefficients, ThinProblem, box_lattice, quadratic_form, row_dot, row_matmul, strip_points

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

    # z or x is one point (N,) with a float y, or (m, N) with y shaped (m,)

    def forward(self, z, y) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        y = np.asarray(y, dtype=float)
        return strip_points(z + y[..., None] * self.gamma.value(z), y)

    def inverse(self, x, y) -> np.ndarray:
        """z with z + y gamma(z) = x, via the contraction z <- x - y gamma(z).

        The update size bounds the fixed-point residual (up to the
        contraction factor), so stopping at tol_fixed_point leaves
        |z + y gamma(z) - x| <= tol_fixed_point.  Each point of a batch
        stops at its own first small update.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        single = x.ndim == 1
        x = np.atleast_2d(x)
        y = np.broadcast_to(np.asarray(y, dtype=float).reshape(-1), (len(x),))
        z = x.copy()
        active = np.arange(len(x))
        for _ in range(self.max_iter):
            if not active.size:
                break
            z_next = x[active] - y[active, None] * self.gamma.value(z[active])
            step = np.abs(z_next - z[active]).max(axis=1)
            z[active] = z_next
            active = active[~(step <= self.tol_fixed_point)]
        if active.size:
            residual = np.abs(z[active] + y[active, None] * self.gamma.value(z[active]) - x[active]).max(axis=1)
            stalled = ~(residual <= self.tol_fixed_point)
            if stalled.any():
                raise NoConvergenceError(self.max_iter, float(residual[stalled][0]))
        return z[0] if single else z

    def d2q(self, x, y, step: float = D2Q_STEP) -> np.ndarray:
        """Hessians of the inverse components; shape (N+1, N+1, N+1) per point.

        Component N+1 of Q is the identity in y, so its Hessian vanishes;
        a constant gamma makes Q affine and the whole array zero.  The
        difference stencils of all points are inverted in one call.
        """
        n = self.n
        p0 = strip_points(np.atleast_1d(np.asarray(x, dtype=float)), y)
        single = p0.ndim == 1
        p0 = np.atleast_2d(p0)
        m = len(p0)
        out = np.zeros((m, n + 1, n + 1, n + 1))
        if self.is_constant:
            return out[0] if single else out

        def shifted(*moves):
            q = p0.copy()
            for axis, delta in moves:
                q[:, axis] += delta
            return q

        signs = [(si, sj) for si in (1.0, -1.0) for sj in (1.0, -1.0)]
        stencil = [p0]
        for i in range(n + 1):
            stencil += [shifted((i, step)), shifted((i, -step))]
            for j in range(i + 1, n + 1):
                stencil += [shifted((i, si * step), (j, sj * step)) for si, sj in signs]
        pts = np.concatenate(stencil)
        zeta = iter(self.inverse(pts[:, :n], pts[:, n]).reshape(len(stencil), m, n))
        center = next(zeta)
        for i in range(n + 1):
            plus, minus = next(zeta), next(zeta)
            out[:, :n, i, i] = (plus - 2 * center + minus) / step**2
            for j in range(i + 1, n + 1):
                acc = np.zeros((m, n))
                for si, sj in signs:
                    acc += si * sj * next(zeta)
                mixed = acc / (4 * step * step)
                out[:, :n, i, j] = mixed
                out[:, :n, j, i] = mixed
        return out[0] if single else out


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
    pts = box_lattice(np.asarray(problem.geom.lower) - pad, np.asarray(problem.geom.upper) + pad, samples - 1)

    def sup_norm(v: np.ndarray) -> float:
        return float(np.sqrt(row_dot(v, v)).max())

    gamma_sup = sup_norm(gamma.value(pts))
    dgamma_sup = float(np.linalg.norm(gamma.jacobian(pts), 2, axis=(-2, -1)).max())
    dg_sup = max(sup_norm(problem.geom.g_plus.grad(pts)), sup_norm(problem.geom.g_minus.grad(pts)))
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


def matrix_r(dmap: DistortionMap, z, y) -> np.ndarray:
    """Block matrix [[(I + y Dgamma)^-1, -(I + y Dgamma)^-1 gamma^T], [0, 1]].

    One point gives (N+1, N+1); z shaped (m, N) with y (m,) gives (m, N+1, N+1).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    y = np.broadcast_to(np.asarray(y, dtype=float), z.shape[:-1])
    n = dmap.n
    m = np.eye(n) + y[..., None, None] * dmap.gamma.jacobian(z)
    singular = np.abs(np.linalg.det(m)) < 1e-14
    if singular.any():
        i = np.unravel_index(np.flatnonzero(singular)[0], singular.shape)
        raise SingularJacobianError(f"I + y Dgamma numerically singular at z={tuple(z[i])}, y={y[i]}")
    minv = np.linalg.inv(m)
    out = np.zeros(z.shape[:-1] + (n + 1, n + 1))
    out[..., :n, :n] = minv
    out[..., :n, n] = (-minv @ dmap.gamma.value(z)[..., None])[..., 0]
    out[..., n, n] = 1.0
    return out


def top_profile(dmap: DistortionMap, g: ScalarField, eps: float, z):
    """Unique y in [-r, r] with y = eps * g(z + y gamma(z)), by bisection.

    One base point gives a float; z shaped (m, N) gives (m,), each point
    bisecting its own bracket until it stops.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    single = z.ndim == 1
    z = np.atleast_2d(z)
    gz = dmap.gamma.value(z)

    def f(idx: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - eps * g.value(z[idx] + y[:, None] * gz[idx])

    active = np.arange(len(z))
    lo = np.full(len(z), -dmap.r)
    hi = np.full(len(z), dmap.r)
    if (f(active, lo) > 0.0).any() or (f(active, hi) < 0.0).any():
        raise ValueError(
            f"profile equation not bracketed on [-r, r]; need eps*sup|g| <= r (eps={eps}, r={dmap.r})"
        )
    y = np.empty(len(z))
    for _ in range(200):
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        fm = f(active, mid)
        y[active] = mid
        open_ = ~(np.abs(fm) <= 1e-12)
        hi[active] = np.where(open_ & (fm > 0.0), mid, hi[active])
        lo[active] = np.where(open_ & ~(fm > 0.0), mid, lo[active])
        active = active[open_ & ~(hi[active] - lo[active] < 1e-16)]
    y[active] = 0.5 * (lo[active] + hi[active])
    return float(y[0]) if single else y


# the bottom profile solves the same equation with g-
bottom_profile = top_profile


# --- pushed-forward operator and boundary data -------------------------------


def _curvature_drift(a: np.ndarray, d2q: np.ndarray) -> np.ndarray:
    """d_i = tr(A D^2 Q_i) for a bundle's a (m, nL, nM, d, d) and d2q (m, d, d, d)."""
    return (a[..., None, :, :] * d2q[:, None, None]).sum(axis=(-2, -1))


@dataclass
class HatOperator:
    """Per-control coefficients of the operator in distorted coordinates.

    The drift is (b o P) R^T + d o P.  The R^T factor is required for the
    exact chain-rule identity F(D^2(w o Q), ...) = F^(D^2 w, ...); dropping
    it breaks the identity whenever gamma and b are both nonzero.
    """

    problem: ThinProblem
    dmap: DistortionMap

    def coefficients(self, z, y) -> Coefficients:
        """sigma^, A^, b^, c^, f^ of every control pair at distorted points z (m, N), y (m,)."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        y = np.broadcast_to(np.asarray(y, dtype=float).reshape(-1), (len(z),))
        p = self.dmap.forward(z, y)
        base = self.problem.coefficients(p)
        r_t = np.swapaxes(matrix_r(self.dmap, z, y), -1, -2)[:, None, None]
        sigma = base.sigma @ r_t
        drift = row_matmul(base.b, r_t) + _curvature_drift(base.a, self.dmap.d2q(p[:, :-1], y))
        return Coefficients(sigma, np.swapaxes(sigma, -1, -2) @ sigma, drift, base.c, base.f)

    def _one(self, lam: str, mu: str, z, y: float) -> Coefficients:
        return self.coefficients(z, y).pair(*self.problem.controls.index(lam, mu))

    def curvature_drift(self, lam: str, mu: str, x, y: float) -> np.ndarray:
        """d_i = tr(A D^2 Q_i) at the original-coordinate point (x, y)."""
        p = strip_points(np.atleast_1d(np.asarray(x, dtype=float)), y)[None]
        a = self.problem.coefficients(p).pair(*self.problem.controls.index(lam, mu)).a
        return _curvature_drift(a, self.dmap.d2q(p[:, :-1], p[:, -1]))[0, 0, 0]

    def sigma_hat(self, lam: str, mu: str, z, y: float) -> np.ndarray:
        return self._one(lam, mu, z, y).sigma[0, 0, 0]

    def diffusion_hat(self, lam: str, mu: str, z, y: float) -> np.ndarray:
        return self._one(lam, mu, z, y).a[0, 0, 0]

    def b_hat(self, lam: str, mu: str, z, y: float) -> np.ndarray:
        return self._one(lam, mu, z, y).b[0, 0, 0]

    def c_hat(self, lam: str, mu: str, z, y: float) -> float:
        return float(self._one(lam, mu, z, y).c[0, 0, 0])

    def f_hat(self, lam: str, mu: str, z, y: float) -> float:
        return float(self._one(lam, mu, z, y).f[0, 0, 0])


def pushforward(problem: ThinProblem, dmap: DistortionMap) -> HatOperator:
    return HatOperator(problem=problem, dmap=dmap)


@dataclass
class HatBoundary:
    problem: ThinProblem
    dmap: DistortionMap

    # one point (z (N,), a float y) or many (z (m, N), y (m,))

    def _original(self, z, y) -> tuple[np.ndarray, np.ndarray]:
        p = self.dmap.forward(z, y)
        return p[..., :-1], p[..., -1]

    def _hatted(self, gamma: np.ndarray, z, y) -> np.ndarray:
        return row_matmul(gamma, np.swapaxes(matrix_r(self.dmap, z, y), -1, -2))

    def gamma_hat_plus(self, z, y) -> np.ndarray:
        return self._hatted(self.problem.bdata.gamma_plus(*self._original(z, y)), z, y)

    def gamma_hat_minus(self, z, y) -> np.ndarray:
        return self._hatted(self.problem.bdata.gamma_minus(*self._original(z, y)), z, y)

    def beta_hat_plus(self, z, y):
        return self.problem.bdata.beta_plus(*self._original(z, y))

    def beta_hat_minus(self, z, y):
        return self.problem.bdata.beta_minus(*self._original(z, y))

    def check_exactness(self, samples: int = 9) -> float:
        """Max deviation of the structural identities on a lattice.

        The last component of gamma^ must equal +-1 exactly, and the first
        N components must vanish at y = 0 (the +-gamma(z) cancellation).
        Returns the worst deviation found.
        """
        n = self.problem.n
        pts = box_lattice(self.problem.geom.lower, self.problem.geom.upper, samples - 1)
        ys = np.linspace(-self.dmap.r, self.dmap.r, 5)
        z, y = np.repeat(pts, len(ys), axis=0), np.tile(ys, len(pts))
        y0 = np.zeros(len(pts))
        return max(
            0.0,
            float(np.abs(self.gamma_hat_plus(z, y)[:, n] - 1.0).max()),
            float(np.abs(self.gamma_hat_minus(z, y)[:, n] + 1.0).max()),
            float(np.abs(self.gamma_hat_plus(pts, y0)[:, :n]).max()),
            float(np.abs(self.gamma_hat_minus(pts, y0)[:, :n]).max()),
        )


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
    pts = box_lattice(*dmap.omega_hat, samples_per_axis)
    y0 = np.zeros(len(pts))
    ds = problem.bdata.s_candidate.grad(pts)
    v_hat = strip_points(ds, y0)
    v_orig = strip_points(ds, -row_dot(ds, dmap.gamma.value(pts)))
    lhs = quadratic_form(v_hat[:, None, None], hat.coefficients(pts, y0).a)
    rhs = quadratic_form(v_orig[:, None, None], problem.coefficients(strip_points(pts, y0)).a)
    worst_diff = float(np.abs(lhs - rhs).max(initial=0.0))
    # the first minimum in (node, lambda, mu) order
    k, il, im = np.unravel_index(int(np.argmin(lhs)), lhs.shape)
    margin = float(lhs[k, il, im])
    witness = (
        tuple(float(v) for v in np.round(pts[k], 12)),
        problem.controls.min_labels[il],
        problem.controls.max_labels[im],
    )
    return TransplantReport(
        margin=margin,
        witness=witness,
        crosscheck_max_diff=worst_diff,
        passed=worst_diff <= 1e-9,
    )
