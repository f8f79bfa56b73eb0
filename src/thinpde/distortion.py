"""Coordinate distortion flattening the oblique directions.

The map P(z, y) = (z + y*gamma(z), y) straightens the boundary fields: in
the new coordinates the oblique data behaves like the gamma0 = 0 case.  Its
inverse Q is computed by the contraction iteration z <- x - y*gamma(z),
which converges because r is selected so that sup |y Dgamma| <= 1/2 on the
working slab.  The distorted top/bottom boundaries become graphs of
implicit profiles solving y = eps*g(z + y*gamma(z)), found by safeguarded
Newton (exact Dg, bisection fallback) on a strictly increasing scalar
function.

Pushing the operator through P yields hatted coefficients

    sigma^ = (sigma o P) R^T,      R = DQ o P,
    b^     = (b o P) R^T + d o P,  d_i = tr(A D^2 Q_i),
    c^ = c o P,  f^ = f o P,

where D^2 Q comes from differentiating z + y gamma(z) = x twice at the
preimage z, with the exact first and second derivatives of gamma (it is
zero when gamma is constant, since Q is then affine).

The map, its inverse, R, the Hessians of Q, the implicit profiles and the
hatted data take base points (m, N) and heights (m,) only, and the
contraction's tolerance and cap are module constants; a batched inverse
gives each point the iterates it would get alone.  The hatted operator and
boundary data are functions of the problem and the map,
:func:`hat_coefficients` and :func:`hat_oblique`; :func:`check_exactness`
reports the straightened boundary data as a
:class:`thinpde.problem.ToleranceCheck`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import ExprError, ScalarField
from .problem import (
    Coefficients,
    EpsOutOfRangeError,
    ThinProblem,
    ToleranceCheck,
    box_lattice,
    quadratic_form,
    row_dot,
    row_matmul,
    strip_lattice,
    strip_points,
    worst_node,
)

_R_FLOOR = 2.0**-40
# the contraction for Q stops at an update of this size, or fails after this many iterations
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITER = 200
# the hatted identities hold exactly, so a deviation above roundoff is a defect
_EXACTNESS_TOL = 1e-12
# the hatted and the original interior quadratic forms agree up to roundoff
_TRANSPLANT_TOL = 1e-9


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


# every way building or checking a map can fail on valid input; callers map these to exit 1
DISTORTION_ERRORS = (NoConvergenceError, SingularJacobianError, ExprError, EpsOutOfRangeError)


@dataclass
class DistortionMap:
    """P(z,y) = (z + y gamma(z), y) on the slab |y| <= r, with its inverse."""

    gamma: object  # VectorField with N components on the base variables
    r: float
    gamma_sup: float = 0.0
    dgamma_sup: float = 0.0
    omega_hat: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    @property
    def n(self) -> int:
        return len(self.gamma)

    def forward(self, z, y) -> np.ndarray:
        """P(z, y) at points z (m, N) with y (m,)."""
        return strip_points(z + y[:, None] * self.gamma.value(z), y)

    def inverse(self, x, y) -> np.ndarray:
        """z with z + y gamma(z) = x, via the contraction z <- x - y gamma(z).

        The update size bounds the fixed-point residual (up to the
        contraction factor), so stopping at _FIXED_POINT_TOL leaves
        |z + y gamma(z) - x| <= _FIXED_POINT_TOL.  x is (m, N) and y (m,);
        each point stops at its own first small update.
        """
        z = x.copy()
        active = np.arange(len(x))
        for _ in range(_FIXED_POINT_MAX_ITER):
            if not active.size:
                break
            z_next = x[active] - y[active, None] * self.gamma.value(z[active])
            step = np.abs(z_next - z[active]).max(axis=1)
            z[active] = z_next
            active = active[~(step <= _FIXED_POINT_TOL)]
        if active.size:
            residual = np.abs(z[active] + y[active, None] * self.gamma.value(z[active]) - x[active]).max(axis=1)
            stalled = ~(residual <= _FIXED_POINT_TOL)
            if stalled.any():
                raise NoConvergenceError(_FIXED_POINT_MAX_ITER, float(residual[stalled][0]))
        return z

    def d2q(self, z, y, r) -> np.ndarray:
        """Hessians of the components of Q at P(z, y), from the preimage z: no inversion.

        z is (m, N), y (m,) and ``r`` is ``matrix_r(self, z, y)``; the result
        is (m, N+1, N+1, N+1).  With M = I + y Dgamma(z) and d_i z the first
        N rows of R = DQ,
        M d_i d_j z = -(y D^2gamma[d_i z, d_j z] + [j = y] Dgamma d_i z + [i = y] Dgamma d_j z).
        The last component of Q is y, whose Hessian vanishes.
        """
        n = self.n
        out = np.zeros((len(z), n + 1, n + 1, n + 1))
        if not self.gamma.is_constant:
            dz = r[:, :n]  # (m, N, N+1)
            d2gamma = np.stack([c.hess(z) for c in self.gamma.components], axis=1)
            rhs = y[:, None, None, None] * np.einsum("mkab,mai,mbj->mkij", d2gamma, dz, dz)
            jdz = self.gamma.jacobian(z) @ dz
            rhs[:, :, :, n] += jdz
            rhs[:, :, n, :] += jdz
            out[:, :n] = -np.einsum("mkl,mlij->mkij", r[:, :n, :n], rhs)
        return out


def build_map(problem: ThinProblem) -> DistortionMap:
    """Select the slab half-height r and assemble the map for gamma = gamma0.

    r is the largest value in {1/2, 1/4, ...} with sup |y Dgamma| <= 1/2
    (the contraction certificate) and r |Dg| |gamma| <= 1/2 (monotonicity of
    the profile equations).  Norms are sampled on a 17-node-per-axis lattice
    over the base box inflated by 1, which covers the excursions of the
    contraction iterates.
    """
    gamma = problem.bdata.gamma0
    pts = box_lattice(np.asarray(problem.geom.lower) - 1.0, np.asarray(problem.geom.upper) + 1.0, 16)

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
    lo = tuple(l - r * gamma_sup for l in problem.geom.lower)
    hi = tuple(u + r * gamma_sup for u in problem.geom.upper)
    return DistortionMap(
        gamma=gamma,
        r=r,
        gamma_sup=gamma_sup,
        dgamma_sup=dgamma_sup,
        omega_hat=(lo, hi),
    )


def matrix_r(dmap: DistortionMap, z, y) -> np.ndarray:
    """Block matrix [[(I + y Dgamma)^-1, -(I + y Dgamma)^-1 gamma^T], [0, 1]] at z (m, N), y (m,); shape (m, N+1, N+1)."""
    n = dmap.n
    m = np.eye(n) + y[:, None, None] * dmap.gamma.jacobian(z)
    singular = np.abs(np.linalg.det(m)) < 1e-14
    if singular.any():
        i = np.flatnonzero(singular)[0]
        raise SingularJacobianError(f"I + y Dgamma numerically singular at z={tuple(z[i])}, y={y[i]}")
    minv = np.linalg.inv(m)
    out = np.zeros((len(z), n + 1, n + 1))
    out[:, :n, :n] = minv
    out[:, :n, n] = (-minv @ dmap.gamma.value(z)[:, :, None])[:, :, 0]
    out[:, n, n] = 1.0
    return out


def top_profile(dmap: DistortionMap, g: ScalarField, eps: float, z):
    """Unique y in [-r, r] with y = eps * g(z + y gamma(z)), by safeguarded Newton.

    With g = g+ this is the distorted top boundary, with g = g- the bottom.
    f(y) = y - eps g(z + y gamma(z)) is strictly increasing on [-r, r].
    From y = 0, each step shrinks the bracket [lo, hi] by the sign of f and
    takes the Newton step y - f/f', f' = 1 - eps Dg(z + y gamma(z)) . gamma(z),
    when f' > 0 and the step lands strictly inside the bracket; otherwise it
    bisects.  A constant g gives eps*g exactly, after one step.

    z shaped (m, N) gives (m,), each point stopping on its own test
    (|f| <= 1e-12 or a bracket narrower than 1e-16).
    """
    gz = dmap.gamma.value(z)

    def f(idx: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y - eps * g.value(z[idx] + y[:, None] * gz[idx])

    active = np.arange(len(z))
    lo = np.full(len(z), -dmap.r)
    hi = np.full(len(z), dmap.r)
    if (f(active, lo) > 0.0).any() or (f(active, hi) < 0.0).any():
        raise EpsOutOfRangeError(
            f"profile equation not bracketed on [-r, r]; need eps*sup|g| <= r (eps={eps}, r={dmap.r})"
        )
    y = np.zeros(len(z))
    for _ in range(200):
        ya = y[active]
        fy = f(active, ya)
        up = fy > 0.0
        hi[active] = np.where(up, ya, hi[active])
        lo[active] = np.where(up, lo[active], ya)
        keep = ~(np.abs(fy) <= 1e-12) & ~(hi[active] - lo[active] < 1e-16)
        active, ya, fy = active[keep], ya[keep], fy[keep]
        if not active.size:
            break
        slope = 1.0 - eps * row_dot(g.grad(z[active] + ya[:, None] * gz[active]), gz[active])
        newton = slope > 0.0
        step = ya - np.divide(fy, slope, out=np.zeros_like(fy), where=newton)
        inside = newton & (lo[active] < step) & (step < hi[active])
        y[active] = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
    return y


# --- pushed-forward operator and boundary data -------------------------------


def hat_coefficients(problem: ThinProblem, dmap: DistortionMap, z, y) -> Coefficients:
    """sigma^, A^, b^, c^, f^ of every control pair at distorted points z (m, N), y (m,).

    The drift is (b o P) R^T + d o P.  The R^T factor is required for the
    exact chain-rule identity F(D^2(w o Q), ...) = F^(D^2 w, ...); dropping
    it breaks the identity whenever gamma and b are both nonzero.
    """
    base = problem.coefficients(dmap.forward(z, y))
    r = matrix_r(dmap, z, y)
    r_t = np.swapaxes(r, -1, -2)[:, None, None]
    sigma = base.sigma @ r_t
    # the curvature drift d_i = tr(A D^2 Q_i)
    curvature = (base.a[..., None, :, :] * dmap.d2q(z, y, r)[:, None, None]).sum(axis=(-2, -1))
    drift = row_matmul(base.b, r_t) + curvature
    return Coefficients(sigma, np.swapaxes(sigma, -1, -2) @ sigma, drift, base.c, base.f)


def hat_oblique(problem: ThinProblem, dmap: DistortionMap, sign: float, z, y) -> tuple[np.ndarray, np.ndarray]:
    """(gamma^, beta^) on the top (sign +1) or the bottom (sign -1) at distorted points z (m, N), y (m,).

    The original data of :meth:`BoundaryData.oblique` at P(z, y), with gamma^ = gamma R^T.
    """
    p = dmap.forward(z, y)
    gamma, beta = problem.bdata.oblique(sign, p[:, :-1], p[:, -1])
    return row_matmul(gamma, np.swapaxes(matrix_r(dmap, z, y), -1, -2)), beta


def check_exactness(problem: ThinProblem, dmap: DistortionMap) -> ToleranceCheck:
    """Worst deviation of the structural identities of :func:`hat_oblique` on a lattice, and the first node where it occurs.

    The last component of gamma^ must equal +-1 exactly on the slab, and
    the first N components must vanish at y = 0 (the +-gamma(z)
    cancellation), on both sides over 9 base nodes per axis and 5 levels.
    """
    n = problem.n
    pts = box_lattice(problem.geom.lower, problem.geom.upper, 8)
    x_idx, y = strip_lattice(pts, -dmap.r, dmap.r, 4)
    z = pts[x_idx]
    deviation = np.zeros(len(y))
    for sign in (1.0, -1.0):
        gamma = hat_oblique(problem, dmap, sign, z, y)[0]
        head = np.where(y == 0.0, np.abs(gamma[:, :n]).max(axis=1), 0.0)
        deviation = np.maximum.reduce([deviation, np.abs(gamma[:, n] - sign), head])
    return ToleranceCheck.of("straightened boundary data: max deviation", deviation, strip_points(z, y), _EXACTNESS_TOL)


@dataclass
class TransplantReport:
    margin: float
    witness: tuple
    crosscheck_max_diff: float
    passed: bool

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} transplanted ellipticity: margin={self.margin:.6g}, "
            f"two-sided agreement {self.crosscheck_max_diff:.3e} (tolerance {_TRANSPLANT_TOL:g})"
        )


def transplant_ellipticity(problem: ThinProblem, dmap: DistortionMap) -> TransplantReport:
    """Margin of the hatted interior condition, cross-checked two ways, on the 16-interval lattice of omega_hat.

    In distorted coordinates gamma0 vanishes, so the certificate vector is
    (Ds(z), 0); the hatted quadratic form must equal
    (Ds, -Ds gamma^T) A(z, 0) (Ds, -Ds gamma^T)^T, which is exactly the
    original interior certificate integrand.
    """
    pts = box_lattice(*dmap.omega_hat, 16)
    y0 = np.zeros(len(pts))
    ds = problem.bdata.s_candidate.grad(pts)
    v_hat = strip_points(ds, y0)
    v_orig = strip_points(ds, -row_dot(ds, dmap.gamma.value(pts)))
    lhs = quadratic_form(v_hat[:, None, None], hat_coefficients(problem, dmap, pts, y0).a)
    rhs = quadratic_form(v_orig[:, None, None], problem.coefficients(strip_points(pts, y0)).a)
    worst_diff = float(np.abs(lhs - rhs).max(initial=0.0))
    margin, witness = worst_node(lhs, pts, False, problem.controls)
    return TransplantReport(
        margin=margin,
        witness=witness,
        crosscheck_max_diff=worst_diff,
        passed=worst_diff <= _TRANSPLANT_TOL,
    )
