"""Strict super/subsolution barriers with automated parameter selection.

For gamma0 = 0 the barriers are explicit:

    psi_bar(x,y)  =  rho(x) + beta0(x) y + alpha*Lambda*chi(x) (y - eps h(x))^2
    psi_low(x,y)  = -rho(x) + beta0(x) y - alpha*Lambda*chi(x) (y - eps h(x))^2

with chi = exp(alpha * s~), rho = C_D + C_alpha - chi, s~ the certificate
potential shifted to min 0 and rescaled so (Ds~,0) A (Ds~,0)^T >= 1 on a
slab of half-height r, and g- < h < g+.  The parameter search follows the
fixed order Lambda (top/bottom oblique margins), then alpha (interior
operator sign), then C_D (positivity), then eps1, each by doubling capped
at 2^40; all seven strictness margins are then verified on a lattice, at
two distinct eps and two grid resolutions.  The hidden constants of the
asymptotic bookkeeping are data dependent, so measured margins replace
them throughout.

For general gamma0 the same construction runs in distorted coordinates
(where the hatted oblique data has zero horizontal part) and the barriers
are pulled back through the inverse map with chain-rule derivatives.

The barrier formulas and their first and second derivatives are written
once, in ``_barrier_arrays``, over arrays of strip nodes.  Every barrier
side (explicit or pulled back) evaluates batches of nodes; its scalar
``value``/``grad``/``hess`` are one-row calls.  The seven margins have one
evaluator, ``_MarginEngine.margins_of``: the parameter search feeds it the
formula arrays directly and :func:`verify_barrier` feeds it the arrays of
any pair's sides, over the view's coefficient bundle at all strip nodes at
once; the operator is :func:`thinpde.problem.operator_infsup`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distortion import DistortionMap, build_map, hat_boundary, matrix_r, pushforward, top_profile, bottom_profile
from .problem import Coefficients, ThinProblem, box_lattice, operator_infsup, quadratic_form, row_dot, strip_points

__all__ = [
    "PreconditionViolatedError",
    "SearchExhaustedError",
    "BarrierParams",
    "BarrierMargins",
    "BarrierPair",
    "StripView",
    "flat_view",
    "hat_view",
    "build_barrier",
    "verify_barrier",
    "search_parameters",
    "general_barrier",
    "GeneralBarrier",
    "SEARCH_CAP",
]

SEARCH_CAP = 2.0**40


class PreconditionViolatedError(ValueError):
    """gamma0 is not identically zero on the sampled lattice."""


class SearchExhaustedError(RuntimeError):
    def __init__(self, inequality: str):
        self.inequality = inequality
        super().__init__(
            f"barrier parameter search exhausted its budget on: {inequality} "
            "(ellipticity margin too thin or budget too small)"
        )


@dataclass(frozen=True)
class BarrierParams:
    alpha: float
    lam: float  # Lambda
    c_d: float
    eps1: float
    r: float
    kappa: float = 1.0  # potential rescale so the slab form is >= 1
    s_shift: float = 0.0  # subtracted so min s~ = 0
    s_sup: float = 0.0  # max of s~ on the lattice; C_alpha = exp(alpha * s_sup)

    @property
    def c_alpha(self) -> float:
        return math.exp(self.alpha * self.s_sup)

    def format(self) -> str:
        return (
            f"alpha={self.alpha:g} Lambda={self.lam:g} C_D={self.c_d:g} "
            f"eps1={self.eps1:.6g} r={self.r:g} kappa={self.kappa:.6g} C_alpha={self.c_alpha:.6g}"
        )


@dataclass
class BarrierMargins:
    """Minimum margins of the seven strictness inequalities on a lattice."""

    m1: float  # gamma+ . D psi_bar - beta+ on the top
    m2: float  # gamma- . D psi_bar - beta- on the bottom
    m3: float  # F(D^2 psi_bar, ...) on the closed strip
    m4: float  # -(gamma+ . D psi_low - beta+) on the top
    m5: float  # -(gamma- . D psi_low - beta-) on the bottom
    m6: float  # -F(D^2 psi_low, ...) on the closed strip
    m7: float  # min (psi_bar - psi_low)
    bound_c: float  # sandwich constant C with |psi| < C
    psi_bar_min: float
    psi_low_max: float
    eps: float
    grid: tuple[int, int]
    m3_cfree: float = math.nan  # interior margins with the c r term dropped
    m6_cfree: float = math.nan

    @property
    def values(self) -> tuple[float, ...]:
        return (self.m1, self.m2, self.m3, self.m4, self.m5, self.m6, self.m7)

    @property
    def passed(self) -> bool:
        return all(v > 0.0 for v in self.values)

    def format(self) -> str:
        names = ["m1 top+", "m2 bot+", "m3 F>0", "m4 top-", "m5 bot-", "m6 F<0", "m7 gap"]
        lines = [f"margins at eps={self.eps:.6g}, lattice {self.grid[0]}x{self.grid[1]}:"]
        for name, v in zip(names, self.values):
            lines.append(f"  {name:8s} {v: .6e} {'ok' if v > 0 else 'VIOLATED'}")
        lines.append(f"  sandwich constant C = {self.bound_c:.6g}")
        return "\n".join(lines)


# --- views -------------------------------------------------------------------


@dataclass
class StripView:
    """Uniform access to a thin problem in flat or distorted coordinates.

    ``coefficients(x, y)`` bundles every control pair at base points x (m, N)
    and heights y (m,); the other accessors also take one point (x (N,), a
    float y).  ``top_y``/``bottom_y`` give the top and bottom boundary heights
    over base points for a given eps (eps*g+- in flat coordinates, the
    implicit profiles in distorted ones).
    """

    n: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    min_labels: tuple[str, ...]
    max_labels: tuple[str, ...]
    eps0: float
    g_sup: float
    r_cap: float
    coefficients: object  # (x, y) -> Coefficients
    gamma_top: object  # (x, y) -> (..., N+1)
    beta_top: object
    gamma_bottom: object
    beta_bottom: object
    top_y: object  # (x, eps) -> heights
    bottom_y: object
    beta0: object  # scalar fields with grad/hess
    s: object
    h: object
    gamma0_sup: float = 0.0

    def base_lattice(self, intervals: int) -> np.ndarray:
        return box_lattice(self.lower, self.upper, intervals)

    def strip_nodes(self, xs: np.ndarray, eps: float, ny: int) -> tuple[np.ndarray, np.ndarray]:
        """ny + 1 evenly spaced levels from the bottom to the top over each base node.

        Returns each strip node's index into ``xs`` and its height, base node by base node.
        """
        ys = np.linspace(self.bottom_y(xs, eps), self.top_y(xs, eps), ny + 1, axis=1)
        return np.repeat(np.arange(len(xs)), ny + 1), ys.ravel()

    def operator(self, X, p, r, x, y) -> float:
        """The operator at one strip point (x, y)."""
        coeffs = self.coefficients(np.atleast_2d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float)))
        return float(operator_infsup(coeffs, X, p, r)[0][0])


class _MidpointField:
    """(g+ + g-) / 2 with derivatives, the default barrier level h."""

    def __init__(self, g_plus, g_minus):
        self.g_plus = g_plus
        self.g_minus = g_minus

    def value(self, x):
        return 0.5 * (self.g_plus.value(x) + self.g_minus.value(x))

    def grad(self, x):
        return 0.5 * (self.g_plus.grad(x) + self.g_minus.grad(x))

    def hess(self, x):
        return 0.5 * (self.g_plus.hess(x) + self.g_minus.hess(x))


def _lattice_sup(problem: ThinProblem, *fields) -> float:
    """Largest |component| of the fields on the 16-interval base lattice."""
    base = problem.geom.lattice(16)
    return max(float(np.abs(fld.value(base)).max()) for fld in fields)


def flat_view(problem: ThinProblem) -> StripView:
    """View of the problem in its own coordinates (used when gamma0 = 0).

    Its ``gamma0_sup`` is the one scan of sup|gamma0| that callers consult
    to decide between the flat and the distorted construction.
    """
    geom = problem.geom
    bd = problem.bdata
    return StripView(
        n=geom.n,
        lower=geom.lower,
        upper=geom.upper,
        min_labels=problem.controls.min_labels,
        max_labels=problem.controls.max_labels,
        eps0=geom.epsilon0,
        g_sup=_lattice_sup(problem, geom.g_plus, geom.g_minus),
        r_cap=1.0,
        coefficients=lambda x, y: problem.coefficients(strip_points(x, y)),
        gamma_top=bd.gamma_plus,
        beta_top=bd.beta_plus,
        gamma_bottom=bd.gamma_minus,
        beta_bottom=bd.beta_minus,
        top_y=lambda x, eps: eps * geom.g_plus.value(x),
        bottom_y=lambda x, eps: eps * geom.g_minus.value(x),
        beta0=bd.beta0,
        s=bd.s_candidate,
        h=bd.h if bd.h is not None else _MidpointField(geom.g_plus, geom.g_minus),
        gamma0_sup=_lattice_sup(problem, bd.gamma0),
    )


def hat_view(problem: ThinProblem, dmap: DistortionMap) -> StripView:
    """View in distorted coordinates: hatted operator, straightened data.

    The base box is the original one inflated by r*sup|gamma| so that the
    preimages of the closed strip stay inside; the hatted gamma0 vanishes
    identically, so the Step-1 construction applies directly with the
    implicit profiles as top/bottom boundaries.
    """
    hat = pushforward(problem, dmap)
    hb = hat_boundary(problem, dmap)
    geom = problem.geom
    lo, hi = dmap.omega_hat
    g_sup = _lattice_sup(problem, geom.g_plus, geom.g_minus)
    eps0 = min(geom.epsilon0, dmap.r / g_sup if g_sup > 0 else geom.epsilon0)

    return StripView(
        n=geom.n,
        lower=lo,
        upper=hi,
        min_labels=problem.controls.min_labels,
        max_labels=problem.controls.max_labels,
        eps0=eps0,
        g_sup=g_sup,
        r_cap=dmap.r,
        coefficients=hat.coefficients,
        gamma_top=hb.gamma_hat_plus,
        beta_top=hb.beta_hat_plus,
        gamma_bottom=hb.gamma_hat_minus,
        beta_bottom=hb.beta_hat_minus,
        top_y=lambda z, eps: top_profile(dmap, geom.g_plus, eps, z),
        bottom_y=lambda z, eps: bottom_profile(dmap, geom.g_minus, eps, z),
        beta0=problem.bdata.beta0,
        s=problem.bdata.s_candidate,
        h=problem.bdata.h if problem.bdata.h is not None else _MidpointField(geom.g_plus, geom.g_minus),
        gamma0_sup=0.0,
    )


def as_strip_view(obj) -> StripView:
    if isinstance(obj, StripView):
        return obj
    return flat_view(obj)


# --- barrier formulas and the margin evaluator ---------------------------------


def _fields_at(view: StripView, xs: np.ndarray, derivatives: bool = True) -> list[tuple]:
    """(value, grad, hess) arrays of s, beta0 and h at the base points xs.

    Without ``derivatives`` the gradient and Hessian slots are None.
    """
    fields = (view.s, view.beta0, view.h)
    if derivatives:
        return [(fld.value(xs), fld.grad(xs), fld.hess(xs)) for fld in fields]
    return [(fld.value(xs), None, None) for fld in fields]


def _barrier_arrays(params: BarrierParams, eps: float, sign: float, y: np.ndarray, fields, derivatives: bool = True):
    """Value, gradient and Hessian of one barrier at m nodes (x, y).

    ``fields`` holds the :func:`_fields_at` arrays of s, beta0 and h at each
    node's base point x.  Without ``derivatives`` only the values are
    computed and returned.
    """
    (s_val, s_grad, s_hess), (b0, db0, d2b0), (hv, dh, d2h) = fields
    alpha = params.alpha
    al = alpha * params.lam
    chi = np.exp(alpha * (params.kappa * (s_val - params.s_shift)))
    rho = params.c_d + params.c_alpha - chi
    yh = y - eps * hv
    val = sign * rho + b0 * y + sign * al * chi * yh**2
    if not derivatives:
        return val

    s_g = params.kappa * s_grad
    s_h = params.kappa * s_hess
    dchi = alpha * chi[:, None] * s_g
    d2chi = chi[:, None, None] * (alpha**2 * np.einsum("mi,mj->mij", s_g, s_g) + alpha * s_h)
    m, n = s_g.shape
    grad = np.empty((m, n + 1))
    grad[:, :n] = (
        -sign * dchi
        + db0 * y[:, None]
        + sign * al * (dchi * (yh**2)[:, None] - 2 * eps * (chi * yh)[:, None] * dh)
    )
    grad[:, n] = b0 + sign * 2 * al * chi * yh
    hess = np.empty((m, n + 1, n + 1))
    sym = np.einsum("mi,mj->mij", dchi, dh) + np.einsum("mi,mj->mij", dh, dchi)
    hess[:, :n, :n] = (
        -sign * d2chi
        + d2b0 * y[:, None, None]
        + sign
        * al
        * (
            d2chi * (yh**2)[:, None, None]
            - 2 * eps * yh[:, None, None] * sym
            - 2 * eps * (chi * yh)[:, None, None] * d2h
            + 2 * eps**2 * chi[:, None, None] * np.einsum("mi,mj->mij", dh, dh)
        )
    )
    cross = db0 + sign * 2 * al * (dchi * yh[:, None] - eps * chi[:, None] * dh)
    hess[:, :n, n] = cross
    hess[:, n, :n] = cross
    hess[:, n, n] = sign * 2 * al * chi
    return val, grad, hess


@dataclass
class _StripData:
    eps: float
    x_idx: np.ndarray  # (m,) base-lattice index of each strip node
    ys: np.ndarray  # (m,)
    coeffs: Coefficients  # at the m nodes
    top_sel: np.ndarray  # (mt,) indices into the m nodes
    bottom_sel: np.ndarray
    gamma_t: np.ndarray  # (mt, N+1)
    beta_t: np.ndarray
    gamma_b: np.ndarray
    beta_b: np.ndarray


class _MarginEngine:
    """Strip lattices of one view, cached per eps, and the seven margins on them."""

    def __init__(self, view: StripView, grid: tuple[int, int]):
        self.view = view
        self.grid = grid
        self.xs = view.base_lattice(grid[0])
        self._strips: dict[float, _StripData] = {}

    @cached_property
    def fields(self) -> list[tuple]:
        """s, beta0 and h with derivatives on the base lattice."""
        return _fields_at(self.view, self.xs)

    def strip(self, eps: float) -> _StripData:
        key = round(eps, 15)
        data = self._strips.get(key)
        if data is not None:
            return data
        view = self.view
        ny = self.grid[1]
        xs = self.xs
        x_idx, ys = view.strip_nodes(xs, eps, ny)
        bottom_sel = np.arange(len(xs)) * (ny + 1)
        top_sel = bottom_sel + ny
        coeffs = view.coefficients(xs[x_idx], ys)
        top = (view.gamma_top(xs, ys[top_sel]), view.beta_top(xs, ys[top_sel]))
        bottom = (view.gamma_bottom(xs, ys[bottom_sel]), view.beta_bottom(xs, ys[bottom_sel]))
        data = _StripData(eps, x_idx, ys, coeffs, top_sel, bottom_sel, *top, *bottom)
        self._strips[key] = data
        return data

    def margins(self, params: BarrierParams, eps: float) -> BarrierMargins:
        """Margins of the explicit pair with these parameters, from the formula arrays."""
        strip = self.strip(eps)
        fields = [tuple(arr[strip.x_idx] for arr in fld) for fld in self.fields]
        up = _barrier_arrays(params, eps, +1.0, strip.ys, fields)
        lo = _barrier_arrays(params, eps, -1.0, strip.ys, fields)
        return self.margins_of(strip, up, lo)

    def margins_of(self, strip: _StripData, up, lo) -> BarrierMargins:
        """The seven margins of the (value, grad, hess) arrays of both barriers at the strip nodes."""

        # the c-free margins pass r = 0
        f_up, f_lo = (operator_infsup(strip.coeffs, hess, grad, val)[0] for val, grad, hess in (up, lo))
        f_up0, f_lo0 = (operator_infsup(strip.coeffs, hess, grad, 0.0)[0] for _, grad, hess in (up, lo))

        gu_top = up[1][strip.top_sel]
        gl_top = lo[1][strip.top_sel]
        gu_bot = up[1][strip.bottom_sel]
        gl_bot = lo[1][strip.bottom_sel]
        m1 = float((row_dot(strip.gamma_t, gu_top) - strip.beta_t).min())
        m2 = float((row_dot(strip.gamma_b, gu_bot) - strip.beta_b).min())
        m4 = float((-(row_dot(strip.gamma_t, gl_top) - strip.beta_t)).min())
        m5 = float((-(row_dot(strip.gamma_b, gl_bot) - strip.beta_b)).min())
        m3 = float(f_up.min())
        m6 = float((-f_lo).min())
        diff = up[0] - lo[0]
        bound_c = float(max(np.abs(up[0]).max(), np.abs(lo[0]).max())) + 1.0
        return BarrierMargins(
            m1=m1,
            m2=m2,
            m3=m3,
            m4=m4,
            m5=m5,
            m6=m6,
            m7=float(diff.min()),
            bound_c=bound_c,
            psi_bar_min=float(up[0].min()),
            psi_low_max=float(lo[0].max()),
            eps=strip.eps,
            grid=self.grid,
            m3_cfree=float(f_up0.min()),
            m6_cfree=float((-f_lo0).min()),
        )


# --- barrier evaluators -------------------------------------------------------


class _BarrierSide:
    """A barrier evaluated on batches of nodes: x shaped (m, N), y shaped (m,).

    Subclasses provide ``values(x, y)`` and ``arrays(x, y)`` (value, grad,
    hess); the scalar accessors are one-row calls of those.
    """

    @staticmethod
    def _row(x, y):
        return np.atleast_1d(np.asarray(x, dtype=float))[None, :], np.array([float(y)])

    def value(self, x, y: float) -> float:
        return float(self.values(*self._row(x, y))[0])

    def grad(self, x, y: float) -> np.ndarray:
        return self.arrays(*self._row(x, y))[1][0]

    def hess(self, x, y: float) -> np.ndarray:
        return self.arrays(*self._row(x, y))[2][0]


class AnalyticBarrierSide(_BarrierSide):
    """One explicit barrier; the formulas are those of ``_barrier_arrays``."""

    def __init__(self, view: StripView, params: BarrierParams, eps: float, sign: float):
        self.view = view
        self.params = params
        self.eps = eps
        self.sign = sign

    def _eval(self, x, y, derivatives: bool):
        fields = _fields_at(self.view, np.asarray(x, dtype=float), derivatives)
        return _barrier_arrays(self.params, self.eps, self.sign, np.asarray(y, dtype=float), fields, derivatives)

    def values(self, x, y) -> np.ndarray:
        return self._eval(x, y, derivatives=False)

    def arrays(self, x, y):
        return self._eval(x, y, derivatives=True)


class PulledBackSide(_BarrierSide):
    """Barrier in original coordinates: w o Q with chain-rule derivatives."""

    def __init__(self, wside, dmap: DistortionMap):
        self.wside = wside
        self.dmap = dmap

    def values(self, x, y) -> np.ndarray:
        return self.wside.values(self.dmap.inverse(x, y), y)

    def arrays(self, x, y):
        z = self.dmap.inverse(x, y)
        dq = matrix_r(self.dmap, z, y)
        d2q = self.dmap.d2q(x, y)
        val, dw, d2w = self.wside.arrays(z, y)
        grad = np.einsum("mk,mki->mi", dw, dq)
        hess = np.einsum("mki,mkl,mlj->mij", dq, d2w, dq) + np.einsum("mk,mkij->mij", dw, d2q)
        return val, grad, hess


@dataclass
class BarrierPair:
    upper: object
    lower: object
    params: BarrierParams
    eps: float
    margins: BarrierMargins | None = None


def build_barrier(problem_or_view, params: BarrierParams, eps: float, *, allow_uncertified: bool = False) -> BarrierPair:
    """Explicit barrier pair for a gamma0 = 0 problem at the given eps.

    ``eps`` must stay below params.eps1 for the strictness guarantees;
    ``allow_uncertified`` skips that gate so the formulas can still be
    evaluated (e.g. for empirical sandwich checks at larger eps).
    """
    view = as_strip_view(problem_or_view)
    if view.gamma0_sup > 1e-12:
        raise PreconditionViolatedError(
            f"buildBarrier requires gamma0 = 0; sampled sup |gamma0| = {view.gamma0_sup:.3e}"
        )
    if not allow_uncertified and not eps < params.eps1:
        raise PreconditionViolatedError(f"eps={eps} must be below eps1={params.eps1}")
    return BarrierPair(
        upper=AnalyticBarrierSide(view, params, eps, +1.0),
        lower=AnalyticBarrierSide(view, params, eps, -1.0),
        params=params,
        eps=eps,
    )


def verify_barrier(problem_or_view, pair: BarrierPair, eps: float | None = None, grid: tuple[int, int] = (32, 8)) -> BarrierMargins:
    """Measure the seven strictness margins of a pair on a lattice.

    Works for any barrier evaluators (explicit or pulled back); the view
    does not need gamma0 = 0, so pulled-back pairs are checked against the
    original oblique data directly.
    """
    view = as_strip_view(problem_or_view)
    if eps is None:
        eps = pair.eps
    engine = _MarginEngine(view, grid)
    strip = engine.strip(eps)
    x = engine.xs[strip.x_idx]
    margins = engine.margins_of(strip, pair.upper.arrays(x, strip.ys), pair.lower.arrays(x, strip.ys))
    pair.margins = margins
    return margins


# --- parameter search ---------------------------------------------------------


def _slab_form_min(view: StripView, r: float, kappa: float = 1.0, intervals: int = 12, ny: int = 4) -> float:
    """min over the slab lattice and controls of (Ds,0) A(x,y) (Ds,0)^T."""
    xs = view.base_lattice(intervals)
    ys = np.linspace(-r, r, ny + 1)
    x_idx = np.repeat(np.arange(len(xs)), len(ys))
    ds = strip_points(kappa * view.s.grad(xs), 0.0)[x_idx]
    a = view.coefficients(xs[x_idx], np.tile(ys, len(xs))).a
    return float(quadratic_form(ds[:, None, None], a).min())


def search_parameters(
    problem_or_view,
    search_grid: tuple[int, int] = (16, 6),
    verify_grid: tuple[int, int] = (32, 8),
) -> BarrierParams:
    """Select (r, kappa, Lambda, alpha, C_D, eps1) so all margins are strict.

    Stages run in the fixed order Lambda -> alpha -> C_D -> eps1 with
    doubling capped at 2^40; a final verification at eps1/2 and eps1/4 on
    the coarse and refined lattices feeds back into the responsible knob
    when a margin fails.  Raises SearchExhaustedError naming the inequality
    that could not be satisfied.
    """
    view = as_strip_view(problem_or_view)
    if view.gamma0_sup > 1e-12:
        raise PreconditionViolatedError("parameter search requires gamma0 = 0 (use the distorted view)")

    m0 = _slab_form_min(view, 0.0)
    if m0 <= 1e-8:
        raise SearchExhaustedError("ellipticity normalization: (Ds,0) A(x,0) (Ds,0)^T not positive")
    r = min(0.5, view.r_cap)
    while r > 2.0**-20:
        mr = _slab_form_min(view, r)
        if mr >= 0.5 * m0:
            break
        r *= 0.5
    else:
        raise SearchExhaustedError("ellipticity normalization on a slab of positive half-height")
    kappa = 1.0 / math.sqrt(mr)

    engine = _MarginEngine(view, search_grid)
    fine = _MarginEngine(view, verify_grid)
    s_vals = engine.fields[0][0]
    shift = float(s_vals.min())
    s_sup = float((kappa * (s_vals - shift)).max())

    def eps1_for(alpha: float, lam: float) -> float:
        cap = r / view.g_sup if view.g_sup > 0 else 1.0
        return min(view.eps0, 0.99 / alpha, 0.99 / lam, cap, 0.99)

    def params_for(alpha, lam, c_d) -> BarrierParams:
        return BarrierParams(
            alpha=alpha, lam=lam, c_d=c_d, eps1=eps1_for(alpha, lam),
            r=r, kappa=kappa, s_shift=shift, s_sup=s_sup,
        )

    lam = 2.0
    while lam <= SEARCH_CAP:
        p = params_for(2.0, lam, 1.0)
        ms = [engine.margins(p, e) for e in (p.eps1 / 2, p.eps1 / 4)]
        if all(min(m.m1, m.m2, m.m4, m.m5) > 0 for m in ms):
            break
        lam *= 2.0
    else:
        raise SearchExhaustedError("top/bottom oblique inequalities (Lambda stage)")

    alpha = 2.0
    while alpha <= SEARCH_CAP:
        p = params_for(alpha, lam, 1.0)
        ms = [engine.margins(p, e) for e in (p.eps1 / 2, p.eps1 / 4)]
        if all(min(m.m3_cfree, m.m6_cfree) > 0 for m in ms):
            break
        alpha *= 2.0
    else:
        raise SearchExhaustedError("interior operator inequalities (alpha stage)")

    c_d = 1.0
    for _ in range(64):
        p = params_for(alpha, lam, c_d)
        checks = []
        for eng in (engine, fine):
            for e in (p.eps1 / 2, p.eps1 / 4):
                checks.append(eng.margins(p, e))
        if all(m.passed and m.psi_bar_min > 0 and m.psi_low_max < 0 for m in checks):
            return p
        worst = min(checks, key=lambda m: min(m.values))
        if worst.psi_bar_min <= 0 or worst.psi_low_max >= 0 or min(worst.m3, worst.m6) <= 0 < min(
            worst.m3_cfree, worst.m6_cfree
        ):
            if c_d > SEARCH_CAP:
                raise SearchExhaustedError("barrier positivity (C_D stage)")
            c_d *= 2.0
        elif min(worst.m1, worst.m2, worst.m4, worst.m5) <= 0:
            if lam > SEARCH_CAP:
                raise SearchExhaustedError("top/bottom oblique inequalities (final verification)")
            lam *= 2.0
        elif min(worst.m3_cfree, worst.m6_cfree) <= 0:
            if alpha > SEARCH_CAP:
                raise SearchExhaustedError("interior operator inequalities (final verification)")
            alpha *= 2.0
        else:
            raise SearchExhaustedError("sandwich inequality (final verification)")
    raise SearchExhaustedError("parameter search iteration budget")


@dataclass
class GeneralBarrier:
    pair: BarrierPair  # in original coordinates
    hat_pair: BarrierPair  # in distorted coordinates
    params: BarrierParams
    dmap: DistortionMap
    view: StripView  # the distorted-coordinates view


def general_barrier(
    problem: ThinProblem,
    dmap: DistortionMap | None = None,
    params: BarrierParams | None = None,
    eps: float | None = None,
) -> GeneralBarrier:
    """Barriers for general gamma0 via the distorted-coordinates detour.

    Runs the parameter search on the hatted problem (whose horizontal
    oblique part vanishes), builds the explicit pair there, and pulls both
    barriers back through the inverse map; derivatives follow the chain
    rule, so the strictness inequalities transfer verbatim.
    """
    if dmap is None:
        dmap = build_map(problem)
    view = hat_view(problem, dmap)
    if params is None:
        params = search_parameters(view)
    if eps is None:
        eps = params.eps1 / 2
    hat_pair = build_barrier(view, params, eps, allow_uncertified=True)
    pair = BarrierPair(
        upper=PulledBackSide(hat_pair.upper, dmap),
        lower=PulledBackSide(hat_pair.lower, dmap),
        params=params,
        eps=eps,
    )
    return GeneralBarrier(pair=pair, hat_pair=hat_pair, params=params, dmap=dmap, view=view)
