"""Strict super/subsolution barriers with automated parameter selection.

For gamma0 = 0 the barriers are explicit:

    psi_bar(x,y)  =  rho(x) + beta0(x) y + alpha*Lambda*chi(x) (y - eps h(x))^2
    psi_low(x,y)  = -rho(x) + beta0(x) y - alpha*Lambda*chi(x) (y - eps h(x))^2

with chi = exp(alpha * s~), rho = C_D + (C_alpha - chi), s~ the certificate
potential shifted to min 0 and rescaled so (Ds~,0) A (Ds~,0)^T >= 1 on a
slab of half-height r, and g- < h < g+.  The parameter search follows the
fixed order Lambda (top/bottom oblique margins), then alpha (interior
operator sign), then C_D (positivity), then eps1, each by doubling capped
at 2^40; all seven strictness margins are then verified on a lattice, at
two distinct eps and two grid resolutions.  The hidden constants of the
asymptotic bookkeeping are data dependent, so measured margins replace
them throughout.

For general gamma0 the same construction is built in distorted coordinates
(where the hatted oblique data has zero horizontal part) and the barriers
are pulled back through the inverse map with chain-rule derivatives.  The
search takes its normalisation (r, kappa, the shift and sup of s~) there,
but measures every candidate on the original strip, through the pull-back,
exactly as :func:`verify_barrier` measures the pair; so ``thinpde barrier``
at its default options agrees with the pipeline's barrier stage.

The barrier formulas and their first and second derivatives are written
once, in ``_barrier_arrays``, over arrays of strip nodes.  There is one
view, :func:`flat_view`, the problem on its own strip; one pair type,
:class:`BarrierPair` (the view, params, and a distortion map when the pair
is pulled back); and one way to get it, :func:`search_barriers`.  It
searches the parameters once, with the map it is given or else none; its
callers decide with :func:`needs_distortion` (the one test of gamma0).
The pair takes eps at each evaluation and evaluates both barriers at a
batch of nodes from one field evaluation, at one set of preimages; eps
below params.eps1 is certified, larger eps is evaluated all the same where
the pair :meth:`~BarrierPair.reaches` it.  The seven margins have one
evaluator, ``_MarginEngine.margins_of``, over the view's coefficient
bundle at all strip nodes at once, and one way to reach it: the parameter
search and :func:`verify_barrier` both measure a pair through
:meth:`BarrierPair.arrays` at the nodes of :func:`strip_nodes`;
the operator is :func:`thinpde.problem.operator_infsup`.  The pairs and the
margins take base points (m, N) and heights (m,) only: no one-point form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionMap, hat_coefficients, matrix_r
from .expressions import Bin, Const, Expr, ScalarField
from .problem import Coefficients, ThinProblem, box_lattice, operator_infsup, quadratic_form, row_dot, strip_lattice, strip_points

SEARCH_CAP = 2.0**40
# (nx, ny) lattices of the parameter search and of its final verification
_SEARCH_GRID = (16, 6)
VERIFY_GRID = (32, 8)


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
    """A thin problem on its own strip, in its own coordinates.

    ``coefficients(x, y)`` bundles every control pair at base points x (m, N)
    and heights y (m,).  Each side is a sign, +1 for the top and -1 for the
    bottom: ``oblique(sign, x, y)`` gives that side's (gamma, beta) and
    ``profile(sign, x, eps)`` its heights eps*g+- over base points.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    eps0: float
    g_sup: float
    coefficients: object  # (x, y) -> Coefficients
    oblique: object  # (sign, x, y) -> (gamma (..., N+1), beta)
    profile: object  # (sign, x, eps) -> heights
    beta0: object  # scalar fields with grad/hess
    s: object
    h: object


def _barrier_level(problem: ThinProblem) -> ScalarField:
    """The level h of the barriers: the problem's own, or else the midpoint (g+ + g-) / 2."""
    geom = problem.geom
    if problem.bdata.h is not None:
        return problem.bdata.h
    mid = Bin("*", Const(0.5), Bin("+", geom.g_plus.expr.root, geom.g_minus.expr.root))
    return ScalarField(Expr(mid), geom.g_plus.var_names)


def needs_distortion(problem: ThinProblem) -> bool:
    """The one test of gamma0: false only for a constant gamma0 (``VectorField.is_constant``) whose value is 0."""
    gamma0 = problem.bdata.gamma0
    return not gamma0.is_constant or bool(gamma0.value(np.array([problem.geom.lower])).any())


def flat_view(problem: ThinProblem) -> StripView:
    """View of the problem in its own coordinates; sup|g+-| is sampled on the 16-interval base lattice."""
    geom = problem.geom
    bd = problem.bdata
    base = box_lattice(geom.lower, geom.upper, 16)
    return StripView(
        lower=geom.lower,
        upper=geom.upper,
        eps0=geom.epsilon0,
        g_sup=max(float(np.abs(g.value(base)).max()) for g in (geom.g_plus, geom.g_minus)),
        coefficients=lambda x, y: problem.coefficients(strip_points(x, y)),
        oblique=bd.oblique,
        profile=lambda sign, x, eps: eps * geom.profile(sign).value(x),
        beta0=bd.beta0,
        s=bd.s_candidate,
        h=_barrier_level(problem),
    )


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
    # C_alpha - chi first: C_alpha can exceed C_D * 2^53, and C_D + C_alpha would round C_D away
    rho = params.c_d + (params.c_alpha - chi)
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


def strip_nodes(view: StripView, xs: np.ndarray, eps: float, intervals: int) -> tuple[np.ndarray, np.ndarray]:
    """The view's strip at eps over base points xs (k, N): ``intervals`` + 1 heights from bottom to top over each.

    Returns the nodes' base points (m, N) and heights (m,), base point by base point.
    """
    x_idx, ys = strip_lattice(xs, view.profile(-1.0, xs, eps), view.profile(1.0, xs, eps), intervals)
    return xs[x_idx], ys


@dataclass
class _StripData:
    eps: float
    x: np.ndarray  # (m, N) base point of each strip node
    ys: np.ndarray  # (m,)
    coeffs: Coefficients  # at the m nodes
    top_sel: np.ndarray  # (mt,) indices into the m nodes
    bottom_sel: np.ndarray
    top: tuple[np.ndarray, np.ndarray]  # (gamma (mt, N+1), beta (mt,)) at the top nodes
    bottom: tuple[np.ndarray, np.ndarray]


class _MarginEngine:
    """Strip lattices of one view, cached per eps, and the seven margins on them, cached per (params, eps)."""

    def __init__(self, view: StripView, grid: tuple[int, int], dmap: DistortionMap | None = None):
        self.view = view
        self.grid = grid
        self.dmap = dmap  # the map the candidates of :meth:`margins` are pulled back through
        self.xs = box_lattice(view.lower, view.upper, grid[0])
        self._strips: dict[float, _StripData] = {}
        self._margins: dict[tuple[BarrierParams, float], BarrierMargins] = {}

    def strip(self, eps: float) -> _StripData:
        key = round(eps, 15)
        data = self._strips.get(key)
        if data is not None:
            return data
        view = self.view
        ny = self.grid[1]
        xs = self.xs
        x, ys = strip_nodes(view, xs, eps, ny)
        bottom_sel = np.arange(len(xs)) * (ny + 1)
        top_sel = bottom_sel + ny
        coeffs = view.coefficients(x, ys)
        top = view.oblique(1.0, xs, ys[top_sel])
        bottom = view.oblique(-1.0, xs, ys[bottom_sel])
        data = _StripData(eps, x, ys, coeffs, top_sel, bottom_sel, top, bottom)
        self._strips[key] = data
        return data

    def measure(self, pair: BarrierPair, eps: float) -> BarrierMargins:
        """The seven margins of any pair at eps, from its :meth:`BarrierPair.arrays` at the strip nodes."""
        strip = self.strip(eps)
        return self.margins_of(strip, *pair.arrays(strip.x, strip.ys, eps))

    def margins(self, params: BarrierParams, eps: float) -> BarrierMargins:
        """Margins of the pair ``BarrierPair(view, params, dmap)`` of this engine.

        A value past float range raises (OverflowError from C_alpha,
        FloatingPointError from the arrays) instead of reaching a margin as
        inf or nan.  A repeated (params, eps) returns the margins already measured.
        """
        found = self._margins.get((params, eps))
        if found is None:
            with np.errstate(over="raise"):
                found = self._margins[params, eps] = self.measure(BarrierPair(self.view, params, self.dmap), eps)
        return found

    def margins_of(self, strip: _StripData, up, lo) -> BarrierMargins:
        """The seven margins of the (value, grad, hess) arrays of both barriers at the strip nodes."""

        # the c-free margins pass r = 0
        f_up, f_lo = (operator_infsup(strip.coeffs, hess, grad, val)[0] for val, grad, hess in (up, lo))
        f_up0, f_lo0 = (operator_infsup(strip.coeffs, hess, grad, 0.0)[0] for _, grad, hess in (up, lo))

        (g_top, b_top), (g_bot, b_bot) = strip.top, strip.bottom
        m1 = float((row_dot(g_top, up[1][strip.top_sel]) - b_top).min())
        m2 = float((row_dot(g_bot, up[1][strip.bottom_sel]) - b_bot).min())
        m4 = float((-(row_dot(g_top, lo[1][strip.top_sel]) - b_top)).min())
        m5 = float((-(row_dot(g_bot, lo[1][strip.bottom_sel]) - b_bot)).min())
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


# --- barrier pairs --------------------------------------------------------------


@dataclass(frozen=True)
class BarrierPair:
    """psi_bar and psi_low: the explicit pair of ``view`` and ``params``.

    With a ``dmap`` the explicit pair lives in the map's distorted
    coordinates and is pulled back to the view's: w o Q, with chain-rule
    derivatives.
    ``values`` and ``arrays`` evaluate both barriers at one eps and a batch
    of nodes from one field evaluation, at one set of preimages.  The
    strictness inequalities are certified only for eps < params.eps1.
    """

    view: StripView
    params: BarrierParams
    dmap: DistortionMap | None = None

    def reaches(self, eps: float) -> bool:
        """Whether the pair is defined on the strip at eps: a pulled-back pair only inside its map's slab |y| <= r."""
        return self.dmap is None or eps * self.view.g_sup <= self.dmap.r

    def values(self, x, y, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """(psi_bar, psi_low) values at nodes x (m, N), y (m,)."""
        return self._both(x, y, eps, False)

    def arrays(self, x, y, eps: float):
        """(value, grad, hess) arrays of psi_bar and of psi_low at nodes x (m, N), y (m,)."""
        return self._both(x, y, eps, True)

    def _both(self, x, y, eps: float, derivatives: bool):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if self.dmap is not None:
            x = self.dmap.inverse(x, y)  # the preimages z
        fields = _fields_at(self.view, x, derivatives)
        sides = tuple(_barrier_arrays(self.params, eps, sign, y, fields, derivatives) for sign in (1.0, -1.0))
        if self.dmap is None or not derivatives:
            return sides
        dq = matrix_r(self.dmap, x, y)
        d2q = self.dmap.d2q(x, y, dq)
        return tuple(
            (
                val,
                np.einsum("mk,mki->mi", dw, dq),
                np.einsum("mki,mkl,mlj->mij", dq, d2w, dq) + np.einsum("mk,mkij->mij", dw, d2q),
            )
            for val, dw, d2w in sides
        )


def verify_barrier(view: StripView, pair: BarrierPair, eps: float, grid: tuple[int, int] = VERIFY_GRID) -> BarrierMargins:
    """The seven strictness margins of any pair (explicit or pulled back) at eps on a lattice of the view's strip."""
    return _MarginEngine(view, grid).measure(pair, eps)


# --- parameter search ---------------------------------------------------------


def _slab_form_min(problem: ThinProblem, dmap: DistortionMap | None, xs: np.ndarray, r: float) -> float:
    """min over the slab |y| <= r over base points xs (4 intervals in y) and controls of (Ds,0) A (Ds,0)^T.

    A is the problem's diffusion, or with a map the hatted one at distorted
    points.  A form that overflows gives inf or nan.
    """
    x_idx, ys = strip_lattice(xs, -r, r, 4)
    ds = strip_points(problem.bdata.s_candidate.grad(xs), 0.0)[x_idx]
    z = xs[x_idx]
    co = problem.coefficients(strip_points(z, ys)) if dmap is None else hat_coefficients(problem, dmap, z, ys)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(quadratic_form(ds[:, None, None], co.a).min())


def search_parameters(problem: ThinProblem, dmap: DistortionMap | None = None) -> BarrierParams:
    """Select (r, kappa, Lambda, alpha, C_D, eps1) so all margins are strict.

    Without a map the problem needs gamma0 = 0.  With ``dmap`` the
    normalisation (r from the map's half-height, kappa from the hatted slab
    form, the shift and sup of s~) is taken over the map's inflated box.
    Every candidate is measured as :func:`verify_barrier` measures the pair:
    ``BarrierPair(flat_view, params, dmap)`` on the original strip.
    Stages run in the fixed order Lambda -> alpha -> C_D -> eps1 with
    doubling capped at 2^40; a final verification at eps1/2 and eps1/4 on
    the coarse and refined lattices feeds back into the responsible knob
    when a margin fails.  Raises SearchExhaustedError naming the inequality
    that could not be satisfied, or the stage at which a barrier value would
    leave float range.
    """
    view = flat_view(problem)
    box, r = ((view.lower, view.upper), 0.5) if dmap is None else (dmap.omega_hat, dmap.r)
    slab = box_lattice(*box, 12)
    m0 = _slab_form_min(problem, dmap, slab, 0.0)
    if not 1e-8 < m0 < math.inf:
        raise SearchExhaustedError("ellipticity normalization: (Ds,0) A(x,0) (Ds,0)^T not positive and finite")
    while r > 2.0**-20:
        mr = _slab_form_min(problem, dmap, slab, r)
        if 0.5 * m0 <= mr < math.inf:
            break
        r *= 0.5
    else:
        raise SearchExhaustedError("ellipticity normalization on a slab of positive half-height")
    kappa = 1.0 / math.sqrt(mr)

    s_vals = view.s.value(box_lattice(*box, _SEARCH_GRID[0]))
    shift = float(s_vals.min())
    s_sup = float((kappa * (s_vals - shift)).max())
    eps1_cap = r / view.g_sup if view.g_sup > 0 else 1.0
    engine = _MarginEngine(view, _SEARCH_GRID, dmap)
    fine = _MarginEngine(view, VERIFY_GRID, dmap)

    def params_for(alpha, lam, c_d) -> BarrierParams:
        eps1 = min(view.eps0, 0.99 / alpha, 0.99 / lam, eps1_cap, 0.99)
        return BarrierParams(alpha=alpha, lam=lam, c_d=c_d, eps1=eps1, r=r, kappa=kappa, s_shift=shift, s_sup=s_sup)

    def margins(engines, p: BarrierParams, stage: str) -> list[BarrierMargins]:
        """Margins at eps1/2 and eps1/4 on each engine's lattice; a value past float range ends the search."""
        try:
            return [eng.margins(p, e) for eng in engines for e in (p.eps1 / 2, p.eps1 / 4)]
        except (OverflowError, FloatingPointError):
            raise SearchExhaustedError(
                f"{stage}: barrier values leave float range at alpha={p.alpha:g} Lambda={p.lam:g} C_D={p.c_d:g}"
            ) from None

    knobs = {"alpha": 2.0, "lam": 2.0, "c_d": 1.0}
    # each doubling stage raises its knob 2, 4, ..., SEARCH_CAP until its margins are strict on the search lattice
    for knob, stage, margin in (
        ("lam", "top/bottom oblique inequalities (Lambda stage)", lambda m: min(m.m1, m.m2, m.m4, m.m5)),
        ("alpha", "interior operator inequalities (alpha stage)", lambda m: min(m.m3_cfree, m.m6_cfree)),
    ):
        while not all(margin(m) > 0 for m in margins([engine], params_for(**knobs), stage)):
            if knobs[knob] >= SEARCH_CAP:
                raise SearchExhaustedError(stage)
            knobs[knob] *= 2.0

    for _ in range(64):
        p = params_for(**knobs)
        checks = margins([engine, fine], p, "final verification")
        if all(m.passed and m.psi_bar_min > 0 and m.psi_low_max < 0 for m in checks):
            return p
        worst = min(checks, key=lambda m: min(m.values))
        if worst.psi_bar_min <= 0 or worst.psi_low_max >= 0 or min(worst.m3, worst.m6) <= 0 < min(
            worst.m3_cfree, worst.m6_cfree
        ):
            knob, stage = "c_d", "barrier positivity (C_D stage)"
        elif min(worst.m1, worst.m2, worst.m4, worst.m5) <= 0:
            knob, stage = "lam", "top/bottom oblique inequalities (final verification)"
        elif min(worst.m3_cfree, worst.m6_cfree) <= 0:
            knob, stage = "alpha", "interior operator inequalities (final verification)"
        else:
            raise SearchExhaustedError("sandwich inequality (final verification)")
        if knobs[knob] >= SEARCH_CAP:
            raise SearchExhaustedError(stage)
        knobs[knob] *= 2.0
    raise SearchExhaustedError("parameter search iteration budget")


def search_barriers(problem: ThinProblem, dmap: DistortionMap | None) -> BarrierPair:
    """The pair of the flat view and :func:`search_parameters`, pulled back through ``dmap`` when given one."""
    return BarrierPair(flat_view(problem), search_parameters(problem, dmap), dmap)
