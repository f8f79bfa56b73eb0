"""Thin-domain problem data and validation of the standing assumptions.

A :class:`ThinProblem` bundles the finite control sets, the per-control
coefficient family (sigma, b, c, f) on the closed strip, the box geometry
with the top/bottom profiles g+- and the boundary data.  The oblique data
is synthesized exactly from (gamma0, k+-, beta0, l+-):

    gamma+-(x, y) = (+-gamma0(x) + k+-(x) y, +-1)
    beta+-(x, y)  = +-beta0(x) + l+-(x) y

so the compatibility relations at y = 0 hold by construction.  These
fields are the only top/bottom data: the reduction reads them directly, and
the strip solver and the barriers through the one signed evaluator
:meth:`BoundaryData.oblique` (sign +1 on the top, -1 on the bottom).

Coefficients are read as one :class:`Coefficients` bundle of every control
pair at m points; :func:`operator_infsup` evaluates the operator over it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .expressions import ExprError, ScalarField, VectorField

PSD_TOLERANCE = 1e-10


class EpsOutOfRangeError(ValueError):
    """eps lies outside the range that a strip construction admits."""


def worst_node(values, points: np.ndarray, largest: bool, controls: ControlSet | None = None) -> tuple[float, tuple]:
    """The first minimum (or, if ``largest``, maximum) of ``values`` and its report witness.

    ``values`` holds one entry per row of ``points``, and the witness is that
    row rounded to 12 places, as plain floats.  With ``controls`` it is
    shaped (point, lambda, mu), "first" is in that order, and the witness is
    (point, lambda label, mu label).
    """
    values = np.asarray(values)
    i = int(np.argmax(values) if largest else np.argmin(values))
    k, *pair = np.unravel_index(i, values.shape)
    witness = tuple(float(v) for v in np.round(points[k], 12))
    if controls is not None:
        witness = (witness, controls.min_labels[pair[0]], controls.max_labels[pair[1]])
    return float(values.flat[i]), witness


@dataclass(frozen=True)
class ToleranceCheck:
    """The worst deviation from an identity that holds up to roundoff, and the first point where it occurs.

    It passes when ``worst <= tolerance``, so a NaN deviation fails; its
    line names the witness only on a FAIL.
    """

    what: str
    worst: float
    witness: tuple
    tolerance: float

    @classmethod
    def of(cls, what: str, deviations, points: np.ndarray, tolerance: float, controls: ControlSet | None = None) -> ToleranceCheck:
        """The check of ``deviations`` at ``points``, its witness as :func:`worst_node` gives the largest."""
        return cls(what, *worst_node(deviations, points, True, controls), tolerance)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def format(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.what} {self.worst:.3e} (tolerance {self.tolerance:g})"
        return line if self.passed else f"{line} at {self.witness}"


def _lattice_nodes(axes) -> np.ndarray:
    """Every node of the tensor lattice of ``axes``, the last axis varying fastest; shape (m, len(axes))."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def box_lattice(lower, upper, intervals: int) -> np.ndarray:
    """Uniform node lattice over the closed box [lower, upper], ``intervals`` per axis; shape (m, N)."""
    return _lattice_nodes([np.linspace(lo, hi, intervals + 1) for lo, hi in zip(lower, upper)])


def strip_lattice(base: np.ndarray, bottom, top, intervals: int) -> tuple[np.ndarray, np.ndarray]:
    """``intervals`` + 1 evenly spaced levels from ``bottom`` to ``top`` (shared or one per node) over each base node.

    Returns each strip node's index into ``base`` and its height, base node by base node.
    """
    m = len(base)
    ys = np.linspace(np.broadcast_to(bottom, (m,)), np.broadcast_to(top, (m,)), intervals + 1, axis=1)
    return np.repeat(np.arange(m), intervals + 1), ys.ravel()


def strip_points(x, y) -> np.ndarray:
    """Strip points (x, y): x shaped (..., N), y shaped like its leading axes or a scalar."""
    x = np.asarray(x, dtype=float)
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape[:-1])
    return np.concatenate([x, y[..., None]], axis=-1)


def row_dot(u, v) -> np.ndarray:
    """u . v over the last axis, broadcast over the leading axes (the per-point ``u @ v``)."""
    return (np.asarray(u)[..., None, :] @ np.asarray(v)[..., :, None])[..., 0, 0]


def row_matmul(v, m) -> np.ndarray:
    """Row vectors times matrices, broadcast over the leading axes (the per-point ``v @ m``)."""
    return (np.asarray(v)[..., None, :] @ m)[..., 0, :]


def quadratic_form(v, a) -> np.ndarray:
    """v a v^T, broadcast over the leading axes (the per-point ``v @ a @ v``)."""
    return row_dot(row_matmul(v, a), v)


@dataclass(frozen=True)
class ControlSet:
    """Finite label lists for the outer min (L) and inner max (M)."""

    min_labels: tuple[str, ...]
    max_labels: tuple[str, ...]

    def __post_init__(self):
        for labels, side in ((self.min_labels, "L"), (self.max_labels, "M")):
            if not labels:
                raise ValueError(f"control set {side} must be nonempty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"control set {side} has duplicate labels")

    def pairs(self) -> Iterator[tuple[str, str]]:
        return itertools.product(self.min_labels, self.max_labels)


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Every control pair's coefficients at m points: the control axes (nL, nM) follow the point axis."""

    sigma: np.ndarray  # (m, nL, nM, k, d)
    a: np.ndarray  # (m, nL, nM, d, d): sigma^T sigma
    b: np.ndarray  # (m, nL, nM, d)
    c: np.ndarray  # (m, nL, nM)
    f: np.ndarray  # (m, nL, nM)

    def pair(self, il: int, im: int) -> "Coefficients":
        """The bundle restricted to one control pair (nL = nM = 1)."""
        sl = (slice(None), slice(il, il + 1), slice(im, im + 1))
        return Coefficients(self.sigma[sl], self.a[sl], self.b[sl], self.c[sl], self.f[sl])


@dataclass
class CoefficientEntry:
    """One control pair's fields on the strip: sigma (k x N+1), b (N+1), c, f."""

    sigma: tuple[tuple[ScalarField, ...], ...]
    b: tuple[ScalarField, ...]
    c: ScalarField
    f: ScalarField


def _coefficient_bundle(entries, points: np.ndarray) -> Coefficients:
    """Coefficients of a grid of entries (rows over L, columns over M) at points shaped (m, N+1).

    Entries with fewer sigma rows than the largest are padded with zero
    rows, which leaves A = sigma^T sigma unchanged.
    """
    m, d = points.shape
    shape = (m, len(entries), len(entries[0]))
    k = max(len(e.sigma) for row in entries for e in row)
    sigma = np.zeros(shape + (k, d))
    b = np.empty(shape + (d,))
    c = np.empty(shape)
    f = np.empty(shape)
    for il, row in enumerate(entries):
        for im, e in enumerate(row):
            for i, srow in enumerate(e.sigma):
                for j, fld in enumerate(srow):
                    sigma[:, il, im, i, j] = fld.value(points)
            for j, fld in enumerate(e.b):
                b[:, il, im, j] = fld.value(points)
            c[:, il, im] = e.c.value(points)
            f[:, il, im] = e.f.value(points)
    return Coefficients(sigma, np.swapaxes(sigma, -1, -2) @ sigma, b, c, f)


@dataclass
class CoefficientFamily:
    entries: dict[tuple[str, str], CoefficientEntry]
    bound: float = 100.0  # declared uniform sup bound on |sigma|, |b|, |c|, |f|

    def entry(self, lam: str, mu: str) -> CoefficientEntry:
        return self.entries[(lam, mu)]


@dataclass
class GeometrySpec:
    """Axis-aligned box Omega = prod [lower_i, upper_i] with profiles g+-; its dimension is len(lower)."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    g_minus: ScalarField
    g_plus: ScalarField
    epsilon0: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if len(self.upper) != self.n:
            raise ValueError("box bounds must have one entry per dimension")
        if not np.isfinite(self.lower + self.upper).all():
            raise ValueError("box bounds must be finite")
        # in Python floats, an overflowing extent is inf with no numpy warning
        extents = [float(hi) - float(lo) for lo, hi in zip(self.lower, self.upper)]
        if not all(e > 0.0 for e in extents):
            raise ValueError("box must have positive extent")
        if not np.isfinite(extents).all():
            raise ValueError("box extent upper - lower must be finite")
        if not 0 < self.epsilon0 <= 1:
            raise ValueError("epsilon0 must lie in (0, 1]")

    @property
    def n(self) -> int:
        return len(self.lower)

    def profile(self, sign: float) -> ScalarField:
        """The top profile g+ (sign +1) or the bottom profile g- (sign -1)."""
        return self.g_plus if sign > 0 else self.g_minus

    def check_eps(self, eps: float) -> None:
        """Raise EpsOutOfRangeError unless 0 < eps <= epsilon0, the thickness cap of the strip."""
        if not eps > 0.0:  # nan too
            raise EpsOutOfRangeError(f"eps={eps} is not a number > 0")
        if eps > self.epsilon0:
            raise EpsOutOfRangeError(f"eps={eps} exceeds epsilon0={self.epsilon0}")

    def boundary_nodes(self, samples_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary nodes of the box lattice with outward normals; corner normals are averaged."""
        pts = box_lattice(self.lower, self.upper, samples_per_axis)
        # linspace puts each bound exactly at its end node
        at_lower = pts == self.lower
        at_upper = pts == self.upper
        on_boundary = (at_lower | at_upper).any(axis=1)
        nu = (np.zeros(pts.shape) - at_lower + at_upper)[on_boundary]
        return pts[on_boundary], nu / np.sqrt(row_dot(nu, nu))[:, None]


@dataclass
class BoundaryData:
    """Oblique and Dirichlet data plus the certificate potential s."""

    gamma0: VectorField
    beta0: ScalarField
    k_plus: VectorField
    k_minus: VectorField
    l_plus: ScalarField
    l_minus: ScalarField
    beta_lateral: ScalarField
    s_candidate: ScalarField
    h: ScalarField | None = None

    def oblique(self, sign: float, x, y) -> tuple[np.ndarray, np.ndarray]:
        """(gamma, beta) on the top (sign +1) or the bottom (sign -1) over base points x at heights y.

        gamma = (sign gamma0 + k y, sign) and beta = sign beta0 + l y, with
        (k, l) = (k+, l+) on the top and (k-, l-) on the bottom; x is (m, N) and y (m,).
        """
        k, l = (self.k_plus, self.l_plus) if sign > 0 else (self.k_minus, self.l_minus)
        gamma = sign * self.gamma0.value(x) + k.value(x) * y[:, None]
        return strip_points(gamma, sign), sign * self.beta0.value(x) + l.value(x) * y


@dataclass
class ThinProblem:
    controls: ControlSet
    coeffs: CoefficientFamily
    geom: GeometrySpec
    bdata: BoundaryData

    @property
    def n(self) -> int:
        return self.geom.n

    def fields(self) -> dict[str, ScalarField]:
        """The geometry and boundary fields by config name, ``<name>_<i>`` for a vector's component i.

        The coefficient fields are left to the bundle :meth:`coefficients` evaluates.
        """
        geom, bd = self.geom, self.bdata
        out = {"g_minus": geom.g_minus, "g_plus": geom.g_plus}
        for name in ("gamma0", "k_plus", "k_minus"):
            out.update((f"{name}_{i + 1}", c) for i, c in enumerate(getattr(bd, name).components))
        out.update(beta0=bd.beta0, l_plus=bd.l_plus, l_minus=bd.l_minus, beta=bd.beta_lateral, s=bd.s_candidate)
        if bd.h is not None:
            out["h"] = bd.h
        return out

    def coefficients(self, points) -> Coefficients:
        """Every control pair's sigma, A, b, c, f at strip points shaped (m, N+1)."""
        labels = self.controls
        entries = [[self.coeffs.entry(lam, mu) for mu in labels.max_labels] for lam in labels.min_labels]
        return _coefficient_bundle(entries, points)


def inf_sup(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inf over L of the sup over M of per-control values shaped (..., nL, nM).

    Returns ``(value, lam_idx, mu_idx)``, each shaped like the leading axes.
    Ties go to the lowest index: the first argmin over L of the row maxima,
    then the first argmax over M within the chosen row.
    """
    values = np.asarray(values, dtype=float)
    n_lam, n_mu = values.shape[-2:]
    row_max = values.max(axis=-1)
    lam_idx = row_max.argmin(axis=-1)
    # the chosen row's index among the (-1, nM) rows of values, which is its maximum's among the flat row maxima
    flat = np.arange(lam_idx.size).reshape(lam_idx.shape) * n_lam + lam_idx
    row = values.reshape(-1, n_mu)[flat]
    return row_max.reshape(-1)[flat], lam_idx, row.argmax(axis=-1)


def operator_infsup(coeffs: Coefficients, X, p, r):
    """Inf over L, sup over M of -tr(A X) - b.p + c r - f at each of the bundle's m points.

    ``X`` (m, d, d), ``p`` (m, d) and ``r`` (m,) may each be one value shared
    by all points.  Returns :func:`inf_sup`'s ``(value, lam_idx, mu_idx)``,
    each shaped (m,); ties go to the lowest label index.
    """
    m, d = coeffs.b.shape[0], coeffs.b.shape[-1]
    X = np.broadcast_to(np.asarray(X, dtype=float).reshape(-1, d, d), (m, d, d))
    p = np.ascontiguousarray(np.broadcast_to(np.asarray(p, dtype=float).reshape(-1, d), (m, d)))
    r = np.broadcast_to(np.asarray(r, dtype=float).reshape(-1), (m,))
    tr = (coeffs.a * X[:, None, None]).sum(axis=(-2, -1))
    return inf_sup(-tr - row_dot(coeffs.b, p[:, None, None]) + coeffs.c * r[:, None, None] - coeffs.f)


# --- validation -------------------------------------------------------------


@dataclass
class Diagnostic:
    name: str
    passed: bool
    worst: float | None = None
    witness: tuple | None = None
    note: str = ""

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{status:4s} {self.name}"]
        if self.worst is not None:
            parts.append(f"worst={self.worst:.6g}")
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.note:
            parts.append(self.note)
        return "  ".join(parts)


@dataclass
class DiagnosticsReport:
    checks: list[Diagnostic] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [c.format() for c in self.checks]
        verdict = "ALL ASSUMPTIONS HOLD" if self.passed else "ASSUMPTION VIOLATIONS FOUND"
        return "\n".join(lines + [verdict])


def _derivative_fault(name: str, fld: ScalarField, points: np.ndarray) -> str | None:
    """The first of ``fld``'s gradient and Hessian that does not exist on ``points``, with its first such point."""
    for deriv in ("grad", "hess"):
        try:
            getattr(fld, deriv)(points)
        except ExprError as exc:
            return f"{name}.{deriv}: {exc}"
    return None


def validate(problem: ThinProblem, samples_per_axis: int = 8) -> DiagnosticsReport:
    """Sample-check every standing assumption; never aborts mid-scan.

    The scan runs on a uniform lattice, so violations strictly between nodes
    go undetected; refine ``samples_per_axis`` to tighten.
    """
    if samples_per_axis < 4:
        raise ValueError("samples_per_axis must be >= 4")
    report = DiagnosticsReport()
    geom = problem.geom
    base = box_lattice(geom.lower, geom.upper, samples_per_axis)
    # the closed slab Omega x [-1, 1]
    x_idx, ys = strip_lattice(base, -1.0, 1.0, samples_per_axis)
    slab = strip_points(base[x_idx], ys)

    # every expression, and every base field's gradient and Hessian, defined
    # on its domain; each field is evaluated once, the coefficients in their bundle
    bad = None
    fields = problem.fields()
    try:
        values = {name: fld.value(base if fld.nvars == geom.n else slab) for name, fld in fields.items()}
        coeffs = problem.coefficients(slab)
    except ExprError as exc:
        bad = str(exc)
    if bad is None:
        faults = (_derivative_fault(name, fld, base) for name, fld in fields.items() if fld.nvars == geom.n)
        bad = next(filter(None, faults), None)
    report.checks.append(
        Diagnostic("ExpressionsFinite", bad is None, note=bad or "all fields finite on sampled lattice")
    )
    if bad is not None:
        # remaining checks would cascade the same failure
        return report

    # uniform bound C_F on the coefficient family; witnesses are the first
    # extreme in (node, lambda, mu) order
    size = np.maximum.reduce(
        [np.abs(coeffs.sigma).max(axis=(-2, -1)), np.abs(coeffs.b).max(axis=-1), np.abs(coeffs.c), np.abs(coeffs.f)]
    )
    worst_bound, witness_bound = worst_node(size, slab, True, problem.controls)
    if not worst_bound > 0.0:
        worst_bound, witness_bound = 0.0, None
    worst_c, witness_c = worst_node(coeffs.c, slab, False, problem.controls)
    eigs = np.linalg.eigvalsh(coeffs.a).min(axis=-1)
    worst_eig, witness_eig = worst_node(eigs, slab, False, problem.controls)
    report.checks.append(
        Diagnostic(
            "CoefficientBound",
            worst_bound <= problem.coeffs.bound,
            worst=worst_bound,
            witness=witness_bound,
            note=f"declared C_F={problem.coeffs.bound}",
        )
    )
    report.checks.append(
        Diagnostic("NonNegativity", worst_c >= 0.0, worst=worst_c, witness=witness_c, note="c >= 0 required")
    )
    report.checks.append(
        Diagnostic(
            "DiffusionPSD",
            worst_eig >= -PSD_TOLERANCE,
            worst=worst_eig,
            witness=witness_eig,
            note="min eigenvalue of sigma^T sigma",
        )
    )

    # geometry: strict ordering and containment in the unit slab
    gp, gm = values["g_plus"], values["g_minus"]
    worst_gap, witness_gap = worst_node(gp - gm, base, False)
    report.checks.append(
        Diagnostic(
            "StrictOrdering",
            worst_gap > 0.0,
            worst=worst_gap,
            witness=witness_gap,
            note="g+ - g- must be positive",
        )
    )
    gmax = float(max(np.abs(gp).max(), np.abs(gm).max()))
    report.checks.append(
        Diagnostic(
            "SlabContainment",
            geom.epsilon0 * gmax <= 1.0 + 1e-12,
            worst=geom.epsilon0 * gmax,
            note="epsilon0 * sup|g| must be <= 1",
        )
    )

    if "h" in values:
        above, below = gp - values["h"], values["h"] - gm
        worst_level, witness_level = worst_node(np.where(below < above, below, above), base, False)
        report.checks.append(
            Diagnostic(
                "BarrierLevelBetween",
                worst_level > 0.0,
                worst=worst_level,
                witness=witness_level,
                note="g- < h < g+ required",
            )
        )

    # boundary data: (h.4) and (h.7) hold by construction
    report.checks.append(
        Diagnostic("Compatibility", True, note="boundary data synthesized; holds by construction")
    )
    report.checks.append(
        Diagnostic("ObliqueNormalization", True, note="gamma2 = +-1 by construction")
    )
    return report
