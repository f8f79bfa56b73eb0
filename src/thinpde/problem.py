"""Thin-domain problem data and validation of the standing assumptions.

A :class:`ThinProblem` bundles the finite control sets, the per-control
coefficient family (sigma, b, c, f) on the closed strip, the box geometry
with the top/bottom profiles g+- and the boundary data.  The oblique data
is synthesized exactly from (gamma0, k+-, beta0, l+-):

    gamma+-(x, y) = (+-gamma0(x) + k+-(x) y, +-1)
    beta+-(x, y)  = +-beta0(x) + l+-(x) y

so the compatibility relations at y = 0 hold by construction.  Users may
attach raw gamma/beta evaluators instead; the validator then checks the
y = 0 compatibility by sampling.

Coefficients are read as one :class:`Coefficients` bundle of every control
pair at m points; :func:`operator_infsup` evaluates the operator over it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .expressions import EvalDomainError, ExprError, ScalarField, VectorField

__all__ = [
    "ControlSet",
    "Coefficients",
    "CoefficientEntry",
    "CoefficientFamily",
    "GeometrySpec",
    "BoundaryData",
    "ThinProblem",
    "OperatorValue",
    "inf_sup",
    "operator_infsup",
    "operator_value",
    "strip_points",
    "box_lattice",
    "row_dot",
    "row_matmul",
    "quadratic_form",
    "Diagnostic",
    "DiagnosticsReport",
    "validate",
    "PSD_TOLERANCE",
]

PSD_TOLERANCE = 1e-10


def _pt(z) -> tuple:
    """Plain-float tuple for witness reporting."""
    return tuple(float(v) for v in np.atleast_1d(z))


def box_lattice(lower, upper, intervals: int) -> np.ndarray:
    """Uniform node lattice over the closed box [lower, upper], ``intervals`` per axis; shape (m, N)."""
    axes = [np.linspace(lo, hi, intervals + 1) for lo, hi in zip(lower, upper)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


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

    def index(self, lam: str, mu: str) -> tuple[int, int]:
        """Positions of a control pair in (min_labels, max_labels)."""
        return self.min_labels.index(lam), self.max_labels.index(mu)


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

    def _at(self, z) -> Coefficients:
        return _coefficient_bundle([[self]], np.atleast_2d(np.asarray(z, dtype=float)))

    def sigma_at(self, z) -> np.ndarray:
        return self._at(z).sigma[0, 0, 0]

    def diffusion_at(self, z) -> np.ndarray:
        """A = sigma^T sigma, symmetric PSD of size N+1."""
        return self._at(z).a[0, 0, 0]

    def drift_at(self, z) -> np.ndarray:
        return self._at(z).b[0, 0, 0]

    def c_at(self, z) -> float:
        return float(self._at(z).c[0, 0, 0])

    def f_at(self, z) -> float:
        return float(self._at(z).f[0, 0, 0])


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
    """Axis-aligned box Omega = prod [lower_i, upper_i] with profiles g+-."""

    n: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    g_minus: ScalarField
    g_plus: ScalarField
    epsilon0: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if len(self.lower) != self.n or len(self.upper) != self.n:
            raise ValueError("box bounds must have one entry per dimension")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("box must have positive extent")
        if not 0 < self.epsilon0 <= 1:
            raise ValueError("epsilon0 must lie in (0, 1]")

    def lattice(self, samples_per_axis: int) -> np.ndarray:
        """Uniform node lattice over the closed box, shape (m, n).

        ``samples_per_axis`` counts intervals, so doubling it refines the
        lattice into a superset of the coarse one.
        """
        return box_lattice(self.lower, self.upper, samples_per_axis)

    def boundary_nodes(self, samples_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary nodes with outward normals; corner normals are averaged."""
        if self.n == 1:
            pts = np.array([[self.lower[0]], [self.upper[0]]])
            nus = np.array([[-1.0], [1.0]])
            return pts, nus
        pts = self.lattice(samples_per_axis)
        at_lower = np.isclose(pts, self.lower)
        at_upper = np.isclose(pts, self.upper)
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
    raw_gamma_plus: VectorField | None = None  # first N components of gamma+ on the strip
    raw_gamma_minus: VectorField | None = None
    raw_beta_plus: ScalarField | None = None
    raw_beta_minus: ScalarField | None = None

    # x is one base point (y a float) or an (m, N) array (y shaped (m,))

    def gamma_plus(self, x, y) -> np.ndarray:
        if self.raw_gamma_plus is not None:
            g1 = self.raw_gamma_plus.value(strip_points(x, y))
        else:
            g1 = self.gamma0.value(x) + self.k_plus.value(x) * np.asarray(y)[..., None]
        return strip_points(g1, 1.0)

    def gamma_minus(self, x, y) -> np.ndarray:
        if self.raw_gamma_minus is not None:
            g1 = self.raw_gamma_minus.value(strip_points(x, y))
        else:
            g1 = -self.gamma0.value(x) + self.k_minus.value(x) * np.asarray(y)[..., None]
        return strip_points(g1, -1.0)

    def beta_plus(self, x, y):
        if self.raw_beta_plus is not None:
            return self.raw_beta_plus.value(strip_points(x, y))
        return self.beta0.value(x) + self.l_plus.value(x) * y

    def beta_minus(self, x, y):
        if self.raw_beta_minus is not None:
            return self.raw_beta_minus.value(strip_points(x, y))
        return -self.beta0.value(x) + self.l_minus.value(x) * y

    @property
    def has_raw(self) -> bool:
        return any(
            f is not None
            for f in (self.raw_gamma_plus, self.raw_gamma_minus, self.raw_beta_plus, self.raw_beta_minus)
        )


@dataclass(frozen=True)
class OperatorValue:
    value: float
    min_label: str
    max_label: str


@dataclass
class ThinProblem:
    controls: ControlSet
    coeffs: CoefficientFamily
    geom: GeometrySpec
    bdata: BoundaryData

    @property
    def n(self) -> int:
        return self.geom.n

    def control_pairs(self) -> list[tuple[str, str]]:
        return list(self.controls.pairs())

    def coefficients(self, points) -> Coefficients:
        """Every control pair's sigma, A, b, c, f at strip points shaped (m, N+1)."""
        labels = self.controls
        entries = [[self.coeffs.entry(lam, mu) for mu in labels.max_labels] for lam in labels.min_labels]
        return _coefficient_bundle(entries, np.atleast_2d(np.asarray(points, dtype=float)))

    def evaluate_operator(self, X: np.ndarray, p: np.ndarray, r: float, z) -> OperatorValue:
        """Inf over L, sup over M of -tr(A X) - b.p + c r - f at z = (x, y).

        Ties are broken toward the lowest label index, so the result is
        reproducible across runs.
        """
        return operator_value(self, X, p, r, z)


def inf_sup(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inf over L of the sup over M of per-control values shaped (..., nL, nM).

    Returns ``(value, lam_idx, mu_idx)``, each shaped like the leading axes.
    Ties go to the lowest index: the first argmin over L of the row maxima,
    then the first argmax over M within the chosen row.
    """
    values = np.asarray(values, dtype=float)
    row_max = values.max(axis=-1)
    lam_idx = row_max.argmin(axis=-1)
    row = np.take_along_axis(values, lam_idx[..., None, None], axis=-2)[..., 0, :]
    value = np.take_along_axis(row_max, lam_idx[..., None], axis=-1)[..., 0]
    return value, lam_idx, row.argmax(axis=-1)


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


def operator_value(source, X, p, r: float, point) -> OperatorValue:
    """The operator of ``source`` (anything with ``controls`` and ``coefficients``) at one point."""
    value, il, im = operator_infsup(source.coefficients(np.atleast_2d(point)), X, p, r)
    labels = source.controls
    return OperatorValue(float(value[0]), labels.min_labels[il[0]], labels.max_labels[im[0]])


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

    def failing(self) -> list[Diagnostic]:
        return [c for c in self.checks if not c.passed]


def _strip_lattice(geom: GeometrySpec, samples_per_axis: int) -> np.ndarray:
    """Lattice over the closed slab Omega x [-1, 1]."""
    base = geom.lattice(samples_per_axis)
    ys = np.linspace(-1.0, 1.0, samples_per_axis + 1)
    return strip_points(np.repeat(base, len(ys), axis=0), np.tile(ys, len(base)))


def validate(problem: ThinProblem, samples_per_axis: int = 8) -> DiagnosticsReport:
    """Sample-check every standing assumption; never aborts mid-scan.

    The scan runs on a uniform lattice, so violations strictly between nodes
    go undetected; refine ``samples_per_axis`` to tighten.
    """
    if samples_per_axis < 4:
        raise ValueError("samplesPerAxis must be >= 4")
    report = DiagnosticsReport()
    geom = problem.geom
    bdata = problem.bdata
    base = geom.lattice(samples_per_axis)
    slab = _strip_lattice(geom, samples_per_axis)

    # every expression finite on its domain
    bad = None
    base_fields = [
        ("beta0", bdata.beta0),
        ("l_plus", bdata.l_plus),
        ("l_minus", bdata.l_minus),
        ("s", bdata.s_candidate),
        ("g_minus", geom.g_minus),
        ("g_plus", geom.g_plus),
    ] + [(f"gamma0[{i}]", c) for i, c in enumerate(bdata.gamma0.components)] \
      + [(f"k_plus[{i}]", c) for i, c in enumerate(bdata.k_plus.components)] \
      + [(f"k_minus[{i}]", c) for i, c in enumerate(bdata.k_minus.components)]
    if bdata.h is not None:
        base_fields.append(("h", bdata.h))
    try:
        for name, fld in base_fields:
            fld.value(base)
        bdata.beta_lateral.value(slab)
        coeffs = problem.coefficients(slab)
    except (EvalDomainError, ExprError) as exc:
        bad = str(exc)
    report.checks.append(
        Diagnostic("ExpressionsFinite", bad is None, note=bad or "all fields finite on sampled lattice")
    )
    if bad is not None:
        # remaining checks would cascade the same failure
        return report

    # uniform bound C_F on the coefficient family; witnesses are the first
    # extreme in (node, lambda, mu) order
    def witness(values: np.ndarray, i: int) -> tuple:
        k, il, im = np.unravel_index(i, values.shape)
        return (_pt(np.round(slab[k], 12)), problem.controls.min_labels[il], problem.controls.max_labels[im])

    size = np.maximum.reduce(
        [np.abs(coeffs.sigma).max(axis=(-2, -1)), np.abs(coeffs.b).max(axis=-1), np.abs(coeffs.c), np.abs(coeffs.f)]
    )
    i = int(np.argmax(size))
    worst_bound, witness_bound = (float(size.flat[i]), witness(size, i)) if size.flat[i] > 0.0 else (0.0, None)
    i = int(np.argmin(coeffs.c))
    worst_c, witness_c = float(coeffs.c.flat[i]), witness(coeffs.c, i)
    eigs = np.linalg.eigvalsh(coeffs.a).min(axis=-1)
    i = int(np.argmin(eigs))
    worst_eig, witness_eig = float(eigs.flat[i]), witness(eigs, i)
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
    gp = geom.g_plus.value(base)
    gm = geom.g_minus.value(base)
    gaps = gp - gm
    i = int(np.argmin(gaps))
    report.checks.append(
        Diagnostic(
            "StrictOrdering",
            bool(gaps[i] > 0.0),
            worst=float(gaps[i]),
            witness=_pt(np.round(base[i], 12)),
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

    if bdata.h is not None:
        hv = bdata.h.value(base)
        above, below = gp - hv, hv - gm
        hronorm = np.where(below < above, below, above)
        i = int(np.argmin(hronorm))
        report.checks.append(
            Diagnostic(
                "BarrierLevelBetween",
                bool(hronorm[i] > 0.0),
                worst=float(hronorm[i]),
                witness=_pt(np.round(base[i], 12)),
                note="g- < h < g+ required",
            )
        )

    # boundary data: (h.4) by construction, (h.7) checked when raw data present
    if bdata.has_raw:
        g0 = bdata.gamma0.value(base)
        b0 = bdata.beta0.value(base)
        y0 = np.zeros(len(base))
        devs = np.stack(
            [
                np.abs(bdata.beta_plus(base, y0) - b0),
                np.abs(bdata.beta_minus(base, y0) + b0),
                np.abs(bdata.gamma_plus(base, y0)[:, : geom.n] - g0).max(axis=1),
                np.abs(bdata.gamma_minus(base, y0)[:, : geom.n] + g0).max(axis=1),
            ]
        ).max(axis=0)
        i = int(np.argmax(devs))
        worst, witness = (float(devs[i]), _pt(np.round(base[i], 12))) if devs[i] > 0.0 else (0.0, None)
        report.checks.append(
            Diagnostic(
                "Compatibility",
                worst <= 1e-9,
                worst=worst,
                witness=witness,
                note="raw gamma/beta must match (gamma0, beta0) at y=0",
            )
        )
    else:
        report.checks.append(
            Diagnostic("Compatibility", True, note="boundary data synthesized; holds by construction")
        )
    report.checks.append(
        Diagnostic("ObliqueNormalization", True, note="gamma2 = +-1 by construction")
    )
    return report
