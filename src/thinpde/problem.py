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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .expressions import EvalDomainError, ExprError, ScalarField, VectorField

__all__ = [
    "ControlSet",
    "CoefficientEntry",
    "CoefficientFamily",
    "GeometrySpec",
    "BoundaryData",
    "ThinProblem",
    "OperatorValue",
    "inf_sup",
    "operator_infsup",
    "Diagnostic",
    "DiagnosticsReport",
    "validate",
    "PSD_TOLERANCE",
]

PSD_TOLERANCE = 1e-10


def _pt(z) -> tuple:
    """Plain-float tuple for witness reporting."""
    return tuple(float(v) for v in np.atleast_1d(z))


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


@dataclass
class CoefficientEntry:
    """One control pair's fields on the strip: sigma (k x N+1), b (N+1), c, f."""

    sigma: tuple[tuple[ScalarField, ...], ...]
    b: tuple[ScalarField, ...]
    c: ScalarField
    f: ScalarField

    def sigma_at(self, z) -> np.ndarray:
        return np.array([[e.value(z) for e in row] for row in self.sigma])

    def diffusion_at(self, z) -> np.ndarray:
        """A = sigma^T sigma, symmetric PSD of size N+1."""
        s = self.sigma_at(z)
        return s.T @ s

    def drift_at(self, z) -> np.ndarray:
        return np.array([e.value(z) for e in self.b])

    def c_at(self, z) -> float:
        return self.c.value(z)

    def f_at(self, z) -> float:
        return self.f.value(z)


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
        axes = [np.linspace(lo, hi, samples_per_axis + 1) for lo, hi in zip(self.lower, self.upper)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def boundary_nodes(self, samples_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary nodes with outward normals; corner normals are averaged."""
        if self.n == 1:
            pts = np.array([[self.lower[0]], [self.upper[0]]])
            nus = np.array([[-1.0], [1.0]])
            return pts, nus
        pts = self.lattice(samples_per_axis)
        normals = []
        nodes = []
        for p in pts:
            nu = np.zeros(self.n)
            on_boundary = False
            for i in range(self.n):
                if np.isclose(p[i], self.lower[i]):
                    nu[i] -= 1.0
                    on_boundary = True
                if np.isclose(p[i], self.upper[i]):
                    nu[i] += 1.0
                    on_boundary = True
            if on_boundary:
                nodes.append(p)
                normals.append(nu / np.linalg.norm(nu))
        return np.array(nodes), np.array(normals)


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

    def gamma_plus(self, x, y: float) -> np.ndarray:
        if self.raw_gamma_plus is not None:
            g1 = self.raw_gamma_plus.value(np.append(x, y))
        else:
            g1 = self.gamma0.value(x) + self.k_plus.value(x) * y
        return np.append(g1, 1.0)

    def gamma_minus(self, x, y: float) -> np.ndarray:
        if self.raw_gamma_minus is not None:
            g1 = self.raw_gamma_minus.value(np.append(x, y))
        else:
            g1 = -self.gamma0.value(x) + self.k_minus.value(x) * y
        return np.append(g1, -1.0)

    def beta_plus(self, x, y: float) -> float:
        if self.raw_beta_plus is not None:
            return self.raw_beta_plus.value(np.append(x, y))
        return self.beta0.value(x) + self.l_plus.value(x) * y

    def beta_minus(self, x, y: float) -> float:
        if self.raw_beta_minus is not None:
            return self.raw_beta_minus.value(np.append(x, y))
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

    def evaluate_operator(self, X: np.ndarray, p: np.ndarray, r: float, z) -> OperatorValue:
        """Inf over L, sup over M of -tr(A X) - b.p + c r - f at z = (x, y).

        Ties are broken toward the lowest label index, so the result is
        reproducible across runs.
        """

        def coefficients(lam, mu):
            e = self.coeffs.entry(lam, mu)
            return e.diffusion_at(z), e.drift_at(z), e.c_at(z), e.f_at(z)

        return operator_infsup(self.controls.min_labels, self.controls.max_labels, coefficients, X, p, r)


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


def operator_infsup(min_labels, max_labels, coefficients, X, p, r: float) -> OperatorValue:
    """Inf over L, sup over M of -tr(A X) - b.p + c r - f.

    ``coefficients(lam, mu)`` returns the control pair's (A, b, c, f) at the
    evaluation point; ties go to the lowest label index (see :func:`inf_sup`).
    """
    X = np.asarray(X, dtype=float)
    p = np.asarray(p, dtype=float)

    def term(lam, mu) -> float:
        a, b, c, f = coefficients(lam, mu)
        return -float(np.sum(a * X)) - float(b @ p) + c * r - f

    value, il, im = inf_sup([[term(lam, mu) for mu in max_labels] for lam in min_labels])
    return OperatorValue(float(value), min_labels[il], max_labels[im])


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
    pts = np.empty((len(base) * len(ys), geom.n + 1))
    i = 0
    for x in base:
        for y in ys:
            pts[i, : geom.n] = x
            pts[i, geom.n] = y
            i += 1
    return pts


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
    pairs = problem.control_pairs()

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
            for x in base:
                fld.value(x)
        for x in slab:
            bdata.beta_lateral.value(x)
            for lam, mu in pairs:
                e = problem.coeffs.entry(lam, mu)
                e.sigma_at(x)
                e.drift_at(x)
                e.c_at(x)
                e.f_at(x)
    except (EvalDomainError, ExprError) as exc:
        bad = str(exc)
    report.checks.append(
        Diagnostic("ExpressionsFinite", bad is None, note=bad or "all fields finite on sampled lattice")
    )
    if bad is not None:
        # remaining checks would cascade the same failure
        return report

    # uniform bound C_F on the coefficient family
    worst_bound = 0.0
    witness_bound = None
    worst_c = np.inf
    witness_c = None
    worst_eig = np.inf
    witness_eig = None
    for z in slab:
        for lam, mu in pairs:
            e = problem.coeffs.entry(lam, mu)
            s = e.sigma_at(z)
            b = e.drift_at(z)
            c = e.c_at(z)
            f = e.f_at(z)
            m = max(np.abs(s).max(), np.abs(b).max(), abs(c), abs(f))
            if m > worst_bound:
                worst_bound = m
                witness_bound = (_pt(np.round(z, 12)), lam, mu)
            if c < worst_c:
                worst_c = c
                witness_c = (_pt(np.round(z, 12)), lam, mu)
            eig = np.linalg.eigvalsh(s.T @ s).min()
            if eig < worst_eig:
                worst_eig = eig
                witness_eig = (_pt(np.round(z, 12)), lam, mu)
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
    gaps = np.array([geom.g_plus.value(x) - geom.g_minus.value(x) for x in base])
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
    gmax = max(
        max(abs(geom.g_plus.value(x)) for x in base),
        max(abs(geom.g_minus.value(x)) for x in base),
    )
    report.checks.append(
        Diagnostic(
            "SlabContainment",
            geom.epsilon0 * gmax <= 1.0 + 1e-12,
            worst=geom.epsilon0 * gmax,
            note="epsilon0 * sup|g| must be <= 1",
        )
    )

    if bdata.h is not None:
        hronorm = np.array(
            [min(geom.g_plus.value(x) - bdata.h.value(x), bdata.h.value(x) - geom.g_minus.value(x)) for x in base]
        )
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
        worst = 0.0
        witness = None
        for x in base:
            g0 = bdata.gamma0.value(x)
            b0 = bdata.beta0.value(x)
            devs = [
                abs(bdata.beta_plus(x, 0.0) - b0),
                abs(bdata.beta_minus(x, 0.0) + b0),
                float(np.abs(bdata.gamma_plus(x, 0.0)[: geom.n] - g0).max()),
                float(np.abs(bdata.gamma_minus(x, 0.0)[: geom.n] + g0).max()),
            ]
            d = max(devs)
            if d > worst:
                worst = d
                witness = _pt(np.round(x, 12))
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
