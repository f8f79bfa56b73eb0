"""Certificates for the global ellipticity condition and its boundary twin.

The interior certificate scans v(x) = (Ds(x), -Ds(x) gamma0^T(x)) against
A(x, 0) = sigma^T sigma over a lattice of the closed base domain and all
control pairs; the boundary certificate does the same with the outward
normal in place of Ds.  Both report the attained minimum of the quadratic
form, a witness, and whether the margin clears the threshold.  The lattice
minimum is advisory: it only bounds the true infimum from above, but the
quadratic form is continuous so refinement converges.

Also included: the rotating diffusion field on R^2 whose single positive
eigenvalue winds once around the unit circle, and the demonstration that no
C^1 potential can certify ellipticity for it on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import Expr, ScalarField, base_vars, parse
from .problem import ThinProblem, quadratic_form, row_dot, row_matmul, strip_points

__all__ = [
    "CertificateReport",
    "EquivalenceReport",
    "ObstructionReport",
    "interior_certificate",
    "boundary_certificate",
    "equivalence_check",
    "rotating_field",
    "smooth_cutoff",
    "circle_obstruction_demo",
    "CERTIFICATE_THRESHOLD",
]

CERTIFICATE_THRESHOLD = 1e-8


@dataclass
class CertificateReport:
    margin: float
    witness: tuple  # (x, lambda, mu)
    passed: bool
    grid_spec: int
    threshold: float = CERTIFICATE_THRESHOLD
    norm_margin: float | None = None  # min of |v A|, reported for the boundary form
    kind: str = "interior"

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status} {self.kind} certificate: margin={self.margin:.6g} (threshold {self.threshold:g})",
            f"  witness x={self.witness[0]} control=({self.witness[1]}, {self.witness[2]})",
            f"  lattice: {self.grid_spec} intervals per axis",
        ]
        if self.norm_margin is not None:
            lines.append(f"  norm form min |v A| = {self.norm_margin:.6g}")
        return "\n".join(lines)


def _certificate_vectors(problem: ThinProblem, xs: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """(head, -head gamma0^T) in R^{N+1} at base points xs (m, N), for heads Ds(x) or nu(x)."""
    return strip_points(heads, -row_dot(heads, problem.bdata.gamma0.value(xs)))


def _interior_rows(problem: ThinProblem, samples_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice nodes and their interior certificate vectors (Ds, -Ds gamma0^T)."""
    xs = problem.geom.lattice(samples_per_axis)
    return xs, _certificate_vectors(problem, xs, problem.bdata.s_candidate.grad(xs))


def _forms(problem: ThinProblem, xs: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v A(x,0) v^T and |v A(x,0)| for rows (x, v) and every control pair, each (m, nL, nM)."""
    v = vs[:, None, None]
    va = row_matmul(v, problem.coefficients(strip_points(xs, 0.0)).a)
    return row_dot(va, v), np.sqrt(row_dot(va, va))


def _scan(problem: ThinProblem, xs: np.ndarray, vs: np.ndarray):
    """Minimize v A(x,0) v^T over the rows (x, v) and all controls; also the least |v A|."""
    q, norms = _forms(problem, xs, vs)
    # the first minimum in (row, lambda, mu) order
    k, il, im = np.unravel_index(int(np.argmin(q)), q.shape)
    labels = problem.controls
    witness = (tuple(float(v) for v in np.round(xs[k], 12)), labels.min_labels[il], labels.max_labels[im])
    return float(q[k, il, im]), witness, float(norms.min())


def interior_certificate(problem: ThinProblem, samples_per_axis: int = 16) -> CertificateReport:
    """Margin of the interior condition with the candidate potential s.

    The scanned form is v A(x,0) v^T with v = (Ds(x), -Ds(x) gamma0^T(x));
    a positive margin certifies (up to lattice resolution) that s witnesses
    the global ellipticity requirement.
    """
    margin, witness, _ = _scan(problem, *_interior_rows(problem, samples_per_axis))
    return CertificateReport(
        margin=margin,
        witness=witness,
        passed=margin > CERTIFICATE_THRESHOLD,
        grid_spec=samples_per_axis,
        kind="interior",
    )


def boundary_certificate(problem: ThinProblem, samples_per_axis: int = 16) -> CertificateReport:
    """Margin of the boundary condition with outward normals in place of Ds.

    Box corners carry the normalized average of the adjacent face normals.
    Both the quadratic form w A w^T and the norm form |w A| are reported.
    """
    nodes, normals = problem.geom.boundary_nodes(samples_per_axis)
    margin, witness, norm_margin = _scan(problem, nodes, _certificate_vectors(problem, nodes, normals))
    return CertificateReport(
        margin=margin,
        witness=witness,
        passed=margin > CERTIFICATE_THRESHOLD,
        grid_spec=samples_per_axis,
        norm_margin=norm_margin,
        kind="boundary",
    )


@dataclass
class EquivalenceReport:
    max_discrepancy: float
    witness: tuple
    passed: bool
    tolerance: float = 1e-10

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} |v sigma^T|^2 vs v A v^T: max discrepancy {self.max_discrepancy:.3e}"
            f" (tolerance {self.tolerance:g}) at {self.witness}"
        )


def equivalence_check(problem: ThinProblem, samples_per_axis: int = 16) -> EquivalenceReport:
    """Verify |v sigma^T|^2 == v A v^T on all certificate rows.

    Runs over the interior rows (v from Ds) and the boundary rows (v from
    the outward normal), for every control pair.
    """
    xs, vs = _interior_rows(problem, samples_per_axis)
    nodes, normals = problem.geom.boundary_nodes(samples_per_axis)
    xs = np.concatenate([xs, nodes])
    v = np.concatenate([vs, _certificate_vectors(problem, nodes, normals)])[:, None, None]
    coeffs = problem.coefficients(strip_points(xs, 0.0))
    vs_t = row_matmul(v, np.swapaxes(coeffs.sigma, -1, -2))
    diff = np.abs(row_dot(vs_t, vs_t) - quadratic_form(v, coeffs.a))
    worst = 0.0
    witness = None
    if diff.max() > 0.0:
        k, il, im = np.unravel_index(int(np.argmax(diff)), diff.shape)
        worst = float(diff[k, il, im])
        labels = problem.controls
        witness = (tuple(float(v) for v in np.round(xs[k], 12)), labels.min_labels[il], labels.max_labels[im])
    return EquivalenceReport(max_discrepancy=worst, witness=witness, passed=worst <= 1e-10)


# --- rotating-field obstruction ---------------------------------------------


def _bump(t: float) -> float:
    return math.exp(-1.0 / t) if t > 0.0 else 0.0


def smooth_cutoff(r: float) -> float:
    """C-infinity cutoff: 1 for r < 1/2, 0 for r >= 1, monotone in between.

    Built from the standard exp(-1/t) smoothstep.
    """
    if r <= 0.5:
        return 1.0
    if r >= 1.0:
        return 0.0
    t = 2.0 * r - 1.0  # maps (1/2, 1) to (0, 1)
    a = _bump(1.0 - t)
    b = _bump(t)
    return a / (a + b)


def rotating_field(x) -> np.ndarray:
    """Diffusion matrix R(theta) diag(chi(|x|), 1) R(theta)^{-1} at x in R^2.

    On the unit circle the matrix has eigenvalues {0, 1} with the zero
    eigenvector pointing radially, so the kernel direction rotates once
    around the circle; the cutoff chi extends the field smoothly to R^2
    (identity on the inner disc |x| < 1/2, eigenvalues {chi(|x|), 1}).
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r < 1e-12:
        return np.diag([smooth_cutoff(0.0), 1.0])
    theta = math.atan2(x[1], x[0])
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([smooth_cutoff(r), 1.0]) @ rot.T


@dataclass
class ObstructionRow:
    candidate: str
    theta_min: float
    q_min: float
    q_max: float
    ratio: float
    obstructed: bool


@dataclass
class ObstructionReport:
    rows: list[ObstructionRow]
    n_theta: int
    ratio_threshold: float = 1e-3

    @property
    def passed(self) -> bool:
        return all(r.obstructed for r in self.rows)

    def format(self) -> str:
        lines = [f"circle obstruction sweep, {self.n_theta} angles:"]
        for r in self.rows:
            lines.append(
                f"  s = {r.candidate:16s} min {r.q_min:.3e} at theta={r.theta_min:.4f}"
                f"  max {r.q_max:.3e}  ratio {r.ratio:.2e}  "
                + ("degenerates" if r.obstructed else "NOT degenerate")
            )
        return "\n".join(lines)


def circle_obstruction_demo(
    candidates: list[str | Expr] | None = None, n_theta: int = 4096
) -> ObstructionReport:
    """Show that no candidate potential certifies the rotating field on |x|=1.

    For each candidate s the sweep locates the angle minimizing
    Ds(x(theta)) A(theta) Ds(x(theta))^T; the minimum collapses relative to
    the maximum (ratio <= 1e-3), which is the numerical face of the
    mean-value argument: d/dtheta s(x(theta)) must vanish somewhere, and
    there Ds is radial, i.e. in the kernel of A.
    """
    if n_theta < 64:
        raise ValueError("nTheta must be >= 64")
    if candidates is None:
        candidates = ["x1", "x2", "x1 + x2", "pow(x1, 2)", "x1 * x2"]
    rows = []
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    for cand in candidates:
        fld = ScalarField(cand if isinstance(cand, Expr) else parse(cand), base_vars(2))
        pts = np.array([[math.cos(th), math.sin(th)] for th in thetas])
        qs = np.array([float(ds @ rotating_field(x) @ ds) for x, ds in zip(pts, fld.grad(pts))])
        imin = int(np.argmin(qs))
        qmin, qmax = float(qs[imin]), float(qs.max())
        ratio = qmin / qmax if qmax > 0 else 0.0
        rows.append(
            ObstructionRow(
                candidate=fld.expr.to_string(),
                theta_min=float(thetas[imin]),
                q_min=qmin,
                q_max=qmax,
                ratio=ratio,
                obstructed=ratio <= 1e-3,
            )
        )
    return ObstructionReport(rows=rows, n_theta=n_theta)
