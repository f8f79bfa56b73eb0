"""Certificates for the global ellipticity condition and its boundary twin.

The interior certificate scans v(x) = (Ds(x), -Ds(x) gamma0^T(x)) against
A(x, 0) = sigma^T sigma over a lattice of the closed base domain and all
control pairs; the boundary certificate does the same with the outward
normal in place of Ds.  Both build one :class:`CertificateReport` with
:meth:`CertificateReport.of`: the attained minimum of the quadratic form,
its witness from :func:`thinpde.problem.worst_node`, and whether the margin
is finite and clears the threshold (an overflowed form fails).  The lattice
minimum is advisory: it only bounds the true infimum from above, but the
quadratic form is continuous so refinement converges.  The identity
|v sigma^T|^2 = v A v^T behind the certificate is checked on the same rows
to roundoff and reported as a :class:`thinpde.problem.ToleranceCheck`.

Also included: the rotating diffusion field on R^2 whose single positive
eigenvalue winds once around the unit circle, and the demonstration that no
C^1 potential can certify ellipticity for it on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import ScalarField, base_vars, parse
from .problem import ThinProblem, ToleranceCheck, box_lattice, quadratic_form, row_dot, row_matmul, strip_points, worst_node

CERTIFICATE_THRESHOLD = 1e-8
# |v sigma^T|^2 = v A v^T holds exactly, so a discrepancy above roundoff is a defect
_EQUIVALENCE_TOL = 1e-10
# a candidate's quadratic form degenerates where its minimum falls to this fraction of its maximum
_OBSTRUCTION_RATIO = 1e-3
# the potentials the obstruction sweep tries
_CANDIDATES = ("x1", "x2", "x1 + x2", "pow(x1, 2)", "x1 * x2")


@dataclass
class CertificateReport:
    """The least v A(x,0) v^T over a lattice's rows and control pairs, and its first witness; only a finite margin passes."""

    margin: float
    witness: tuple  # (x, lambda, mu)
    grid_spec: int
    norm_margin: float | None = None  # min of |v A|, reported for the boundary form
    kind: str = "interior"

    @classmethod
    def of(cls, problem: ThinProblem, xs: np.ndarray, vs: np.ndarray, samples_per_axis: int, kind: str) -> CertificateReport:
        """The certificate of the rows (xs, vs); the boundary one also reports the least |v A|."""
        q, norms = certificate_forms(problem, xs, vs)
        norm_margin = float(norms.min()) if kind == "boundary" else None
        return cls(*worst_node(q, xs, False, problem.controls), samples_per_axis, norm_margin, kind)

    @property
    def passed(self) -> bool:
        return CERTIFICATE_THRESHOLD < self.margin < math.inf

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status} {self.kind} certificate: margin={self.margin:.6g} (threshold {CERTIFICATE_THRESHOLD:g})",
            f"  witness x={self.witness[0]} control=({self.witness[1]}, {self.witness[2]})",
            f"  lattice: {self.grid_spec} intervals per axis",
        ]
        if self.norm_margin is not None:
            lines.append(f"  norm form min |v A| = {self.norm_margin:.6g}")
        return "\n".join(lines)


def _certificate_vectors(problem: ThinProblem, xs: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """(head, -head gamma0^T) in R^{N+1} at base points xs (m, N), for heads Ds(x) or nu(x)."""
    return strip_points(heads, -row_dot(heads, problem.bdata.gamma0.value(xs)))


def interior_rows(problem: ThinProblem, samples_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice nodes and their interior certificate vectors (Ds, -Ds gamma0^T)."""
    xs = box_lattice(problem.geom.lower, problem.geom.upper, samples_per_axis)
    return xs, _certificate_vectors(problem, xs, problem.bdata.s_candidate.grad(xs))


def certificate_forms(problem: ThinProblem, xs: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v A(x,0) v^T and |v A(x,0)| for rows (x, v) and every control pair, each (m, nL, nM); an overflow gives inf or nan."""
    v = vs[:, None, None]
    a = problem.coefficients(strip_points(xs, 0.0)).a
    with np.errstate(over="ignore", invalid="ignore"):
        va = row_matmul(v, a)
        return row_dot(va, v), np.sqrt(row_dot(va, va))


def interior_certificate(problem: ThinProblem, samples_per_axis: int = 16) -> CertificateReport:
    """Margin of the interior condition with the candidate potential s.

    The scanned form is v A(x,0) v^T with v = (Ds(x), -Ds(x) gamma0^T(x));
    a positive margin certifies (up to lattice resolution) that s witnesses
    the global ellipticity requirement.
    """
    return CertificateReport.of(problem, *interior_rows(problem, samples_per_axis), samples_per_axis, "interior")


def boundary_certificate(problem: ThinProblem, samples_per_axis: int = 16) -> CertificateReport:
    """Margin of the boundary condition with outward normals in place of Ds.

    Box corners carry the normalized average of the adjacent face normals.
    Both the quadratic form w A w^T and the norm form |w A| are reported.
    """
    nodes, normals = problem.geom.boundary_nodes(samples_per_axis)
    return CertificateReport.of(problem, nodes, _certificate_vectors(problem, nodes, normals), samples_per_axis, "boundary")


def equivalence_check(problem: ThinProblem, samples_per_axis: int = 16) -> ToleranceCheck:
    """Verify |v sigma^T|^2 == v A v^T on all certificate rows.

    Runs over the interior rows (v from Ds) and the boundary rows (v from
    the outward normal), for every control pair.
    """
    xs, vs = interior_rows(problem, samples_per_axis)
    nodes, normals = problem.geom.boundary_nodes(samples_per_axis)
    xs = np.concatenate([xs, nodes])
    v = np.concatenate([vs, _certificate_vectors(problem, nodes, normals)])[:, None, None]
    coeffs = problem.coefficients(strip_points(xs, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        vs_t = row_matmul(v, np.swapaxes(coeffs.sigma, -1, -2))
        diff = np.abs(row_dot(vs_t, vs_t) - quadratic_form(v, coeffs.a))
    return ToleranceCheck.of("|v sigma^T|^2 vs v A v^T: max discrepancy", diff, xs, _EQUIVALENCE_TOL, problem.controls)


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


def circle_obstruction_demo(n_theta: int) -> ObstructionReport:
    """Show that no candidate potential certifies the rotating field on |x|=1.

    For each candidate s of ``_CANDIDATES`` the sweep over ``n_theta``
    angles locates the angle minimizing Ds(x(theta)) A(theta) Ds(x(theta))^T;
    the minimum collapses relative to the maximum (ratio <= 1e-3), which is
    the numerical face of the mean-value argument: d/dtheta s(x(theta)) must
    vanish somewhere, and there Ds is radial, i.e. in the kernel of A.
    The field A is built once per angle, before the candidates, and each
    candidate's forms are taken with :func:`quadratic_form`.
    """
    if n_theta < 64:
        raise ValueError("n_theta must be >= 64")
    rows = []
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    pts = np.array([[math.cos(th), math.sin(th)] for th in thetas])
    diffusion = np.array([rotating_field(x) for x in pts])
    for cand in _CANDIDATES:
        fld = ScalarField(parse(cand), base_vars(2))
        qs = quadratic_form(fld.grad(pts), diffusion)
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
                obstructed=ratio <= _OBSTRUCTION_RATIO,
            )
        )
    return ObstructionReport(rows=rows, n_theta=n_theta)
