import math

import numpy as np
import pytest

from thinpde import distortion
from thinpde.distortion import (
    DistortionMap,
    NoConvergenceError,
    build_map,
    check_exactness,
    hat_coefficients,
    hat_oblique,
    matrix_r,
    top_profile,
    transplant_ellipticity,
)
from thinpde.expressions import ScalarField, VectorField, base_vars, parse
from problems import reference_problem


def _map_for(gamma_text: str, problem=None) -> DistortionMap:
    problem = problem or reference_problem(gamma0=gamma_text)
    return build_map(problem)


def _inverse(dmap, x, y) -> np.ndarray:
    """The preimage z of one point (x, y), through the array form."""
    return dmap.inverse(np.array([x], dtype=float), np.array([y], dtype=float))[0]


def _profile(dmap, g, eps, z) -> float:
    """The profile height over one base point z, through the array form."""
    return float(top_profile(dmap, g, eps, np.array([z], dtype=float))[0])


def _forward(dmap, z, y) -> np.ndarray:
    """P(z, y) at one point, through the array form."""
    return dmap.forward(np.array([z], dtype=float), np.array([y], dtype=float))[0]


def _matrix_r(dmap, z, y) -> np.ndarray:
    """R at one point, through the array form."""
    return matrix_r(dmap, np.array([z], dtype=float), np.array([y], dtype=float))[0]


def _hat_coefficients(problem, dmap, z, y):
    """The hatted coefficients at one point, through the array form: still shaped (1, nL, nM, ...)."""
    return hat_coefficients(problem, dmap, np.array([z], dtype=float), np.array([y], dtype=float))


def _hat_oblique(problem, dmap, sign, z, y):
    """(gamma^, beta^) at one point, through the array form."""
    gamma, beta = hat_oblique(problem, dmap, sign, np.array([z], dtype=float), np.array([y], dtype=float))
    return gamma[0], beta[0]


def _d2q(dmap, z, y) -> np.ndarray:
    """The Hessians of Q at P(z, y) for one preimage z, through the array form."""
    z, y = np.array([z], dtype=float), np.array([y], dtype=float)
    return dmap.d2q(z, y, matrix_r(dmap, z, y))[0]


def test_forward_identity_for_zero_gamma(reference):
    dmap = build_map(reference)
    assert dmap.r == 0.5
    assert np.allclose(_forward(dmap, [0.3], 0.2), [0.3, 0.2])
    assert np.allclose(_inverse(dmap, [0.3], 0.2), [0.3])


def test_forward_examples():
    dmap = _map_for("1")
    assert np.allclose(_forward(dmap, [0.0], 0.1), [0.1, 0.1])
    assert np.allclose(_forward(dmap, [0.4], 0.0), [0.4, 0.0])  # identity at y = 0


def test_inverse_constant_gamma_exact():
    dmap = _map_for("1")
    z = _inverse(dmap, [0.5], 0.2)
    assert z[0] == pytest.approx(0.3, abs=1e-12)


def test_inverse_nonlinear_bisection_oracle():
    dmap = _map_for("0.1*sin(x1)")
    z = _inverse(dmap, [1.0], 0.1)[0]
    # oracle: bisection for z + 0.01 sin z = 1 on [0.9, 1.0]
    lo, hi = 0.9, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + 0.01 * math.sin(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert z == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_inverse_no_convergence(monkeypatch):
    gamma = VectorField([ScalarField(parse("5*x1"), base_vars(1))])
    monkeypatch.setattr(distortion, "_FIXED_POINT_MAX_ITER", 8)
    dmap = DistortionMap(gamma=gamma, r=0.5)  # |y Dgamma| = 2.5 > 1
    with pytest.raises(NoConvergenceError):
        _inverse(dmap, [1.0], 0.5)


def test_round_trip_identities(transform_demo):
    dmap = build_map(transform_demo)
    lo, hi = dmap.omega_hat
    for x in np.linspace(lo[0], hi[0], 9):
        for y in np.linspace(-dmap.r, dmap.r, 7):
            z = _inverse(dmap, [x], y)
            assert np.abs(_forward(dmap, z, y) - [x, y]).max() <= 1e-10
            fwd = _forward(dmap, [x], y)
            assert np.abs(_inverse(dmap, fwd[:-1], y) - [x]).max() <= 1e-10
            # displacement bound
            assert np.abs(np.append(z, y) - [x, y]).max() <= dmap.r * dmap.gamma_sup + 1e-12


def test_profile_trivial_cases(reference, transform_demo):
    dmap0 = build_map(reference)
    for z in np.linspace(0, 1, 5):
        assert _profile(dmap0, reference.geom.g_plus, 0.1, [z]) == pytest.approx(0.1, abs=1e-12)
        assert _profile(dmap0, reference.geom.g_minus, 0.1, [z]) == pytest.approx(-0.1, abs=1e-12)
    # constant g+: the fixed point is eps*G regardless of gamma
    dmap = build_map(transform_demo)
    const = ScalarField(parse("0.7"), base_vars(1))
    assert _profile(dmap, const, 0.1, [0.3]) == pytest.approx(0.07, abs=1e-12)


def test_profile_linear_closed_form():
    # g+ = 1 + 0.5 x1, gamma = 0.2, z = 0: y = 0.1 / 0.99
    p = reference_problem(gamma0="0.2")
    dmap = build_map(p)
    g = ScalarField(parse("1 + 0.5*x1"), base_vars(1))
    y = _profile(dmap, g, 0.1, [0.0])
    assert y == pytest.approx(0.1 / 0.99, abs=1e-11)


def test_profile_quadratic_gap(transform_demo):
    dmap = build_map(transform_demo)
    lo, hi = dmap.omega_hat
    zs = np.linspace(lo[0], hi[0], 17)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    gaps = []
    for eps in eps_list:
        gap = max(
            abs(_profile(dmap, transform_demo.geom.g_plus, eps, [z]) - eps * transform_demo.geom.g_plus.value([[z]])[0])
            for z in zs
        )
        gaps.append(gap)
    slope = float(np.polyfit(np.log(eps_list), np.log(gaps), 1)[0])
    assert slope >= 1.9


def test_profile_ordering_equivalence(transform_demo):
    # y > g_eps+(z)  iff  y > eps g+(z + y gamma(z))
    dmap = build_map(transform_demo)
    rng = np.random.default_rng(0)
    eps = 0.1
    for _ in range(200):
        z = np.array([rng.uniform(-0.1, 1.1)])
        y = rng.uniform(-dmap.r, dmap.r)
        ge = _profile(dmap, transform_demo.geom.g_plus, eps, z)
        lhs = y > ge
        rhs = y > eps * transform_demo.geom.g_plus.value((z + y * dmap.gamma.value(z[None])[0])[None])[0]
        if abs(y - ge) > 1e-9:
            assert lhs == rhs


def test_matrix_r_examples():
    dmap = _map_for("1")
    r0 = _matrix_r(dmap, [0.2], 0.0)
    assert np.allclose(r0, [[1.0, -1.0], [0.0, 1.0]])
    r5 = _matrix_r(dmap, [0.2], 0.5)  # Dgamma = 0 for constant gamma
    assert np.allclose(r5, [[1.0, -1.0], [0.0, 1.0]])
    dmap0 = build_map(reference_problem())
    assert np.allclose(_matrix_r(dmap0, [0.2], 0.3), np.eye(2))


def test_pushforward_identity_for_zero_gamma(reference):
    dmap = build_map(reference)
    for z in np.linspace(0, 1, 5):
        co, e = _hat_coefficients(reference, dmap, [z], 0.1), reference.coefficients(np.array([[z, 0.1]]))
        assert np.allclose(co.sigma[0, 0, 0], e.sigma[0, 0, 0], atol=1e-12)
        assert np.allclose(co.b[0, 0, 0], e.b[0, 0, 0], atol=1e-12)
        assert co.c[0, 0, 0] == pytest.approx(e.c[0, 0, 0])
        assert co.f[0, 0, 0] == pytest.approx(e.f[0, 0, 0])


def test_pushforward_constant_gamma_affine():
    # constant gamma makes Q affine: the curvature drift vanishes exactly
    p = reference_problem(gamma0="0.3")
    dmap = build_map(p)
    assert dmap.gamma.is_constant
    co = _hat_coefficients(p, dmap, [0.4], 0.2)
    # the hatted drift less its transported part (b o P) R^T
    b_moved = p.coefficients(_forward(dmap, [0.4], 0.2)[None]).b[0, 0, 0] @ _matrix_r(dmap, [0.4], 0.2).T
    d = co.b[0, 0, 0] - b_moved
    assert np.allclose(d, 0.0)
    s = co.sigma[0, 0, 0]
    assert np.allclose(s, np.eye(2) @ _matrix_r(dmap, [0.4], 0.2).T)


def test_curvature_drift_dual_path():
    # Hessians of Q vs differentiating the identity Q o P = id by hand
    p = reference_problem(gamma0="0.1*sin(x1)")
    dmap = build_map(p)
    x, y = 0.7, 0.2
    z = float(_inverse(dmap, [x], y)[0])
    d2q = _d2q(dmap, [z], y)

    g = 0.1 * math.sin(z)
    g1 = 0.1 * math.cos(z)
    g2 = -0.1 * math.sin(z)
    den = 1.0 + y * g1
    z_x = 1.0 / den
    z_y = -g / den
    z_xx = -y * g2 * z_x / den**2
    z_xy = -(g1 + y * g2 * z_y) / den**2
    z_yy = -((g1 * z_y) * den - g * (g1 + y * g2 * z_y)) / den**2
    assert d2q[0, 0, 0] == pytest.approx(z_xx, abs=1e-3)
    assert d2q[0, 0, 1] == pytest.approx(z_xy, abs=1e-3)
    assert d2q[0, 1, 1] == pytest.approx(z_yy, abs=1e-3)
    assert np.allclose(d2q[1], 0.0)  # last component is the identity in y


def test_d2q_linear_gamma_closed_form():
    # gamma0 = 0.2 x1 inverts to z = x / (1 + 0.2 y)
    dmap = _map_for("0.2*x1")
    x = np.linspace(-0.2, 1.2, 8)
    y = np.linspace(-dmap.r, dmap.r, 8)
    z = dmap.inverse(x[:, None], y)
    d2q = dmap.d2q(z, y, matrix_r(dmap, z, y))
    m = 1.0 + 0.2 * y
    assert np.abs(d2q[:, 0, 0, 0]).max() <= 1e-12
    assert np.abs(d2q[:, 0, 0, 1] + 0.2 / m**2).max() <= 1e-12
    assert np.abs(d2q[:, 0, 1, 0] + 0.2 / m**2).max() <= 1e-12
    assert np.abs(d2q[:, 0, 1, 1] - 0.08 * x / m**3).max() <= 1e-12
    assert not d2q[:, 1].any()


def test_d2q_nonlinear_gamma_matches_differenced_inverse(monkeypatch):
    monkeypatch.setattr(distortion, "_FIXED_POINT_TOL", 1e-15)
    dmap = _map_for("0.1*x1*x1")
    h = 1e-3
    for x, y in [(0.3, 0.2), (0.9, -0.35), (-0.4, 0.45)]:
        p = np.array([x, y])

        def q(dx, dy):
            return _inverse(dmap, [p[0] + dx], p[1] + dy)[0]

        d2q = _d2q(dmap, _inverse(dmap, [x], y), y)[0]
        # fourth-order central differences of the inverse
        w2 = ((-2 * h, -1.0 / 12), (-h, 4.0 / 3), (0.0, -5.0 / 2), (h, 4.0 / 3), (2 * h, -1.0 / 12))
        w1 = ((-2 * h, 1.0 / 12), (-h, -2.0 / 3), (h, 2.0 / 3), (2 * h, -1.0 / 12))
        zxx = sum(c * q(s, 0.0) for s, c in w2) / h**2
        zyy = sum(c * q(0.0, s) for s, c in w2) / h**2
        zxy = sum(ci * cj * q(si, sj) for si, ci in w1 for sj, cj in w1) / h**2
        assert d2q[0, 0] == pytest.approx(zxx, abs=1e-8)
        assert d2q[1, 1] == pytest.approx(zyy, abs=1e-8)
        assert d2q[0, 1] == pytest.approx(zxy, abs=1e-8)
        assert d2q[1, 0] == d2q[0, 1]


def test_hat_boundary_exactness(distorted):
    dmap = build_map(distorted)
    report = check_exactness(distorted, dmap)
    assert report.worst <= 1e-12
    assert report.format() == "PASS straightened boundary data: max deviation 0.000e+00 (tolerance 1e-12)"
    gp, _ = _hat_oblique(distorted, dmap, 1.0, [0.5], 0.1)
    assert gp[-1] == 1.0
    gm, _ = _hat_oblique(distorted, dmap, -1.0, [0.5], 0.1)
    assert gm[-1] == -1.0
    assert _hat_oblique(distorted, dmap, 1.0, [0.5], 0.0)[1] == pytest.approx(0.0)


def test_hat_boundary_exactness_names_its_witness(distorted, monkeypatch):
    # the original oblique data at P(z, y), not rotated by R^T: its head is gamma0(x) != 0 at y = 0
    def unrotated(problem, dmap, sign, z, y):
        p = dmap.forward(z, y)
        return problem.bdata.oblique(sign, p[:, :-1], p[:, -1])

    monkeypatch.setattr(distortion, "hat_oblique", unrotated)
    report = check_exactness(distorted, build_map(distorted))
    assert not report.passed
    assert report.worst == pytest.approx(0.2)  # |gamma0| = 0.2 x1 at x1 = 1
    assert report.witness == (1.0, 0.0)
    assert report.format().startswith("FAIL straightened boundary data: max deviation 2.000e-01 (tolerance 1e-12) at ")


def test_hat_boundary_first_components_order_y(distorted):
    dmap = build_map(distorted)
    for y in (0.05, 0.025, 0.0125):
        g, _ = _hat_oblique(distorted, dmap, 1.0, [0.5], y)
        assert abs(g[0]) <= 0.5 * y  # O(|y|) with a modest constant


def test_transplant_matches_interior(reference, distorted):
    rep0 = transplant_ellipticity(reference, build_map(reference))
    assert rep0.passed
    assert rep0.margin == pytest.approx(1.0)
    rep = transplant_ellipticity(distorted, build_map(distorted))
    assert rep.passed
    assert rep.crosscheck_max_diff <= 1e-9


def test_transplant_constant_gamma_value():
    # A = I2, gamma = 1, s = x1: both sides equal (1, -1) I (1, -1)^T = 2
    p = reference_problem(gamma0="1")
    rep = transplant_ellipticity(p, build_map(p))
    assert rep.margin == pytest.approx(2.0)
    assert rep.crosscheck_max_diff <= 1e-12


def test_hat_operator_nonnegative_c_and_psd(distorted):
    dmap = build_map(distorted)
    rng = np.random.default_rng(1)
    for _ in range(40):
        z = [rng.uniform(-0.1, 1.1)]
        y = rng.uniform(-dmap.r, dmap.r)
        co = _hat_coefficients(distorted, dmap, z, y)
        assert co.c[0, 0, 0] >= 0.0
        a = co.a[0, 0, 0]
        assert np.linalg.eigvalsh(a).min() >= -1e-10


# --- batched maps against the per-point loops they replaced -------------------

from pathlib import Path  # noqa: E402

from thinpde.config import load_problem  # noqa: E402
from problems import transform_demo_problem  # noqa: E402
from thinpde.problem import box_lattice  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _ref_inverse(dmap, x, y):
    """Reference: the per-point contraction."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = x.copy()
    for _ in range(distortion._FIXED_POINT_MAX_ITER):
        z_next = x - y * dmap.gamma.value(z[None])[0]
        step = float(np.abs(z_next - z).max())
        z = z_next
        if step <= distortion._FIXED_POINT_TOL:
            return z
    residual = float(np.abs(z + y * dmap.gamma.value(z[None])[0] - x).max())
    if residual <= distortion._FIXED_POINT_TOL:
        return z
    raise NoConvergenceError(distortion._FIXED_POINT_MAX_ITER, residual)


def _ref_matrix_r(dmap, z, y):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = dmap.n
    m = np.eye(n) + y * dmap.gamma.jacobian(z[None])[0]
    minv = np.linalg.inv(m)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = minv
    out[:n, n] = -minv @ dmap.gamma.value(z[None])[0]
    out[n, n] = 1.0
    return out


def _ref_profile(dmap, g, eps, z, tol=1e-12):
    """Reference: the per-point safeguarded Newton iteration."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    gz = dmap.gamma.value(z[None])[0]

    def f(y):
        return y - eps * g.value((z + y * gz)[None])[0]

    lo, hi = -dmap.r, dmap.r
    assert f(lo) <= 0.0 <= f(hi)
    y = 0.0
    for _ in range(200):
        fy = f(y)
        if fy > 0.0:
            hi = y
        else:
            lo = y
        if abs(fy) <= tol or hi - lo < 1e-16:
            return y
        slope = 1.0 - eps * float(g.grad((z + y * gz)[None])[0] @ gz)
        if slope > 0.0 and lo < y - fy / slope < hi:
            y = y - fy / slope
        else:
            y = 0.5 * (lo + hi)
    return y


def _bisect_profile(dmap, g, eps, z, steps=60):
    """Oracle: plain bisection of y - eps g(z + y gamma(z)) on [-r, r]."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lo, hi = -dmap.r, dmap.r
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid - eps * g.value((z + mid * dmap.gamma.value(z[None])[0])[None])[0] > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_profile_curved_g_nonlinear_gamma_matches_bisection():
    dmap = _map_for("0.3*sin(2*x1) + 0.1*x1*x1")
    g = ScalarField(parse("1 + 0.3*sin(pi*x1)"), base_vars(1))
    zs = box_lattice(*dmap.omega_hat, 32)
    for eps in (0.1, 0.025):
        ys = top_profile(dmap, g, eps, zs)
        residual = ys - eps * g.value(zs + ys[:, None] * dmap.gamma.value(zs))
        assert np.abs(residual).max() <= 1e-12
        assert np.abs(ys - [_bisect_profile(dmap, g, eps, z) for z in zs]).max() <= 1e-12


def test_profile_constant_g_is_eps_g_exactly(transform_demo):
    dmap = build_map(transform_demo)
    zs = box_lattice(*dmap.omega_hat, 16)
    for text, eps in (("0.7", 0.1), ("-1", 0.05), ("1", 0.025)):
        g = ScalarField(parse(text), base_vars(1))
        assert _same(top_profile(dmap, g, eps, zs), eps * g.value(zs))


@pytest.fixture(scope="module")
def hat_lattice():
    problem = load_problem(CONFIGS / "distorted.cfg")
    dmap = build_map(problem)
    zs = box_lattice(*dmap.omega_hat, 16)
    ys = np.linspace(-dmap.r, dmap.r, 7)
    return problem, dmap, zs, np.repeat(zs, len(ys), axis=0), np.tile(ys, len(zs))


def _same(got, want):
    return got.tobytes() == np.array(want, dtype=float).tobytes()


def test_batched_inverse_and_r_match_per_point(hat_lattice):
    _, dmap, _, z, y = hat_lattice
    assert _same(dmap.inverse(z, y), [_ref_inverse(dmap, zi, yi) for zi, yi in zip(z, y)])
    assert _same(matrix_r(dmap, z, y), [_ref_matrix_r(dmap, zi, yi) for zi, yi in zip(z, y)])
    assert _same(dmap.d2q(z, y, matrix_r(dmap, z, y)), [_d2q(dmap, zi, yi) for zi, yi in zip(z, y)])


@pytest.mark.parametrize("case", ["distorted.cfg", "transform_demo"])
def test_batched_profiles_match_per_point(case, hat_lattice):
    problem, dmap, zs, _, _ = hat_lattice
    if case == "transform_demo":
        problem = transform_demo_problem()
        dmap = build_map(problem)
    for eps in (0.1, 0.025):
        for g in (problem.geom.g_plus, problem.geom.g_minus):
            assert _same(top_profile(dmap, g, eps, zs), [_ref_profile(dmap, g, eps, z) for z in zs])


def test_batched_inverse_reports_no_convergence(hat_lattice, monkeypatch):
    problem, _, _, z, y = hat_lattice
    monkeypatch.setattr(distortion, "_FIXED_POINT_MAX_ITER", 1)
    dmap = build_map(problem)
    with pytest.raises(NoConvergenceError):
        dmap.inverse(z, y)
    # points with y = 0 are fixed after one step
    assert _same(dmap.inverse(z, np.zeros(len(z))), z)
