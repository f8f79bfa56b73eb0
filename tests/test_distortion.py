import math

import numpy as np
import pytest

from thinpde.distortion import (
    DistortionMap,
    NoConvergenceError,
    bottom_profile,
    build_map,
    hat_boundary,
    matrix_r,
    pushforward,
    top_profile,
    transplant_ellipticity,
)
from thinpde.expressions import ScalarField, VectorField, base_vars, parse
from thinpde.presets import reference_problem


def _map_for(gamma_text: str, problem=None, **kw) -> DistortionMap:
    problem = problem or reference_problem(gamma0=gamma_text)
    return build_map(problem, **kw)


def test_forward_identity_for_zero_gamma(reference):
    dmap = build_map(reference)
    assert dmap.r == 0.5
    assert np.allclose(dmap.forward([0.3], 0.2), [0.3, 0.2])
    assert np.allclose(dmap.inverse([0.3], 0.2), [0.3])


def test_forward_examples():
    dmap = _map_for("1")
    assert np.allclose(dmap.forward([0.0], 0.1), [0.1, 0.1])
    assert np.allclose(dmap.forward([0.4], 0.0), [0.4, 0.0])  # identity at y = 0


def test_inverse_constant_gamma_exact():
    dmap = _map_for("1")
    z = dmap.inverse([0.5], 0.2)
    assert z[0] == pytest.approx(0.3, abs=1e-12)


def test_inverse_nonlinear_bisection_oracle():
    dmap = _map_for("0.1*sin(x1)")
    z = dmap.inverse([1.0], 0.1)[0]
    # oracle: bisection for z + 0.01 sin z = 1 on [0.9, 1.0]
    lo, hi = 0.9, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + 0.01 * math.sin(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert z == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_inverse_no_convergence():
    gamma = VectorField([ScalarField(parse("5*x1"), base_vars(1))])
    dmap = DistortionMap(gamma=gamma, r=0.5, max_iter=8)  # |y Dgamma| = 2.5 > 1
    with pytest.raises(NoConvergenceError):
        dmap.inverse([1.0], 0.5)


def test_round_trip_identities(transform_demo):
    dmap = build_map(transform_demo)
    lo, hi = dmap.omega_hat
    for x in np.linspace(lo[0], hi[0], 9):
        for y in np.linspace(-dmap.r, dmap.r, 7):
            z = dmap.inverse([x], y)
            assert np.abs(dmap.forward(z, y) - [x, y]).max() <= 1e-10
            fwd = dmap.forward([x], y)
            assert np.abs(dmap.inverse(fwd[:-1], y) - [x]).max() <= 1e-10
            # displacement bound
            assert np.abs(np.append(z, y) - [x, y]).max() <= dmap.r * dmap.gamma_sup + 1e-12


def test_profile_trivial_cases(reference, transform_demo):
    dmap0 = build_map(reference)
    for z in np.linspace(0, 1, 5):
        assert top_profile(dmap0, reference.geom.g_plus, 0.1, [z]) == pytest.approx(0.1, abs=1e-12)
        assert bottom_profile(dmap0, reference.geom.g_minus, 0.1, [z]) == pytest.approx(-0.1, abs=1e-12)
    # constant g+: the fixed point is eps*G regardless of gamma
    dmap = build_map(transform_demo)
    const = ScalarField(parse("0.7"), base_vars(1))
    assert top_profile(dmap, const, 0.1, [0.3]) == pytest.approx(0.07, abs=1e-12)


def test_profile_linear_closed_form():
    # g+ = 1 + 0.5 x1, gamma = 0.2, z = 0: y = 0.1 / 0.99
    p = reference_problem(gamma0="0.2")
    dmap = build_map(p)
    g = ScalarField(parse("1 + 0.5*x1"), base_vars(1))
    y = top_profile(dmap, g, 0.1, [0.0])
    assert y == pytest.approx(0.1 / 0.99, abs=1e-11)


def test_profile_quadratic_gap(transform_demo):
    dmap = build_map(transform_demo)
    lo, hi = dmap.omega_hat
    zs = np.linspace(lo[0], hi[0], 17)
    eps_list = [0.1, 0.05, 0.025, 0.0125]
    gaps = []
    for eps in eps_list:
        gap = max(
            abs(top_profile(dmap, transform_demo.geom.g_plus, eps, [z]) - eps * transform_demo.geom.g_plus.value([z]))
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
        ge = top_profile(dmap, transform_demo.geom.g_plus, eps, z)
        lhs = y > ge
        rhs = y > eps * transform_demo.geom.g_plus.value(z + y * dmap.gamma.value(z))
        if abs(y - ge) > 1e-9:
            assert lhs == rhs


def test_matrix_r_examples():
    dmap = _map_for("1")
    r0 = matrix_r(dmap, [0.2], 0.0)
    assert np.allclose(r0, [[1.0, -1.0], [0.0, 1.0]])
    r5 = matrix_r(dmap, [0.2], 0.5)  # Dgamma = 0 for constant gamma
    assert np.allclose(r5, [[1.0, -1.0], [0.0, 1.0]])
    dmap0 = build_map(reference_problem())
    assert np.allclose(matrix_r(dmap0, [0.2], 0.3), np.eye(2))


def test_pushforward_identity_for_zero_gamma(reference):
    dmap = build_map(reference)
    hat = pushforward(reference, dmap)
    for z in np.linspace(0, 1, 5):
        za = [z]
        e = reference.coeffs.entry("1", "1")
        assert np.allclose(hat.sigma_hat("1", "1", za, 0.1), e.sigma_at([z, 0.1]), atol=1e-12)
        assert np.allclose(hat.b_hat("1", "1", za, 0.1), e.drift_at([z, 0.1]), atol=1e-12)
        assert hat.c_hat("1", "1", za, 0.1) == pytest.approx(e.c_at([z, 0.1]))
        assert hat.f_hat("1", "1", za, 0.1) == pytest.approx(e.f_at([z, 0.1]))


def test_pushforward_constant_gamma_affine():
    # constant gamma makes Q affine: the curvature drift vanishes exactly
    p = reference_problem(gamma0="0.3")
    dmap = build_map(p)
    assert dmap.is_constant
    hat = pushforward(p, dmap)
    d = hat.curvature_drift("1", "1", [0.4], 0.2)
    assert np.allclose(d, 0.0)
    s = hat.sigma_hat("1", "1", [0.4], 0.2)
    assert np.allclose(s, np.eye(2) @ matrix_r(dmap, [0.4], 0.2).T)


def test_curvature_drift_dual_path():
    # FD Hessians of Q vs differentiating the identity Q o P = id
    p = reference_problem(gamma0="0.1*sin(x1)")
    p.bdata.gamma0.components[0].expr._derivs.clear()
    dmap = build_map(p)
    x, y = 0.7, 0.2
    d2q = dmap.d2q([x], y)

    z = float(dmap.inverse([x], y)[0])
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


def test_hat_boundary_exactness(distorted):
    dmap = build_map(distorted)
    hb = hat_boundary(distorted, dmap)
    assert hb.check_exactness() <= 1e-12
    gp = hb.gamma_hat_plus([0.5], 0.1)
    assert gp[-1] == 1.0
    gm = hb.gamma_hat_minus([0.5], 0.1)
    assert gm[-1] == -1.0
    assert hb.beta_hat_plus([0.5], 0.0) == pytest.approx(0.0)


def test_hat_boundary_first_components_order_y(distorted):
    dmap = build_map(distorted)
    hb = hat_boundary(distorted, dmap)
    for y in (0.05, 0.025, 0.0125):
        g = hb.gamma_hat_plus([0.5], y)
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
    hat = pushforward(distorted, dmap)
    rng = np.random.default_rng(1)
    for _ in range(40):
        z = [rng.uniform(-0.1, 1.1)]
        y = rng.uniform(-dmap.r, dmap.r)
        assert hat.c_hat("1", "1", z, y) >= 0.0
        a = hat.diffusion_hat("1", "1", z, y)
        assert np.linalg.eigvalsh(a).min() >= -1e-10


# --- batched maps against the per-point loops they replaced -------------------

from pathlib import Path  # noqa: E402

from thinpde.config import load_problem  # noqa: E402
from thinpde.distortion import D2Q_STEP  # noqa: E402
from thinpde.presets import transform_demo_problem  # noqa: E402
from thinpde.problem import box_lattice  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _ref_inverse(dmap, x, y):
    """Reference: the per-point contraction."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = x.copy()
    for _ in range(dmap.max_iter):
        z_next = x - y * dmap.gamma.value(z)
        step = float(np.abs(z_next - z).max())
        z = z_next
        if step <= dmap.tol_fixed_point:
            return z
    residual = float(np.abs(z + y * dmap.gamma.value(z) - x).max())
    if residual <= dmap.tol_fixed_point:
        return z
    raise NoConvergenceError(dmap.max_iter, residual)


def _ref_matrix_r(dmap, z, y):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n = dmap.n
    m = np.eye(n) + y * dmap.gamma.jacobian(z)
    minv = np.linalg.inv(m)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = minv
    out[:n, n] = -minv @ dmap.gamma.value(z)
    out[n, n] = 1.0
    return out


def _ref_d2q(dmap, x, y, step=D2Q_STEP):
    n = dmap.n
    out = np.zeros((n + 1, n + 1, n + 1))
    if dmap.is_constant:
        return out
    p0 = np.append(np.atleast_1d(np.asarray(x, dtype=float)), y)

    def zeta(pt):
        return _ref_inverse(dmap, pt[:n], pt[n])

    center = zeta(p0)
    for i in range(n + 1):
        pp, pm = p0.copy(), p0.copy()
        pp[i] += step
        pm[i] -= step
        out[:n, i, i] = (zeta(pp) - 2 * center + zeta(pm)) / step**2
        for j in range(i + 1, n + 1):
            acc = np.zeros(n)
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    q = p0.copy()
                    q[i] += si * step
                    q[j] += sj * step
                    acc += si * sj * zeta(q)
            mixed = acc / (4 * step * step)
            out[:n, i, j] = mixed
            out[:n, j, i] = mixed
    return out


def _ref_profile(dmap, g, eps, z, tol=1e-12):
    z = np.atleast_1d(np.asarray(z, dtype=float))

    def f(y):
        return y - eps * g.value(z + y * dmap.gamma.value(z))

    lo, hi = -dmap.r, dmap.r
    assert f(lo) <= 0.0 <= f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-16:
            return mid
    return 0.5 * (lo + hi)


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
    assert _same(dmap.d2q(z, y), [_ref_d2q(dmap, zi, yi) for zi, yi in zip(z, y)])


@pytest.mark.parametrize("case", ["distorted.cfg", "transform_demo"])
def test_batched_profiles_match_per_point(case, hat_lattice):
    problem, dmap, zs, _, _ = hat_lattice
    if case == "transform_demo":
        problem = transform_demo_problem()
        dmap = build_map(problem)
    for eps in (0.1, 0.025):
        for g in (problem.geom.g_plus, problem.geom.g_minus):
            assert _same(top_profile(dmap, g, eps, zs), [_ref_profile(dmap, g, eps, z) for z in zs])
    assert bottom_profile is top_profile


def test_batched_inverse_reports_no_convergence(hat_lattice):
    problem, _, _, z, y = hat_lattice
    dmap = build_map(problem, max_iter=1)
    with pytest.raises(NoConvergenceError):
        dmap.inverse(z, y)
    with pytest.raises(NoConvergenceError):
        dmap.d2q(z, y)
    # points with y = 0 are fixed after one step
    assert _same(dmap.inverse(z, np.zeros(len(z))), z)
