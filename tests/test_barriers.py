import math

import numpy as np
import pytest

from thinpde import barriers as bar
from thinpde.distortion import build_map
from thinpde.presets import _entry, reference_problem


@pytest.fixture(scope="module")
def ref_params(reference):
    view = bar.flat_view(reference)
    return view, bar.search_parameters(view)


def test_build_barrier_point_values(reference):
    # alpha = Lambda = C_D = 1, s = x1, h = 0: psi_bar(0, 0) = C_D + e - 1 = e
    view = bar.flat_view(reference)
    params = bar.BarrierParams(alpha=1.0, lam=1.0, c_d=1.0, eps1=0.2, r=0.5, s_sup=1.0)
    pair = bar.build_barrier(view, params, 0.1)
    assert pair.upper.value([0.0], 0.0) == pytest.approx(math.e)
    # vertical slope vanishes on the level y = eps h = 0
    assert pair.upper.grad([0.3], 0.0)[1] == pytest.approx(0.0)
    # the gap is 2 rho + 2 alpha Lambda chi (y - eps h)^2 > 0
    for x in np.linspace(0, 1, 5):
        for y in np.linspace(-0.1, 0.1, 5):
            gap = pair.upper.value([x], y) - pair.lower.value([x], y)
            assert gap > 0.0


def test_build_barrier_requires_zero_gamma0(distorted):
    params = bar.BarrierParams(alpha=2.0, lam=2.0, c_d=1.0, eps1=0.2, r=0.5, s_sup=1.0)
    with pytest.raises(bar.PreconditionViolatedError):
        bar.build_barrier(distorted, params, 0.1)


def test_build_barrier_eps_gate(reference):
    params = bar.BarrierParams(alpha=2.0, lam=2.0, c_d=1.0, eps1=0.1, r=0.5, s_sup=1.0)
    with pytest.raises(bar.PreconditionViolatedError):
        bar.build_barrier(reference, params, 0.2)
    bar.build_barrier(reference, params, 0.2, allow_uncertified=True)


def test_search_reference(ref_params):
    view, params = ref_params
    assert params.alpha > 1 and params.lam > 1 and params.c_d > 0
    assert params.eps1 * params.alpha < 1.0 and params.eps1 * params.lam < 1.0
    for eps in (params.eps1 / 2, params.eps1 / 4):
        for grid in ((16, 6), (32, 8)):
            pair = bar.build_barrier(view, params, eps)
            m = bar.verify_barrier(view, pair, grid=grid)
            assert m.passed, m.format()


def test_search_c1_needs_no_larger_cd(reference, reference_c1):
    p0 = bar.search_parameters(bar.flat_view(reference))
    p1 = bar.search_parameters(bar.flat_view(reference_c1))
    assert p1.c_d <= p0.c_d
    view1 = bar.flat_view(reference_c1)
    pair = bar.build_barrier(view1, p1, p1.eps1 / 2)
    assert bar.verify_barrier(view1, pair).passed


def test_cd_doubling_monotone(reference_c1, reference):
    # with c > 0 a larger C_D raises the interior margin; with c = 0 it
    # leaves every margin unchanged except the sandwich bookkeeping
    for prob, expect_increase in ((reference_c1, True), (reference, False)):
        view = bar.flat_view(prob)
        params = bar.search_parameters(view)
        eps = params.eps1 / 2
        m_lo = bar.verify_barrier(view, bar.build_barrier(view, params, eps))
        doubled = bar.BarrierParams(
            alpha=params.alpha, lam=params.lam, c_d=2 * params.c_d, eps1=params.eps1,
            r=params.r, kappa=params.kappa, s_shift=params.s_shift, s_sup=params.s_sup,
        )
        m_hi = bar.verify_barrier(view, bar.build_barrier(view, doubled, eps))
        if expect_increase:
            assert m_hi.m3 > m_lo.m3
        else:
            assert m_hi.m3 == pytest.approx(m_lo.m3, abs=1e-9)
        assert m_hi.bound_c > m_lo.bound_c
        for a, b in zip(m_hi.values, m_lo.values):
            assert a >= b - 1e-9


def test_swapped_barriers_flip_sign(ref_params):
    view, params = ref_params
    eps = params.eps1 / 2
    pair = bar.build_barrier(view, params, eps)
    swapped = bar.BarrierPair(upper=pair.lower, lower=pair.upper, params=params, eps=eps)
    m = bar.verify_barrier(view, swapped)
    assert m.m1 < 0.0
    assert m.m7 < 0.0


def test_search_exhausted_on_failed_certificate(reference):
    broken = reference_problem()
    broken.coeffs.entries[("1", "1")] = _entry(1, [["0", "0"], ["0", "1"]], ["0", "0"], "0", "0")
    with pytest.raises(bar.SearchExhaustedError) as err:
        bar.search_parameters(bar.flat_view(broken))
    assert "normalization" in err.value.inequality


def test_sandwich_width_bound(ref_params):
    view, params = ref_params
    eps = params.eps1 / 2
    pair = bar.build_barrier(view, params, eps)
    m = bar.verify_barrier(view, pair)
    beta0_sup = max(abs(view.beta0.value([x])) for x in np.linspace(0, 1, 17))
    bound = (
        2 * (params.c_d + params.c_alpha)
        + 2 * beta0_sup
        + 4 * params.alpha * params.lam * params.c_alpha * params.r**2
    )
    width = -(m.psi_low_max - m.psi_bar_min)  # lower bound for the true width
    xs = np.linspace(0, 1, 9)
    actual = max(
        pair.upper.value([x], y) - pair.lower.value([x], yy)
        for x in xs
        for y in np.linspace(-eps, eps, 5)
        for yy in np.linspace(-eps, eps, 5)
    )
    assert actual <= bound + 1e-9
    assert width <= bound + 1e-9


def test_general_barrier_zero_gamma_matches_flat(reference):
    gb = bar.general_barrier(reference)
    view = bar.flat_view(reference)
    params2 = bar.search_parameters(view)
    pair_flat = bar.build_barrier(view, params2, gb.pair.eps, allow_uncertified=True)
    for x in np.linspace(0, 1, 5):
        for y in np.linspace(-gb.pair.eps, gb.pair.eps, 5):
            assert gb.pair.upper.value([x], y) == pytest.approx(pair_flat.upper.value([x], y), rel=1e-9)


def test_general_barrier_constant_gamma_margins_match():
    # affine Q: pulled-back margins equal hatted margins at corresponding nodes
    p = reference_problem(gamma0="0.3")
    dmap = build_map(p, tol_fixed_point=1e-14)
    gb = bar.general_barrier(p, dmap=dmap)
    rng = np.random.default_rng(0)
    view = bar.flat_view(p)
    for _ in range(30):
        z = np.array([rng.uniform(0, 1)])
        y = float(rng.uniform(-gb.pair.eps, gb.pair.eps))
        x = dmap.forward(z, y)[:-1]
        lhs = view.operator(gb.pair.upper.hess(x, y), gb.pair.upper.grad(x, y), gb.pair.upper.value(x, y), x, y)
        rhs = gb.view.operator(
            gb.hat_pair.upper.hess(z, y), gb.hat_pair.upper.grad(z, y), gb.hat_pair.upper.value(z, y), z, y
        )
        assert lhs == pytest.approx(rhs, abs=1e-8 * max(1, abs(rhs)))


def test_general_barrier_distorted_reference(distorted):
    gb = bar.general_barrier(distorted)
    m_hat = bar.verify_barrier(gb.view, gb.hat_pair, grid=(24, 6))
    assert m_hat.passed, m_hat.format()
    m_orig = bar.verify_barrier(distorted, gb.pair, grid=(24, 6))
    assert m_orig.passed, m_orig.format()


def test_chain_rule_identity(distorted):
    dmap = build_map(distorted, tol_fixed_point=1e-14)
    gb = bar.general_barrier(distorted, dmap=dmap)
    view = bar.flat_view(distorted)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        z = np.array([rng.uniform(0, 1)])
        yb = gb.view.bottom_y(z, gb.pair.eps)
        yt = gb.view.top_y(z, gb.pair.eps)
        y = float(rng.uniform(yb, yt))
        x = dmap.forward(z, y)[:-1]
        lhs = view.operator(gb.pair.upper.hess(x, y), gb.pair.upper.grad(x, y), gb.pair.upper.value(x, y), x, y)
        rhs = gb.view.operator(
            gb.hat_pair.upper.hess(z, y), gb.hat_pair.upper.grad(z, y), gb.hat_pair.upper.value(z, y), z, y
        )
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-6


def _margins_by_points(view, pair, eps, grid):
    """Reference: the seven margins by a per-node, per-control loop over scalar evaluations."""
    xs = view.base_lattice(grid[0])
    ny = grid[1]
    vals_u, vals_l = [], []
    f_up, f_lo, f_up0, f_lo0 = [], [], [], []
    m1 = m2 = m4 = m5 = math.inf
    for x in xs:
        for j, y in enumerate(np.linspace(view.bottom_y(x, eps), view.top_y(x, eps), ny + 1)):
            vu, vl = pair.upper.value(x, y), pair.lower.value(x, y)
            gu, gl = pair.upper.grad(x, y), pair.lower.grad(x, y)
            hu, hl = pair.upper.hess(x, y), pair.lower.hess(x, y)
            vals_u.append(vu)
            vals_l.append(vl)
            co = view.coefficients(np.atleast_2d(x), np.atleast_1d(y))
            fu = fl = fu0 = fl0 = None
            for lam in view.min_labels:
                iu = il = iu0 = il0 = None
                for mu in view.max_labels:
                    k = (0, view.min_labels.index(lam), view.max_labels.index(mu))
                    a, b, c, f = co.a[k], co.b[k], co.c[k], co.f[k]
                    tu0 = -float(np.sum(a * hu)) - float(b @ gu) - f
                    tl0 = -float(np.sum(a * hl)) - float(b @ gl) - f
                    iu = tu0 + c * vu if iu is None else max(iu, tu0 + c * vu)
                    il = tl0 + c * vl if il is None else max(il, tl0 + c * vl)
                    iu0 = tu0 if iu0 is None else max(iu0, tu0)
                    il0 = tl0 if il0 is None else max(il0, tl0)
                fu = iu if fu is None else min(fu, iu)
                fl = il if fl is None else min(fl, il)
                fu0 = iu0 if fu0 is None else min(fu0, iu0)
                fl0 = il0 if fl0 is None else min(fl0, il0)
            f_up.append(fu)
            f_lo.append(fl)
            f_up0.append(fu0)
            f_lo0.append(fl0)
            if j == ny:
                gt, bt = view.gamma_top(x, y), view.beta_top(x, y)
                m1 = min(m1, float(gt @ gu) - bt)
                m4 = min(m4, -(float(gt @ gl) - bt))
            if j == 0:
                gb, bb = view.gamma_bottom(x, y), view.beta_bottom(x, y)
                m2 = min(m2, float(gb @ gu) - bb)
                m5 = min(m5, -(float(gb @ gl) - bb))
    vals_u, vals_l = np.array(vals_u), np.array(vals_l)
    return {
        "m1": m1,
        "m2": m2,
        "m3": min(f_up),
        "m4": m4,
        "m5": m5,
        "m6": min(-v for v in f_lo),
        "m7": float((vals_u - vals_l).min()),
        "bound_c": float(max(np.abs(vals_u).max(), np.abs(vals_l).max())) + 1.0,
        "psi_bar_min": float(vals_u.min()),
        "psi_low_max": float(vals_l.max()),
        "m3_cfree": min(f_up0),
        "m6_cfree": min(-v for v in f_lo0),
    }


@pytest.mark.parametrize("case", ["reference", "distorted", "rich"])
def test_verify_barrier_matches_pointwise_loop(case, ref_params, distorted, rich):
    if case == "reference":
        view, params = ref_params
        pair = bar.build_barrier(view, params, params.eps1 / 2)
    elif case == "distorted":
        view = bar.flat_view(distorted)
        pair = bar.general_barrier(distorted).pair
    else:
        # 2x2 controls exercise the inf-sup; the comparison needs no searched parameters
        view = bar.flat_view(rich)
        params = bar.BarrierParams(alpha=2.0, lam=2.0, c_d=1.0, eps1=0.1, r=0.25, s_sup=1.0)
        pair = bar.general_barrier(rich, params=params).pair
    grid = (24, 6)
    got = bar.verify_barrier(view, pair, grid=grid)
    want = _margins_by_points(view, pair, pair.eps, grid)
    for name, value in want.items():
        assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
