import math
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from thinpde import barriers as bar
from thinpde import distortion
from thinpde.config import load_problem
from thinpde.distortion import build_map
from problems import reference_problem
from thinpde.presets import _entry
from thinpde.problem import box_lattice, operator_infsup

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def ref_params(reference):
    view = bar.flat_view(reference)
    return view, bar.search_parameters(view)


@pytest.mark.parametrize(
    "gamma0, needs",
    [
        ("0", False),
        ("0*x1", False),
        ("x1 - x1", False),
        ("0.3", True),
        # vanishes at every node of the 16-interval lattice that once decided this
        ("0.3*sin(16*pi*x1)", True),
        ("1e-13*x1", True),
    ],
)
def test_needs_distortion_is_decided_from_the_expression(gamma0, needs):
    assert bar.needs_distortion(reference_problem(gamma0=gamma0)) is needs


def test_barrier_pair_point_values(reference):
    # alpha = Lambda = C_D = 1, s = x1, h = 0: psi_bar(0, 0) = C_D + e - 1 = e
    view = bar.flat_view(reference)
    params = bar.BarrierParams(alpha=1.0, lam=1.0, c_d=1.0, eps1=0.2, r=0.5, s_sup=1.0)
    pair = bar.BarrierPair(view, params)
    (val, grad, _), _ = pair.arrays(np.array([[0.0], [0.3]]), np.zeros(2), 0.1)
    assert val[0] == pytest.approx(math.e)
    # vertical slope vanishes on the level y = eps h = 0
    assert grad[1, 1] == pytest.approx(0.0)
    # the gap is 2 rho + 2 alpha Lambda chi (y - eps h)^2 > 0
    x = np.repeat(np.linspace(0, 1, 5), 5)[:, None]
    up, lo = pair.values(x, np.tile(np.linspace(-0.1, 0.1, 5), 5), 0.1)
    assert (up - lo > 0.0).all()


def test_rho_keeps_cd_beside_a_huge_c_alpha():
    # C_alpha = exp(98.5) ~ 6e42 exceeds C_D * 2^53, so C_D + C_alpha - chi would round C_D away, to 0 where
    # chi = C_alpha
    params = bar.BarrierParams(alpha=64.0, lam=1.0, c_d=2.0**41, eps1=0.1, r=0.5, s_sup=1.5390625)
    s_val = np.array([params.s_sup])
    assert np.exp(params.alpha * s_val)[0] == params.c_alpha  # chi = C_alpha at this node
    zero = (np.zeros(1), None, None)
    # at y = eps h = 0 psi_bar is rho
    val = bar._barrier_arrays(params, 0.1, 1.0, np.zeros(1), [(s_val, None, None), zero, zero], derivatives=False)
    assert val[0] == params.c_d


def test_search_reference(ref_params):
    view, params = ref_params
    assert params.alpha > 1 and params.lam > 1 and params.c_d > 0
    assert params.eps1 * params.alpha < 1.0 and params.eps1 * params.lam < 1.0
    for eps in (params.eps1 / 2, params.eps1 / 4):
        for grid in ((16, 6), (32, 8)):
            m = bar.verify_barrier(view, bar.BarrierPair(view, params), eps, grid=grid)
            assert m.passed, m.format()


def test_search_c1_needs_no_larger_cd(reference, reference_c1):
    p0 = bar.search_parameters(bar.flat_view(reference))
    p1 = bar.search_parameters(bar.flat_view(reference_c1))
    assert p1.c_d <= p0.c_d
    view1 = bar.flat_view(reference_c1)
    assert bar.verify_barrier(view1, bar.BarrierPair(view1, p1), p1.eps1 / 2).passed


def test_cd_doubling_monotone(reference_c1, reference):
    # with c > 0 a larger C_D raises the interior margin; with c = 0 it
    # leaves every margin unchanged except the sandwich bookkeeping
    for prob, expect_increase in ((reference_c1, True), (reference, False)):
        view = bar.flat_view(prob)
        params = bar.search_parameters(view)
        eps = params.eps1 / 2
        m_lo = bar.verify_barrier(view, bar.BarrierPair(view, params), eps)
        doubled = bar.BarrierParams(
            alpha=params.alpha, lam=params.lam, c_d=2 * params.c_d, eps1=params.eps1,
            r=params.r, kappa=params.kappa, s_shift=params.s_shift, s_sup=params.s_sup,
        )
        m_hi = bar.verify_barrier(view, bar.BarrierPair(view, doubled), eps)
        if expect_increase:
            assert m_hi.m3 > m_lo.m3
        else:
            assert m_hi.m3 == pytest.approx(m_lo.m3, abs=1e-9)
        assert m_hi.bound_c > m_lo.bound_c
        for a, b in zip(m_hi.values, m_lo.values):
            assert a >= b - 1e-9


class _Swapped:
    """A pair with psi_bar and psi_low exchanged."""

    def __init__(self, pair):
        self.pair = pair

    def arrays(self, x, y, eps):
        up, lo = self.pair.arrays(x, y, eps)
        return lo, up


def test_swapped_barriers_flip_sign(ref_params):
    view, params = ref_params
    m = bar.verify_barrier(view, _Swapped(bar.BarrierPair(view, params)), params.eps1 / 2)
    assert m.m1 < 0.0
    assert m.m7 < 0.0


def test_search_exhausted_on_failed_certificate(reference):
    broken = reference_problem()
    broken.coeffs.entries[("1", "1")] = _entry(1, [["0", "0"], ["0", "1"]], ["0", "0"], "0", "0")
    with pytest.raises(bar.SearchExhaustedError) as err:
        bar.search_parameters(bar.flat_view(broken))
    assert "normalization" in err.value.inequality


def test_search_stops_before_barrier_values_leave_float_range():
    # gamma0 = 50 x1: the alpha stage doubles alpha until exp(alpha * s_sup) would overflow
    p = reference_problem(gamma0="50*x1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bar.SearchExhaustedError) as err:
            bar.search_barriers(p, build_map(p))
    assert err.value.inequality.startswith("interior operator inequalities (alpha stage): barrier values leave float range")


def test_sandwich_width_bound(ref_params):
    view, params = ref_params
    eps = params.eps1 / 2
    pair = bar.BarrierPair(view, params)
    m = bar.verify_barrier(view, pair, eps)
    beta0_sup = max(abs(view.beta0.value([[x]])[0]) for x in np.linspace(0, 1, 17))
    bound = (
        2 * (params.c_d + params.c_alpha)
        + 2 * beta0_sup
        + 4 * params.alpha * params.lam * params.c_alpha * params.r**2
    )
    width = -(m.psi_low_max - m.psi_bar_min)  # lower bound for the true width
    # the largest psi_bar(x, y) - psi_low(x, y') over 9 x 5 x 5 points
    up, lo = pair.values(np.repeat(np.linspace(0, 1, 9), 5)[:, None], np.tile(np.linspace(-eps, eps, 5), 9), eps)
    actual = float((up.reshape(9, 5).max(axis=1) - lo.reshape(9, 5).min(axis=1)).max())
    assert actual <= bound + 1e-9
    assert width <= bound + 1e-9


def _operator(view, side, x, y) -> np.ndarray:
    """The operator of ``view`` on one barrier's (value, grad, hess) arrays at nodes (x, y)."""
    val, grad, hess = side
    return operator_infsup(view.coefficients(x, y), hess, grad, val)[0]


def test_general_barrier_zero_gamma_matches_flat(reference):
    # gamma = 0: the distorted view is the flat one and the map is the identity
    dmap = build_map(reference)
    hat = bar.hat_view(reference, dmap)
    params = bar.search_parameters(hat)
    pulled = bar.BarrierPair(hat, params, dmap)
    eps = params.eps1 / 2
    view = bar.flat_view(reference)
    flat = bar.BarrierPair(view, bar.search_parameters(view))
    x = np.repeat(np.linspace(0, 1, 5), 5)[:, None]
    y = np.tile(np.linspace(-eps, eps, 5), 5)
    np.testing.assert_allclose(pulled.values(x, y, eps)[0], flat.values(x, y, eps)[0], rtol=1e-9, atol=0.0)


def test_general_barrier_constant_gamma_margins_match(monkeypatch):
    # affine Q: pulled-back margins equal hatted margins at corresponding nodes
    p = reference_problem(gamma0="0.3")
    monkeypatch.setattr(distortion, "_FIXED_POINT_TOL", 1e-14)
    dmap = build_map(p)
    pair = bar.search_barriers(p, dmap=dmap)
    eps = pair.params.eps1 / 2
    rng = np.random.default_rng(0)
    zs, ys = [], []
    for _ in range(30):
        zs.append([rng.uniform(0, 1)])
        ys.append(rng.uniform(-eps, eps))
    z, y = np.array(zs), np.array(ys)
    x = dmap.forward(z, y)[:, :-1]
    lhs = _operator(bar.flat_view(p), pair.arrays(x, y, eps)[0], x, y)
    rhs = _operator(pair.view, replace(pair, dmap=None).arrays(z, y, eps)[0], z, y)
    assert (np.abs(lhs - rhs) <= 1e-8 * np.maximum(1.0, np.abs(rhs))).all()


def test_general_barrier_distorted_reference(distorted):
    pair = bar.search_barriers(distorted, build_map(distorted))
    eps = pair.params.eps1 / 2
    m_hat = bar.verify_barrier(pair.view, replace(pair, dmap=None), eps, grid=(24, 6))
    assert m_hat.passed, m_hat.format()
    m_orig = bar.verify_barrier(bar.flat_view(distorted), pair, eps, grid=(24, 6))
    assert m_orig.passed, m_orig.format()


def _margins_by_points(problem, view, pair, eps, grid):
    """Reference: the seven margins by a per-node, per-control loop over scalar evaluations."""
    min_labels, max_labels = problem.controls.min_labels, problem.controls.max_labels
    xs = box_lattice(view.lower, view.upper, grid[0])
    ny = grid[1]
    vals_u, vals_l = [], []
    f_up, f_lo, f_up0, f_lo0 = [], [], [], []
    m1 = m2 = m4 = m5 = math.inf
    for x in xs:
        for j, y in enumerate(np.linspace(view.profile(-1.0, x[None], eps)[0], view.profile(1.0, x[None], eps)[0], ny + 1)):
            (vu, gu, hu), (vl, gl, hl) = (
                tuple(a[0] for a in side) for side in pair.arrays(x[None, :], np.array([y]), eps)
            )
            vals_u.append(vu)
            vals_l.append(vl)
            co = view.coefficients(np.atleast_2d(x), np.atleast_1d(y))
            fu = fl = fu0 = fl0 = None
            for lam in min_labels:
                iu = il = iu0 = il0 = None
                for mu in max_labels:
                    k = (0, min_labels.index(lam), max_labels.index(mu))
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
                (gt,), (bt,) = view.oblique(1.0, x[None, :], np.array([y]))
                m1 = min(m1, float(gt @ gu) - bt)
                m4 = min(m4, -(float(gt @ gl) - bt))
            if j == 0:
                (gb,), (bb,) = view.oblique(-1.0, x[None, :], np.array([y]))
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
def test_verify_barrier_matches_pointwise_loop(case, ref_params, reference, distorted, rich):
    problem = {"reference": reference, "distorted": distorted, "rich": rich}[case]
    if case == "reference":
        view, params = ref_params
        pair = bar.BarrierPair(view, params)
    elif case == "distorted":
        view = bar.flat_view(distorted)
        pair = bar.search_barriers(distorted, build_map(distorted))
    else:
        # 2x2 controls exercise the inf-sup; the comparison needs no searched parameters
        view = bar.flat_view(rich)
        params = bar.BarrierParams(alpha=2.0, lam=2.0, c_d=1.0, eps1=0.1, r=0.25, s_sup=1.0)
        dmap = build_map(rich)
        pair = bar.BarrierPair(bar.hat_view(rich, dmap), params, dmap)
    grid = (24, 6)
    eps = pair.params.eps1 / 2
    got = bar.verify_barrier(view, pair, eps, grid=grid)
    want = _margins_by_points(problem, view, pair, eps, grid)
    for name, value in want.items():
        assert getattr(got, name) == pytest.approx(value, rel=1e-12, abs=0.0), name


def test_pair_values_are_the_value_slots_of_arrays(ref_params, distorted):
    # a flat pair and a pulled-back pair: the value-only path computes the same values, bit for bit
    view, params = ref_params
    pulled = bar.search_barriers(distorted, build_map(distorted))
    xs = box_lattice(view.lower, view.upper, 8)
    x = np.repeat(xs, 3, axis=0)
    y = np.tile([-0.01, 0.0, 0.02], len(xs))
    for pair, eps in ((bar.BarrierPair(view, params), params.eps1 / 2), (pulled, pulled.params.eps1 / 4)):
        for value, side in zip(pair.values(x, y, eps), pair.arrays(x, y, eps)):
            assert value.tobytes() == side[0].tobytes()


@pytest.mark.parametrize("config", ["reference", "distorted"])
def test_search_margins_are_the_verification_margins(config):
    # the search's cached margins of a candidate and verify_barrier's margins of its pair, bit for bit
    problem = load_problem(CONFIGS / f"{config}.cfg")
    view = bar.hat_view(problem, build_map(problem)) if bar.needs_distortion(problem) else bar.flat_view(problem)
    params = bar.search_parameters(view)
    for grid in ((16, 6), (32, 8)):
        for eps in (params.eps1 / 2, params.eps1 / 4):
            got = bar._MarginEngine(view, grid).margins(params, eps)
            want = bar.verify_barrier(view, bar.BarrierPair(view, params), eps, grid)
            assert repr(astuple(got)) == repr(astuple(want))


@pytest.mark.parametrize(
    "config, want",
    [
        ("reference", "alpha=8 Lambda=2 C_D=1 eps1=0.12375 r=0.5 kappa=1 C_alpha=2980.96"),
        ("slice_exact", "alpha=8 Lambda=2 C_D=1 eps1=0.12375 r=0.5 kappa=1 C_alpha=2980.96"),
        ("distorted", "alpha=8 Lambda=2 C_D=1 eps1=0.12375 r=0.5 kappa=1.09998 C_alpha=224073"),
    ],
    ids=["reference", "slice_exact", "distorted"],
)
def test_search_measures_each_candidate_once(config, want, monkeypatch):
    # a stage's passing candidate is the next stage's first: its margins are reused, not measured again
    calls = []
    margins_of = bar._MarginEngine.margins_of
    monkeypatch.setattr(bar._MarginEngine, "margins_of", lambda self, *a: calls.append(a) or margins_of(self, *a))
    problem = load_problem(CONFIGS / f"{config}.cfg")
    pair = bar.search_barriers(problem, build_map(problem) if bar.needs_distortion(problem) else None)
    assert len(calls) == 8
    assert pair.params.format() == want
