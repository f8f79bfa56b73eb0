import math

import numpy as np
import pytest

from thinpde import ellipticity
from thinpde.ellipticity import (
    boundary_certificate,
    circle_obstruction_demo,
    equivalence_check,
    interior_certificate,
    rotating_field,
    smooth_cutoff,
)
from problems import reference_problem
from thinpde.presets import _entry


def test_interior_identity_diffusion(reference):
    rep = interior_certificate(reference)
    assert rep.passed
    assert rep.margin == pytest.approx(1.0)


def test_interior_scaled_diffusion():
    # A = diag(2, 0) via a single sigma row (sqrt(2), 0)
    p = reference_problem()
    p.coeffs.entries[("1", "1")] = _entry(1, [["sqrt(2)", "0"]], ["0", "0"], "0", "0")
    rep = interior_certificate(p)
    assert rep.margin == pytest.approx(2.0)


def test_boundary_certificate(reference):
    rep = boundary_certificate(reference)
    assert rep.margin == pytest.approx(1.0)
    assert rep.norm_margin == pytest.approx(1.0)


def test_boundary_degenerate_normal():
    # A = diag(0, 1): the outward normal lies in the kernel
    p = reference_problem()
    p.coeffs.entries[("1", "1")] = _entry(1, [["0", "0"], ["0", "1"]], ["0", "0"], "0", "0")
    rep = boundary_certificate(p)
    assert rep.margin == pytest.approx(0.0, abs=1e-14)
    assert not rep.passed


def test_boundary_with_gamma0():
    # A = diag(1, 0), gamma0 = x1: w = (+-1, -(+-1) x1) gives w A w^T = 1
    p = reference_problem(gamma0="x1")
    p.coeffs.entries[("1", "1")] = _entry(1, [["1", "0"]], ["0", "0"], "0", "0")
    rep = boundary_certificate(p)
    assert rep.margin == pytest.approx(1.0)


def test_equivalence_of_norm_and_quadratic_forms(reference, rich):
    for prob in (reference, rich):
        rep = equivalence_check(prob)
        assert rep.passed
        assert rep.worst <= 1e-10


def test_equivalence_zero_sigma():
    p = reference_problem()
    p.coeffs.entries[("1", "1")] = _entry(1, [["0", "0"], ["0", "0"]], ["0", "0"], "0", "0")
    rep = equivalence_check(p)
    assert rep.worst == 0.0


def test_refinement_monotone(rich):
    # nested lattices: the minimum cannot increase under refinement
    coarse = interior_certificate(rich, samples_per_axis=8)
    fine = interior_certificate(rich, samples_per_axis=16)
    finer = interior_certificate(rich, samples_per_axis=32)
    assert fine.margin <= coarse.margin + 1e-14
    assert finer.margin <= fine.margin + 1e-14


def test_cutoff_profile():
    assert smooth_cutoff(0.0) == 1.0
    assert smooth_cutoff(0.49) == 1.0
    assert smooth_cutoff(1.0) == 0.0
    assert smooth_cutoff(1.7) == 0.0
    vals = [smooth_cutoff(r) for r in np.linspace(0.5, 1.0, 40)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))  # monotone bridge
    assert 0.0 < smooth_cutoff(0.75) < 1.0


def test_rotating_field_values():
    assert np.allclose(rotating_field([1.0, 0.0]), np.diag([0.0, 1.0]), atol=1e-14)
    assert np.allclose(rotating_field([0.0, 1.0]), np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(rotating_field([0.25 / math.sqrt(2)] * 2), np.eye(2), atol=1e-14)
    assert np.allclose(rotating_field([0.0, 0.0]), np.eye(2), atol=1e-14)


def test_rotating_field_spectrum():
    rng = np.random.default_rng(0)
    for _ in range(60):
        x = rng.uniform(-1.5, 1.5, size=2)
        a = rotating_field(x)
        assert np.allclose(a, a.T, atol=1e-12)
        eig = np.sort(np.linalg.eigvalsh(a))
        expect = np.sort([smooth_cutoff(float(np.linalg.norm(x))), 1.0])
        assert np.allclose(eig, expect, atol=1e-10)
        assert eig[0] >= -1e-12  # PSD


def test_kernel_direction_is_radial_on_circle():
    # the zero eigenvector at angle theta is (cos theta, sin theta)
    for theta in np.linspace(0, 2 * math.pi, 17):
        v = np.array([math.cos(theta), math.sin(theta)])
        a = rotating_field(v)
        assert np.allclose(v @ a, 0.0, atol=1e-12)
        w = np.array([-math.sin(theta), math.cos(theta)])
        assert np.allclose(w @ a, w, atol=1e-12)


def test_circle_restriction_defeats_linear_potential():
    # dense theta sweep oracle: min of (1,0) A(theta) (1,0)^T = sin^2(theta)
    thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    qs = [float(np.array([1.0, 0.0]) @ rotating_field([math.cos(t), math.sin(t)]) @ np.array([1.0, 0.0])) for t in thetas]
    assert min(qs) <= 1e-3
    assert np.allclose(qs, np.sin(thetas) ** 2, atol=1e-12)


def test_obstruction_demo_all_candidates():
    rep = circle_obstruction_demo(n_theta=512)
    assert len(rep.rows) == 5
    assert rep.passed
    for row in rep.rows:
        assert row.ratio <= 1e-3
    # minima land where the mean-value argument says they must
    by_name = {r.candidate: r for r in rep.rows}
    assert by_name["x1"].theta_min == pytest.approx(0.0, abs=2 * math.pi / 512 + 1e-12)
    assert by_name["x2"].theta_min == pytest.approx(math.pi / 2, abs=2 * math.pi / 512 + 1e-12)
    sum_row = by_name["x1 + x2"].theta_min % math.pi
    assert sum_row == pytest.approx(math.pi / 4, abs=2 * math.pi / 512 + 1e-12)


@pytest.mark.parametrize("n_theta", [64, 1000, 4096])
def test_obstruction_rows_match_a_per_point_sweep(n_theta):
    rep = circle_obstruction_demo(n_theta)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    grads = {
        "x1": lambda x: np.array([1.0, 0.0]),
        "x2": lambda x: np.array([0.0, 1.0]),
        "x1 + x2": lambda x: np.array([1.0, 1.0]),
        "pow(x1, 2.0)": lambda x: np.array([2.0 * x[0], 0.0]),
        "x1 * x2": lambda x: np.array([x[1], x[0]]),
    }
    assert [r.candidate for r in rep.rows] == list(grads)
    for row, grad in zip(rep.rows, grads.values()):
        qs = []
        for th in thetas:
            x = np.array([math.cos(th), math.sin(th)])
            ds = grad(x)
            qs.append(float(ds @ rotating_field(x) @ ds))
        i = int(np.argmin(qs))
        assert (row.theta_min, row.q_min, row.q_max) == (float(thetas[i]), qs[i], max(qs))


def test_obstruction_demo_builds_the_field_once_per_angle(monkeypatch):
    calls = []
    field = ellipticity.rotating_field

    def counted(x):
        calls.append(x)
        return field(x)

    monkeypatch.setattr(ellipticity, "rotating_field", counted)
    circle_obstruction_demo(n_theta=64)
    assert len(calls) == 64


def test_obstruction_demo_rejects_tiny_sweep():
    with pytest.raises(ValueError):
        circle_obstruction_demo(n_theta=32)
